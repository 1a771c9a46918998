package telemetry

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options tunes a Service.
type Options struct {
	Workers    int // ingest workers, one queue each (default 4)
	QueueDepth int // per-worker queue bound (default 256)
	MaxBody    int // largest accepted ingest body in bytes (default 8 MiB)
	// IdleTimeout bounds memory held for abandoned sessions: a session
	// with no batch for this long is folded as-is (counted under
	// sessions_expired), and stale dedup tombstones are dropped. Default
	// 30 minutes; negative disables expiry.
	IdleTimeout time.Duration
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 8 << 20
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Minute
	}
}

// Service is the ingest endpoint: it accepts event batches over HTTP,
// queues them onto bounded per-worker queues (backpressure: a full queue
// answers 429 and the client retries), and applies them to the Store on the
// worker goroutines. A session is pinned to one worker by hash, so its
// batches apply in arrival order even though workers run concurrently.
type Service struct {
	store   *Store
	queues  []chan Batch
	wg      sync.WaitGroup
	maxBody int64
	health  *obs.Health
	// reg is the service's own registry, the definition of every scalar
	// it reports (see Register).
	reg *obs.Registry

	closeOnce   sync.Once
	closed      atomic.Bool
	stopJanitor chan struct{}
	// closeMu makes enqueue-vs-Close safe: handlers send to the bounded
	// queues under RLock, Close closes them under Lock, so a send can never
	// hit a closed channel.
	closeMu sync.RWMutex

	handlerOnce sync.Once
	handler     http.Handler

	accepted    atomic.Int64 // batches enqueued (202)
	rejected    atomic.Int64 // batches shed (429)
	applied     atomic.Int64 // batches processed off the queues
	badRequests atomic.Int64
	applyErrors atomic.Int64 // accepted batches the store refused (gaps, rebinds)
	expired     atomic.Int64 // sessions reclaimed by the janitor

	applyDelay atomic.Int64 // test hook: ns slept per apply, to force backpressure
}

// NewService builds a service and starts its ingest workers.
func NewService(o Options) *Service {
	o.defaults()
	s := &Service{
		store:       NewStore(),
		queues:      make([]chan Batch, o.Workers),
		maxBody:     int64(o.MaxBody),
		reg:         obs.NewRegistry(""),
		stopJanitor: make(chan struct{}),
	}
	s.Register(s.reg)
	// The readiness payload every sibling service shares (obs.Health):
	// uptime plus ingest-specific load signals. "pending" is load-bearing —
	// the load generator's drain wait polls it.
	s.health = obs.NewHealth().
		Set("pending", func() any { return s.Pending() }).
		Set("queue_saturation", func() any { return s.QueueSaturation() }).
		Set("queues", func() any { return len(s.queues) })
	for i := range s.queues {
		q := make(chan Batch, o.QueueDepth)
		s.queues[i] = q
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for b := range q {
				if d := s.applyDelay.Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				// A refused batch (sequence gap, course rebind) still counts
				// as applied so drain accounting stays exact; the refusal is
				// surfaced in the stats snapshot.
				if err := s.store.Append(b); err != nil {
					s.applyErrors.Add(1)
				}
				s.applied.Add(1)
			}
		}()
	}
	if o.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.runJanitor(o.IdleTimeout)
	}
	return s
}

// runJanitor periodically expires idle sessions (see Store.ExpireIdle).
func (s *Service) runJanitor(idle time.Duration) {
	defer s.wg.Done()
	every := idle / 4
	if every < time.Second {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.store.ExpireIdle(time.Now().Add(-idle)); n > 0 {
				s.expired.Add(int64(n))
			}
		case <-s.stopJanitor:
			return
		}
	}
}

// Store exposes the backing store (read access for in-process reporting).
func (s *Service) Store() *Store { return s.store }

// Close stops accepting batches and drains the queues.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.stopJanitor)
		s.closeMu.Lock()
		s.closed.Store(true)
		for _, q := range s.queues {
			close(q)
		}
		s.closeMu.Unlock()
		s.wg.Wait()
	})
}

// Quiesce blocks until every accepted batch has been applied or the timeout
// elapses; it reports whether the service drained.
func (s *Service) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.applied.Load() < s.accepted.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// Pending counts accepted batches not yet applied.
func (s *Service) Pending() int {
	n := s.accepted.Load() - s.applied.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// QueueSaturation reports the fullest ingest queue as a fraction of its
// bound, rounded to hundredths — the readiness signal for backpressure
// (1.0 means at least one queue is shedding into 429s).
func (s *Service) QueueSaturation() float64 {
	worst := 0.0
	for _, q := range s.queues {
		if c := cap(q); c > 0 {
			if f := float64(len(q)) / float64(c); f > worst {
				worst = f
			}
		}
	}
	return math.Round(worst*100) / 100
}

// queueDepth sums batches currently sitting in the ingest queues.
func (s *Service) queueDepth() int64 {
	var n int64
	for _, q := range s.queues {
		n += int64(len(q))
	}
	return n
}

// Register exposes the service's counters on a metrics registry, and is
// the one place their families are named: NewService runs it on the
// service's own registry, callers on the registry behind /metrics. The
// *_total families are monotonic counters; pending, queue depth and live
// sessions are gauges (they fall as workers drain).
func (s *Service) Register(reg *obs.Registry) {
	reg.CounterFunc("telemetry_batches_accepted_total", "batches enqueued (202)", s.accepted.Load)
	reg.CounterFunc("telemetry_batches_rejected_total", "batches shed by a full queue (429)", s.rejected.Load)
	reg.CounterFunc("telemetry_batches_applied_total", "batches processed off the queues", s.applied.Load)
	reg.CounterFunc("telemetry_bad_requests_total", "malformed ingest requests", s.badRequests.Load)
	reg.CounterFunc("telemetry_apply_errors_total", "accepted batches the store refused", s.applyErrors.Load)
	reg.CounterFunc("telemetry_sessions_expired_total", "sessions reclaimed by the janitor", s.expired.Load)
	reg.GaugeFunc("telemetry_pending", "accepted batches not yet applied", func() int64 { return int64(s.Pending()) })
	reg.GaugeFunc("telemetry_queue_depth", "batches sitting in the ingest queues", s.queueDepth)
	reg.GaugeFunc("telemetry_live_sessions", "sessions the store currently tracks", func() int64 { return int64(s.store.LiveSessions()) })
}

// Snapshot reads the service's scalars: its registry's flat view
// (obs.Registry.Flat), which /telemetry/stats serves beside the
// per-course aggregates.
func (s *Service) Snapshot() map[string]int64 { return s.reg.Flat("telemetry") }

// IngestPath, StatsPath and HealthPath are the routes Handler serves,
// matching what Client and the load generator expect.
const (
	IngestPath = "/telemetry/ingest"
	StatsPath  = "/telemetry/stats"
	HealthPath = "/healthz"
)

// Handler returns the HTTP surface: IngestPath (POST), StatsPath (GET) and
// HealthPath (GET). Mount it on a netstream.Server or any mux; repeated
// calls return the same handler.
func (s *Service) Handler() http.Handler {
	s.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc(IngestPath, s.handleIngest)
		mux.HandleFunc(StatsPath, s.handleStats)
		mux.HandleFunc(HealthPath, s.handleHealth)
		s.handler = mux
	})
	return s.handler
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "ingest is POST-only", http.StatusMethodNotAllowed)
		return
	}
	if s.closed.Load() {
		http.Error(w, "service closing", http.StatusServiceUnavailable)
		return
	}
	var b Batch
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&b); err != nil {
		s.badRequests.Add(1)
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := b.Validate(); err != nil {
		s.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// One session, one worker: its batches apply in the order they arrived.
	hash := fnv.New32a()
	hash.Write([]byte(b.Session))
	q := s.queues[hash.Sum32()%uint32(len(s.queues))]
	s.closeMu.RLock()
	if s.closed.Load() {
		s.closeMu.RUnlock()
		http.Error(w, "service closing", http.StatusServiceUnavailable)
		return
	}
	select {
	case q <- b:
		s.closeMu.RUnlock()
		s.accepted.Add(1)
		w.WriteHeader(http.StatusAccepted)
	default:
		s.closeMu.RUnlock()
		// Bounded queue full: shed the batch and tell the client when to
		// retry. The queue just proved itself saturated, so advertise a
		// real pause — clients honor this over their own backoff.
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
	}
}

// handleStats serves /telemetry/stats: the registry's flat scalar view
// plus the facts with no metric form — the per-course aggregates and the
// bounds of their tick histograms.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"tick_buckets": TickBuckets(), "courses": s.store.Snapshot()}
	for k, v := range s.Snapshot() {
		out[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.health.ServeHTTP(w, r)
}
