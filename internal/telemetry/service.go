package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options tunes a Service.
type Options struct {
	MaxBody int // largest accepted ingest body in bytes (default 8 MiB)
	// IdleTimeout bounds memory held for abandoned sessions: a session
	// with no batch for this long is folded as-is (counted under
	// sessions_expired), and stale dedup tombstones are dropped. Default
	// 30 minutes; negative disables expiry.
	IdleTimeout time.Duration
}

func (o *Options) defaults() {
	if o.MaxBody <= 0 {
		o.MaxBody = 8 << 20
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Minute
	}
}

// maxInFlight bounds the ingest requests a service holds at once; one more
// is shed with 429 and Retry-After before its body is read. 1024 was the
// total queue capacity of the worker pool this bound replaced.
const maxInFlight = 1024

// Service is the ingest endpoint: it applies each event batch to the Store
// in the request that carries it, so a 202 means the batch is in the store
// (a 409 means the store refused it). Overload is shed by a bounded count
// of requests in flight (429; the client retries). Batches of one session
// arrive in order because its client keeps one post in flight; the Store's
// Seq dedup and gap check hold that order against replays.
type Service struct {
	store   *Store
	maxBody int64
	health  *obs.Health // the readiness payload every sibling service shares
	// reg is the service's own registry, the definition of every scalar
	// it reports (see Register).
	reg *obs.Registry
	// inFlight holds one token per ingest request being served (capacity
	// maxInFlight; tests shrink it in place).
	inFlight chan struct{}

	closeOnce   sync.Once
	closed      atomic.Bool
	stopJanitor chan struct{}
	janitor     sync.WaitGroup

	handlerOnce sync.Once
	handler     http.Handler

	rejected    atomic.Int64 // batches shed (429)
	applied     atomic.Int64 // batches applied to the store (202)
	badRequests atomic.Int64
	applyErrors atomic.Int64 // batches the store refused (409: gaps, rebinds)
	expired     atomic.Int64 // sessions reclaimed by the janitor

	applyDelay atomic.Int64 // test hook: ns slept per apply, to force backpressure
}

// NewService builds a service and starts its idle-session janitor (unless
// IdleTimeout is negative); it starts no other goroutine.
func NewService(o Options) *Service {
	o.defaults()
	s := &Service{
		store:       NewStore(),
		maxBody:     int64(o.MaxBody),
		health:      obs.NewHealth(),
		reg:         obs.NewRegistry(""),
		inFlight:    make(chan struct{}, maxInFlight),
		stopJanitor: make(chan struct{}),
	}
	s.Register(s.reg)
	if o.IdleTimeout > 0 {
		s.janitor.Add(1)
		go s.runJanitor(o.IdleTimeout)
	}
	return s
}

// runJanitor periodically expires idle sessions (see Store.ExpireIdle).
func (s *Service) runJanitor(idle time.Duration) {
	defer s.janitor.Done()
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

// Close stops accepting batches (later posts get 503) and stops the
// janitor. The store stays readable.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stopJanitor)
		s.janitor.Wait()
	})
}

// Register exposes the service's counters on a metrics registry, and is
// the one place their families are named: NewService runs it on the
// service's own registry, callers on the registry behind /metrics. The
// *_total families are monotonic counters; live sessions is a gauge.
func (s *Service) Register(reg *obs.Registry) {
	reg.CounterFunc("telemetry_batches_rejected_total", "batches shed by the in-flight bound (429)", s.rejected.Load)
	reg.CounterFunc("telemetry_batches_applied_total", "batches applied to the store (202)", s.applied.Load)
	reg.CounterFunc("telemetry_bad_requests_total", "malformed ingest requests", s.badRequests.Load)
	reg.CounterFunc("telemetry_apply_errors_total", "batches the store refused (409)", s.applyErrors.Load)
	reg.CounterFunc("telemetry_sessions_expired_total", "sessions reclaimed by the janitor", s.expired.Load)
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
		mux.Handle(HealthPath, s.health)
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
	// A slot before the body: at the bound the request is shed unread, and
	// Retry-After advertises a real pause — clients honor it over their own
	// backoff.
	select {
	case s.inFlight <- struct{}{}:
		defer func() { <-s.inFlight }()
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "ingest saturated", http.StatusTooManyRequests)
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength, s.maxBody)
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	b, err := ParseBatch(body)
	if err == nil {
		err = b.Validate()
	}
	if err != nil {
		s.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if d := s.applyDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if err := s.store.Append(b); err != nil {
		// A sequence gap or a session bound to another course: definitive,
		// so the client stops rather than retries.
		s.applyErrors.Add(1)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.applied.Add(1)
	w.WriteHeader(http.StatusAccepted)
}

// readBody reads a request body into one buffer: exactly Content-Length
// bytes when the request declares it (refused unread past limit), or what
// r yields when it does not (r is the handler's MaxBytesReader either way).
func readBody(r io.Reader, length, limit int64) ([]byte, error) {
	switch {
	case length < 0:
		return io.ReadAll(r)
	case length > limit:
		return nil, fmt.Errorf("body of %d bytes exceeds %d", length, limit)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
