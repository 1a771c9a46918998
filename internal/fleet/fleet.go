// Package fleet is the learner-fleet load generator: it spins up N
// concurrent simulated learners that each fetch a course package from a
// live netstream.Server, play it through a runtime.Session driven by a sim
// policy, and report every event through a batching telemetry client. The
// summary it returns — throughput, startup and session latency, transfer
// and ingest costs — is the measurement behind experiment E10 and the
// BenchmarkFleet* family, and the closest thing the reproduction has to the
// paper's networked-classroom deployment under load.
package fleet

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config shapes one fleet run.
type Config struct {
	ServerURL string // netstream server base URL (http://host:port), which also ingests telemetry
	Package   string // package name published under /pkg/, which also labels telemetry

	// Interactive switches learners from local simulation to server-hosted
	// play: each learner creates a session on the play service and drives
	// the whole game over the wire, action by action, while still reporting
	// through telemetry. This is the remote-play load measurement (E12).
	Interactive bool
	// PlayURL is the play service base URL when it is not the package
	// server's (vgbl-loadtest -play-server: a gateway on another host);
	// empty means ServerURL, whose /play/ a deployment always serves.
	PlayURL string
	// PlayMirror runs each interactive learner as a thick client instead
	// of a thin one (every act one framed round trip): a local
	// deterministic replica answers reads, act results and frames, and
	// acts ship to the hosted session in framed batches that are
	// reconciled reply by reply (see playsvc.ClientOptions.LocalMirror).
	// Every replica is a session on the one package the fleet opened, so
	// the learners share its parsed container, compiled scripts and decoded
	// frames.
	PlayMirror bool

	Learners    int // fleet size (default 50)
	Concurrency int // max simultaneously playing learners (default min(Learners, 128))

	Policy sim.Factory // learner policy (default sim.GuidedFactory)
	Sim    sim.Config  // per-session knobs; Seed is offset per learner

	FlushEvery    int           // telemetry batch size (default 32)
	FlushInterval time.Duration // telemetry interval flush (0 = size-only)

	// Obs, when set, receives the fleet's client-side transfer histograms
	// (netstream_delta_bytes / netstream_delta_seconds): every learner's
	// delta-sync download is observed into one shared family on this
	// registry.
	Obs *obs.Registry

	HTTP *http.Client // shared transport (default: pooled faultnet transport with timeouts)

	// metrics is the shared per-download instrument set built from Obs.
	metrics *netstream.ClientMetrics
	// runID salts the fleet's telemetry session ids with the run's start
	// time, so repeated runs against one long-lived server register as new
	// sessions instead of colliding with the previous run's dedup marks.
	runID string
}

func (c *Config) defaults() (ownsTransport bool, err error) {
	if c.ServerURL == "" || c.Package == "" {
		return false, fmt.Errorf("fleet: need ServerURL and Package")
	}
	if c.PlayURL == "" {
		c.PlayURL = c.ServerURL
	}
	if c.Learners <= 0 {
		c.Learners = 50
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 128
	}
	if c.Concurrency > c.Learners {
		c.Concurrency = c.Learners
	}
	if c.Policy.New == nil {
		c.Policy = sim.GuidedFactory
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 32
	}
	c.runID = fmt.Sprintf("%x", time.Now().UnixNano())
	if c.HTTP == nil {
		// http.DefaultClient keeps only 2 idle connections per host — a
		// whole fleet hammering one server would then churn a TCP
		// connection per request and measure handshakes, not the server.
		// The shared transport also carries real dial/response-header
		// timeouts, so one stalled server cannot park the fleet.
		c.HTTP = &http.Client{Transport: faultnet.NewHTTPTransport(c.Concurrency)}
		ownsTransport = true
	}
	if c.Obs != nil {
		c.metrics = netstream.NewClientMetrics()
		c.metrics.Register(c.Obs)
	}
	return ownsTransport, nil
}

// Latency summarizes a set of durations.
type Latency struct {
	P50, P90, P99, Max, Mean time.Duration
}

func quantiles(ds []time.Duration) Latency {
	var l Latency
	if len(ds) == 0 {
		return l
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		// Ceiling index: pXX is an upper-bound order statistic, so small
		// samples report their tail instead of hiding it.
		return sorted[int(math.Ceil(q*float64(len(sorted)-1)))]
	}
	l.P50, l.P90, l.P99 = at(0.50), at(0.90), at(0.99)
	l.Max = sorted[len(sorted)-1]
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	l.Mean = sum / time.Duration(len(sorted))
	return l
}

func (l Latency) String() string {
	return fmt.Sprintf("p50 %v  p90 %v  p99 %v  max %v", l.P50.Round(time.Microsecond),
		l.P90.Round(time.Microsecond), l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond))
}

// Summary is the fleet run's measurement.
type Summary struct {
	Learners  int
	Completed int // sessions that reached an end
	Failed    int // learners that errored (fetch, play or telemetry)
	Steps     int // total policy steps taken

	Elapsed        time.Duration
	SessionsPerSec float64
	EventsPerSec   float64 // telemetry events ingested per wall second

	Fetch   netstream.Stats // cumulative package transfer cost
	Startup Latency         // time to a playable session (fetch + open)
	Session Latency         // play duration per learner
	Flush   Latency         // telemetry batch post latency (per batch mean per learner)

	EventsReported  int // events delivered to the telemetry service
	BatchesReported int
	Posts           int // HTTP posts incl. retries
	Retries         int // posts re-sent after load shedding

	// Reports holds each learner's local analytics digest, in learner
	// order — ground truth to verify the ingested aggregates against.
	Reports []*analytics.Report

	Errors []string // up to 8 sample error messages
}

// String renders the throughput/latency table the load-test CLI prints.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FLEET RUN — %d learners (%d completed, %d failed)\n", s.Learners, s.Completed, s.Failed)
	fmt.Fprintf(&b, "  wall time        : %v\n", s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput       : %.1f sessions/s, %.0f events/s ingested\n", s.SessionsPerSec, s.EventsPerSec)
	fmt.Fprintf(&b, "  startup latency  : %s\n", s.Startup)
	fmt.Fprintf(&b, "  session latency  : %s\n", s.Session)
	fmt.Fprintf(&b, "  batch post       : %s\n", s.Flush)
	fmt.Fprintf(&b, "  package transfer : %d requests, %d bytes, %d not-modified\n",
		s.Fetch.Requests, s.Fetch.BytesFetched, s.Fetch.NotModified)
	fmt.Fprintf(&b, "  telemetry        : %d events in %d batches over %d posts (%d retries)\n",
		s.EventsReported, s.BatchesReported, s.Posts, s.Retries)
	if len(s.Errors) > 0 {
		fmt.Fprintf(&b, "  errors           : %s\n", strings.Join(s.Errors, "; "))
	}
	return b.String()
}

// learnerOutcome is what one learner hands back to the aggregator.
type learnerOutcome struct {
	report  *analytics.Report
	stats   telemetry.ClientStats
	fetch   netstream.Stats
	startup time.Duration
	session time.Duration
	steps   int
	done    bool
	err     error
}

// Run drives the whole fleet and blocks until every learner finishes.
// Learner errors do not abort the run; they are counted and sampled in the
// summary. Run itself errors only on misconfiguration.
func Run(cfg Config) (*Summary, error) {
	ownsTransport, err := cfg.defaults()
	if err != nil {
		return nil, err
	}
	if ownsTransport {
		// Run created this transport; release its idle sockets on exit so
		// looped runs (benchmarks) do not pile up file descriptors.
		defer cfg.HTTP.CloseIdleConnections()
	}
	cache := netstream.NewPackageCache()
	pkgURL := cfg.ServerURL + "/pkg/" + cfg.Package
	// Prefetch once: warms the shared package/chunk cache (every learner
	// then revalidates the manifest with a 304 instead of re-shipping the
	// package, and after a course update the fleet transfers only changed
	// chunks) and yields the start scenario the server-side digests need.
	nc := &netstream.Client{HTTP: cfg.HTTP, Metrics: cfg.metrics}
	blob, prefetch, err := nc.DownloadDelta(pkgURL, cache)
	if err != nil {
		return nil, fmt.Errorf("fleet: prefetch %s: %w", pkgURL, err)
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: prefetched package: %w", err)
	}
	outcomes := make([]learnerOutcome, cfg.Learners)
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	began := time.Now()
	for i := 0; i < cfg.Learners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i] = runLearner(&cfg, i, pkgURL, pkg, cache)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(began)

	sum := &Summary{Learners: cfg.Learners, Elapsed: elapsed}
	sum.Fetch.Add(prefetch)
	var startups, sessions, flushes []time.Duration
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			sum.Failed++
			if len(sum.Errors) < 8 {
				sum.Errors = append(sum.Errors, fmt.Sprintf("learner %d: %v", i, o.err))
			}
			continue
		}
		if o.done {
			sum.Completed++
		}
		sum.Steps += o.steps
		sum.Fetch.Add(o.fetch)
		sum.EventsReported += o.stats.Events
		sum.BatchesReported += o.stats.Batches
		sum.Posts += o.stats.Posts
		sum.Retries += o.stats.Retries
		sum.Reports = append(sum.Reports, o.report)
		startups = append(startups, o.startup)
		sessions = append(sessions, o.session)
		if o.stats.Batches > 0 {
			flushes = append(flushes, o.stats.FlushTime/time.Duration(o.stats.Batches))
		}
	}
	sum.Startup = quantiles(startups)
	sum.Session = quantiles(sessions)
	sum.Flush = quantiles(flushes)
	if secs := elapsed.Seconds(); secs > 0 {
		sum.SessionsPerSec = float64(cfg.Learners-sum.Failed) / secs
		sum.EventsPerSec = float64(sum.EventsReported) / secs
	}
	return sum, nil
}

// runLearner plays one learner end to end: fetch, open (locally or on the
// play service), play, report.
func runLearner(cfg *Config, i int, pkgURL string, pkg *gamepack.Package, cache *netstream.PackageCache) learnerOutcome {
	var o learnerOutcome
	nc := &netstream.Client{HTTP: cfg.HTTP, Metrics: cfg.metrics}
	proj := pkg.Project
	start := proj.StartScenario

	startupBegan := time.Now()
	blob, st, err := nc.DownloadDelta(pkgURL, cache)
	if err != nil {
		o.err = fmt.Errorf("download: %w", err)
		return o
	}
	o.fetch.Add(st)

	tc, err := telemetry.NewClient(telemetry.ClientOptions{
		BaseURL:    cfg.ServerURL,
		Course:     cfg.Package,
		Session:    fmt.Sprintf("%s-%s-learner-%05d", cfg.Package, cfg.runID, i),
		Start:      start,
		FlushEvery: cfg.FlushEvery,
		Interval:   cfg.FlushInterval,
		HTTP:       cfg.HTTP,
	})
	if err != nil {
		o.err = err
		return o
	}

	simCfg := cfg.Sim
	simCfg.Seed = cfg.Sim.Seed + int64(i)*7919

	var res *sim.Result
	if cfg.Interactive {
		// Remote play: the session lives on the play service; the learner
		// drives it over the wire, and every server-emitted event flows
		// through the client into the collector, the telemetry batcher and
		// any caller-supplied observer — the same fan-out local mode gets.
		col := &analytics.Collector{}
		pc, dialErr := playsvc.Dial(playsvc.ClientOptions{
			BaseURL:     cfg.PlayURL,
			Course:      cfg.Package,
			Project:     proj,
			Observer:    sim.Observers(col, tc, cfg.Sim.Observer),
			HTTP:        cfg.HTTP,
			LocalMirror: cfg.PlayMirror,
			Pkg:         pkg,
		})
		if dialErr != nil {
			tc.Close()
			o.err = fmt.Errorf("play dial: %w", dialErr)
			return o
		}
		o.startup = time.Since(startupBegan)
		playBegan := time.Now()
		res, err = sim.RunGame(pc, cfg.Policy, simCfg, col)
		// Always leave: a failed run must not strand its hosted session on
		// the server until TTL eviction (or forever with eviction disabled).
		if closeErr := pc.Close(); err == nil {
			err = closeErr
		}
		o.session = time.Since(playBegan)
		if err == nil {
			// Re-digest after the leave: a mirror client may still hold
			// queued acts when RunGame takes its digest, and
			// the leave reply can carry an event tail no earlier reply
			// delivered. Both reach the collector only through Close, so
			// the post-Close digest is the complete one. (Local play has
			// no wire; its in-RunGame digest already saw everything, so
			// the two stay comparable.)
			res.Report = col.Digest(start)
		}
	} else {
		o.startup = time.Since(startupBegan)
		simCfg.Observer = tc
		playBegan := time.Now()
		res, err = sim.Run(blob, cfg.Policy, simCfg)
		o.session = time.Since(playBegan)
	}
	if err != nil {
		tc.Close()
		o.err = fmt.Errorf("session: %w", err)
		return o
	}
	if err := tc.Close(); err != nil {
		o.err = fmt.Errorf("telemetry: %w", err)
		return o
	}
	o.report = res.Report
	o.stats = tc.Stats()
	o.steps = res.Steps
	o.done = res.Completed
	return o
}
