package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config is one harness invocation's sizing.
type config struct {
	seed    int64
	clients int           // closed-loop client goroutines == pooled connections
	window  time.Duration // measured window per workload
	warm    time.Duration // warm-up before it
	setups  int           // set-ups per run; setup_s is their median
	probe   time.Duration // gateway probe window (traced play-thin)
	quick   bool          // smoke sizing: numbers are not comparable
	bin     string        // prebuilt vgbl-server ("" until a served workload needs it)
	outDir  string        // span files land here
}

// clientCount is min(CPUs the harness runs on, 4): learners wait for
// replies, so the load is a closed loop, and more clients than cores
// would only measure the scheduler. A confined harness (main.go) runs on
// one CPU, so it drives one client.
func clientCount() int { return min(runtime.GOMAXPROCS(0), 4) }

// worker is one closed-loop client: a goroutine, its timed HTTP client,
// its tracer and its samples.
type worker struct {
	hc *http.Client
	rt *timingRT
	tr *tracer
	s  samples
}

// newWorkers builds n workers over one shared connection pool. Each has
// its own timing transport wrapper so HTTP leaves land in the right
// learner's trace even when netstream issues them from helper goroutines.
func newWorkers(n int, pool http.RoundTripper, traced bool) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		tr := &tracer{on: traced}
		rt := &timingRT{base: pool, tr: tr, chunks: map[string]int64{}}
		ws[i] = &worker{hc: &http.Client{Transport: rt}, rt: rt, tr: tr}
	}
	return ws
}

// newPool is the shared transport: as many connections as clients, all
// kept alive.
func newPool(n int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n}
}

// routeTotals sums one route class across workers.
func routeTotals(ws []*worker, routes ...int) *routeStats {
	out := &routeStats{}
	for _, w := range ws {
		for _, r := range routes {
			out.add(&w.rt.routes[r])
		}
	}
	return out
}

// phase is one timed stretch of closed-loop load and what was read at
// its edges. Workers stop issuing at the deadline and finish the
// operation in hand, so both edges are quiescent and every count taken
// between them is exact.
type phase struct {
	workers   []*worker
	elapsed   time.Duration // start → last operation done, on the reference clock
	wall      time.Duration // the same stretch in wall time
	attempted int
	failed    int
	errs      []string // first few failures

	before, after                scrape // nil when no server
	serverCPU, clientCPU         time.Duration
	haveServerCPU, haveClientCPU bool
}

// edges are the hooks a served phase reads the server through; a nil
// *server (publish) skips them.
type edges struct {
	srv *server
	// ref, when set, is the exchange reference the clock follows during
	// the phase, fed between operations.
	ref *refExchange
	// settle runs after the last operation and before the closing
	// reads: play workloads drain telemetry there.
	settle func() error
}

// runPhase drives op from every worker until d has elapsed. Operation
// indexes come from one counter starting at first, so the set of
// learners a window covers does not depend on which worker ran which.
func runPhase(ws []*worker, d time.Duration, first int64, e edges, op func(w *worker, i int64) error) (*phase, error) {
	p := &phase{workers: ws}
	var err error
	if e.srv != nil {
		if p.before, err = e.srv.scrape(); err != nil {
			return nil, err
		}
	}
	if e.ref != nil {
		if err := clock.follow(e.ref); err != nil {
			return nil, fmt.Errorf("exchange reference: %w", err)
		}
		defer clock.follow(nil)
	}
	var srvCPU0 time.Duration
	if e.srv != nil {
		srvCPU0, p.haveServerCPU = procCPU(e.srv.pid)
	}
	selfCPU0, haveSelf := selfCPU()
	p.haveClientCPU = haveSelf

	next := atomic.Int64{}
	next.Store(first)
	var mu sync.Mutex
	var wg sync.WaitGroup
	began, beganRef := time.Now(), now()
	for k, w := range ws {
		wg.Add(1)
		go func(w *worker, feeds bool) {
			defer wg.Done()
			fed := time.Now()
			for time.Since(began) < d {
				i := next.Add(1) - 1
				w.tr.setTrace(i)
				err := op(w, i)
				// The exchange reference wants the CPU to itself: the
				// first worker runs it between its own operations.
				if feeds && err == nil && time.Since(fed) >= refEvery {
					if err = clock.feed(e.ref.run, refExchangeNominal, true); err != nil {
						err = fmt.Errorf("exchange reference: %w", err)
					}
					fed = time.Now()
				}
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				}
				mu.Unlock()
			}
		}(w, k == 0 && e.ref != nil)
	}
	wg.Wait()
	p.elapsed, p.wall = since(beganRef), time.Since(began)

	if e.settle != nil {
		if err := e.settle(); err != nil {
			return nil, err
		}
	}
	if haveSelf {
		now, _ := selfCPU()
		p.clientCPU = now - selfCPU0
	}
	if e.srv != nil {
		if p.haveServerCPU {
			now, ok := procCPU(e.srv.pid)
			p.haveServerCPU = ok
			p.serverCPU = now - srvCPU0
		}
		if p.after, err = e.srv.scrape(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runWindows is the sequence every workload measures with: a warm-up
// (skipped when warm is 0), on a traced run an untraced reference window
// a third as long as the real one — what harness.trace_overhead_ratio
// compares against — and then the window itself, whose learner indexes
// start at 0. beforeWindow runs at the last quiescent moment before the
// window, to reset per-window counts.
func runWindows(cfg *config, r *result, clients int, pool http.RoundTripper, warm time.Duration, traced bool, e edges,
	op func(w *worker, i int64) error, beforeWindow func()) (ref, win *phase, err error) {
	if warm > 0 {
		p, err := runPhase(newWorkers(clients, pool, false), warm, warmFirst, e, op)
		if err != nil {
			return nil, nil, err
		}
		r.absorb(p)
	}
	if traced {
		if ref, err = runPhase(newWorkers(clients, pool, false), cfg.window/3, refFirst, e, op); err != nil {
			return nil, nil, err
		}
		r.absorb(ref)
	}
	beforeWindow()
	if win, err = runPhase(newWorkers(clients, pool, traced), cfg.window, 0, e, op); err != nil {
		return nil, nil, err
	}
	r.absorb(win)
	return ref, win, nil
}

// ops is the number of operations that completed without failing.
func (p *phase) ops() int { return p.attempted - p.failed }

func (p *phase) opsPerSecond() float64 { return float64(p.ops()) / p.elapsed.Seconds() }

// p50 and p90 are quantiles of one sample kind over the phase's workers.
func (p *phase) p50(k sample) time.Duration { return quantile(merged(p.workers, k), 0.5) }
func (p *phase) p90(k sample) time.Duration { return quantile(merged(p.workers, k), 0.9) }

// speed is the reference clock's mean rate over the phase: below 1, the
// host ran slower than the reference speed.
func (p *phase) speed() float64 { return ratio(float64(p.elapsed), float64(p.wall)) }

// span describes the phase's length on both clocks, for the run's notes.
func (p *phase) span() string {
	return fmt.Sprintf("%.2fs wall = %.2fs at the reference speed (host at %.3f of it; wall figures are the reported ones ÷ that)", p.wall.Seconds(), p.elapsed.Seconds(), p.speed())
}

// perOp spreads a CPU delta over the phase's operations, in ms at the
// reference speed.
func (p *phase) perOp(cpu time.Duration) float64 {
	if p.ops() == 0 {
		return 0
	}
	return ms(cpu) * p.speed() / float64(p.ops())
}

// served is a started server with the three course packages prefetched
// and opened — the state setup_s times the way to.
type served struct {
	srv   *server
	pool  *http.Transport
	blobs [len(courseNames)][]byte
	pkgs  [len(courseNames)]*pkg

	setup   time.Duration // median exec → packages opened
	publish time.Duration // median exec → listen line: the server publishing three ladders
}

func (s *served) close() {
	s.pool.CloseIdleConnections()
	s.srv.stop()
}

func (s *served) pkgURL(c int) string { return s.srv.base + "/pkg/" + courseNames[c] }

// setupServed execs the server cfg.setups times and keeps the last one.
// Each set-up runs exec → /healthz 200 → every course prefetched
// (DownloadDelta into a fresh cache) and opened.
func setupServed(cfg *config, extra ...string) (*served, error) {
	var setups, publishes []time.Duration
	var out *served
	for k := 0; k < cfg.setups; k++ {
		if out != nil {
			out.close()
		}
		srv, err := startServer(cfg.bin, extra...)
		if err != nil {
			return nil, err
		}
		out = &served{srv: srv, pool: newPool(cfg.clients)}
		hc := &http.Client{Transport: out.pool}
		cache := newPackageCache()
		for c := range courseNames {
			blob, _, err := downloadDelta(hc, out.pkgURL(c), cache)
			if err == nil {
				out.blobs[c] = blob
				out.pkgs[c], err = openPackage(blob)
			}
			if err != nil {
				out.close()
				return nil, fmt.Errorf("prefetch %s: %w\nserver stderr:\n%s", courseNames[c], err, srv.stderr)
			}
		}
		setups = append(setups, since(srv.execAt))
		publishes = append(publishes, srv.listenAt.sub(srv.execAt))
	}
	out.setup = quantile(setups, 0.5)
	out.publish = quantile(publishes, 0.5)
	return out, nil
}

// result is one run of one workload: what the contract's last line and
// the results file carry.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	Metrics   metrics `json:"metrics"`
	// Notes are the lines a reader wants beside the numbers: sample
	// counts, ledger identities, omitted metrics.
	Notes []string `json:"notes,omitempty"`
	// Ledger is a traced run's identity: the end-to-end total and what
	// the layers leave unexplained.
	Ledger *ledger `json:"ledger,omitempty"`

	failures []string // correctness failures; non-empty ⇒ non-zero exit
	stderr   string   // the child's stderr, printed with the failures
	omitted  []string // metrics this platform cannot read (no /proc)
}

// ledger is one identity's bottom line, in the total's unit.
type ledger struct {
	Total     float64 `json:"total"`
	Remainder float64 `json:"remainder"`
}

// omit states that a metric cannot be read here and leaves it out.
func (r *result) omit(why string, names ...string) {
	r.omitted = append(r.omitted, names...)
	r.note("omitted (%s): %v", why, names)
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failure unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// absorb folds a phase's operation counts and failures into the result.
func (r *result) absorb(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, e := range p.errs {
		r.fail("%s", e)
	}
}

func (m metrics) set(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }
