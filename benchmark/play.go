package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Learner index ranges. The window always starts at learner 0, so the
// learners a window covers — and the 50 whose digests are replayed — do
// not depend on how many the warm-up got through.
const (
	warmFirst  = int64(1) << 40
	refFirst   = int64(1) << 41 // untraced reference window of a traced run
	probeFirst = int64(1) << 42 // gateway probe
	replayed   = 50             // learners whose digests are diffed against a local replay
)

// playRun is one play-thin or play-mirror run against one server.
type playRun struct {
	cfg    *config
	sv     *served
	mirror bool

	mu      sync.Mutex
	dialed  int               // sessions created on the server, all phases
	events  int               // telemetry events the clients report delivered, all phases
	win     playCounts        // the current phase only
	reports map[int64]*report // window learners below `replayed`
}

// playCounts are the per-phase client-side counts the layer ratios use.
type playCounts struct {
	sessions int // sessions completed
	acts     int // act calls issued, leaves included
	events   int // telemetry events the clients report delivered
	batches  int
	posts    int
}

// learner plays one session: Dial → guided policy → Close → telemetry
// closed. Timings go to the worker's samples only when the session
// succeeds.
func (pr *playRun) learner(w *worker, i int64) error {
	c := int(i % int64(len(courseNames)))
	p := pr.sv.pkgs[c]
	base := pr.sv.srv.base
	root := w.tr.begin("learner.session")
	defer w.tr.end(root)

	tc, err := newTelemetry(base, courseNames[c], fmt.Sprintf("bench-%d", i), p, w.hc)
	if err != nil {
		return err
	}
	col := &collector{}
	obs := teeObservers(col, timedObserver{tc, w.tr})

	began := now()
	sp := w.tr.begin("playsvc.Dial")
	pc, err := dialPlay(base, courseNames[c], p, obs, w.hc, pr.mirror)
	w.tr.end(sp)
	dial := since(began)
	if err != nil {
		closeTelemetry(tc)
		return fmt.Errorf("dial: %w", err)
	}
	pr.mu.Lock()
	pr.dialed++
	pr.mu.Unlock()

	g := newTimedGame(pc, w, began)
	sp = w.tr.begin("sim.RunGame")
	playBegan := now()
	err = runGame(g, pr.cfg.seed+7919*i, col)
	g.finish()
	w.tr.end(sp)
	played := since(playBegan)

	// Always leave: a failed run must not strand its hosted session.
	sp = w.tr.begin("playsvc.Close")
	closeBegan := now()
	closeErr := closePlay(pc)
	w.tr.end(sp)
	closed := since(closeBegan)
	session := since(began)
	if err == nil {
		err = closeErr
	}
	if err != nil {
		closeTelemetry(tc)
		return fmt.Errorf("session: %w", err)
	}
	// Digest after the leave: a mirror client still holds buffered acts
	// when the policy stops, and their events arrive only through Close.
	rep := digest(col, p)

	sp = w.tr.begin("telemetry.Close")
	events, batches, posts, err := closeTelemetry(tc)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}

	w.add(sDial, dial)
	w.add(sCourse, played)
	w.add(sResync, closed)
	w.add(sSession, session)
	if g.firstFrame > 0 {
		w.add(sStartup, g.firstFrame)
	}
	pr.mu.Lock()
	pr.events += events
	pr.win.sessions++
	pr.win.acts += g.acts + 1 // the leave is an act too
	pr.win.events += events
	pr.win.batches += batches
	pr.win.posts += posts
	if i < replayed {
		pr.reports[i] = rep
	}
	pr.mu.Unlock()
	return nil
}

// runPlay runs play-thin (mirror false) or play-mirror.
func runPlay(cfg *config, name string, mirror, traced bool) (*result, error) {
	r := &result{Workload: name, Seed: cfg.seed, Traced: traced, Metrics: metrics{}}
	sv, err := setupServed(cfg, "-ladder")
	if err != nil {
		return nil, err
	}
	defer sv.close()
	defer func() { r.stderr = sv.srv.stderr.String() }()
	pr := &playRun{cfg: cfg, sv: sv, mirror: mirror, reports: map[int64]*report{}}

	var drained telemetrySnapshot
	var drain time.Duration
	e := edges{srv: sv.srv, settle: func() (err error) {
		drain, drained, err = sv.srv.drainTelemetry()
		return err
	}}
	if !mirror {
		// A thin client's session is request/response exchanges end to
		// end: it is timed against the exchange reference. The mirror's
		// is its replica's computing, like the other workloads'.
		echo, ref, err := startEcho()
		if err != nil {
			return nil, err
		}
		defer echo.stop()
		e.ref = ref
	}
	eventsBefore := 0
	ref, win, err := runWindows(cfg, r, cfg.clients, sv.pool, cfg.warm, traced, e, pr.learner, func() {
		eventsBefore = drained.events()
		pr.win = playCounts{}
	})
	if err != nil {
		return nil, err
	}

	pr.checks(r, win, drained.events())

	e2e := metrics{}
	playEndToEnd(e2e, r, sv, win)
	if !traced {
		r.Metrics = e2e
		return r, nil
	}

	// Traced run: the window above carried the spans.
	spans, err := writeSpans(spanPath(cfg, name), win.workers)
	if err != nil {
		return nil, err
	}
	r.note("%d spans written to %s", spans, spanPath(cfg, name))
	m := r.Metrics
	pr.layers(m, r, win, drain, float64(drained.events()-eventsBefore))
	m.set("harness.trace_overhead_ratio", ref.opsPerSecond()/win.opsPerSecond(), "ratio")
	r.note("trace overhead: %.1f sessions/s untraced (%d sessions) vs %.1f traced", ref.opsPerSecond(), ref.ops(), win.opsPerSecond())

	if !mirror {
		hop, err := gatewayProbe(cfg, r, e.ref, ref.p50(sAct))
		if err != nil {
			return nil, err
		}
		m.set("playsvc.gateway_hop_us", hop, "us")
	}
	local, err := publishSplit(demoCourses())
	if err != nil {
		return nil, err
	}
	if err := layerProbes(m, r, local, local.steps, cfg.seed); err != nil {
		return nil, err
	}
	if mirror {
		// The act identity is play-thin's: a mirror act is answered by
		// the replica and its requests are batches, so there is nothing
		// to add up per act.
		r.note("play-mirror: act_p50_us %.2f is the replica step (playsvc.client_self_us %.2f); batches of %.1f acts cost playsvc.act_rtt_us %.1f each and surface in session_p50_ms %.2f through Close (playsvc.close_us %.1f)",
			e2e["act_p50_us"].Value, m["playsvc.client_self_us"].Value, m["playsvc.acts_per_request"].Value, m["playsvc.act_rtt_us"].Value, e2e["session_p50_ms"].Value, m["playsvc.close_us"].Value)
		return r, nil
	}
	playLedger(r, m, e2e)
	return r, nil
}

// checks are the play workloads' correctness checks; they cover every
// phase run on this server.
func (pr *playRun) checks(r *result, win *phase, ingested int) {
	// Every session the harness created was closed, and nothing else
	// was ever created.
	ps, err := pr.sv.srv.playStats()
	if err != nil {
		r.fail("/play/stats: %v", err)
	} else {
		r.check(ps.Created == int64(pr.dialed) && ps.Closed == int64(pr.dialed),
			"/play/stats: created %d, closed %d, harness dialed %d", ps.Created, ps.Closed, pr.dialed)
	}
	// Telemetry is exactly-once: after the drain the server has folded
	// as many events as the clients report delivered.
	r.check(ingested == pr.events, "/telemetry/stats holds %d events, clients delivered %d", ingested, pr.events)
	// The first learners' digests equal a local replay of their seeds.
	n := 0
	for i := int64(0); i < replayed; i++ {
		got, ok := pr.reports[i]
		if !ok {
			continue
		}
		want, err := runLocal(pr.sv.blobs[i%int64(len(courseNames))], pr.cfg.seed+7919*i)
		if err != nil {
			r.fail("local replay of learner %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			r.fail("learner %d: remote digest differs from the local replay\nremote: %v\nlocal:  %v", i, got, want)
		}
		n++
	}
	r.check(n > 0 || win.ops() == 0, "no learner digest was replayed")
	r.note("%d learner digests equal their local replay", n)
}

// playEndToEnd fills the 13 end-to-end metrics from a play window. The
// stream- and publish-native names carry the closest thing a play
// learner sees (README: "readings on other workloads").
func playEndToEnd(m metrics, r *result, sv *served, win *phase) {
	ws := win.workers
	m.set("setup_s", sv.setup.Seconds(), "s")
	m.set("sessions_per_s", win.opsPerSecond(), "1/s")
	m.set("act_p50_us", us(win.p50(sAct)), "us")
	m.set("act_p90_us", us(win.p90(sAct)), "us")
	m.set("frame_p50_us", us(win.p50(sFrame)), "us")
	m.set("session_p50_ms", ms(win.p50(sSession)), "ms")
	m.set("startup_p50_ms", ms(win.p50(sStartup)), "ms")
	m.set("course_p50_ms", ms(win.p50(sCourse)), "ms")
	m.set("resync_p50_us", us(win.p50(sResync)), "us")
	m.set("publish_p50_ms", ms(sv.publish), "ms")
	servedCosts(m, r, sv, win)
	r.note("window %s: %d sessions, %d acts, %d frames", win.span(), win.ops(), len(merged(ws, sAct)), len(merged(ws, sFrame)))
}

// servedCosts fills the CPU and memory metrics of a served workload.
func servedCosts(m metrics, r *result, sv *served, win *phase) {
	if win.haveServerCPU {
		m.set("server_cpu_ms_per_op", win.perOp(win.serverCPU), "ms")
	} else {
		r.omit("no /proc/<pid>/stat on this platform", "server_cpu_ms_per_op")
	}
	if win.haveClientCPU {
		m.set("client_cpu_ms_per_op", win.perOp(win.clientCPU), "ms")
	} else {
		r.omit("no getrusage on this platform", "client_cpu_ms_per_op")
	}
	if rss, ok := procPeakRSS(sv.srv.pid); ok {
		m.set("peak_rss_mb", rss, "MB")
	} else {
		r.omit("no /proc/<pid>/status on this platform", "peak_rss_mb")
	}
}

// actSpan matches the spans of act calls (not Dial, Close or Watch).
func actSpan(name string) bool {
	switch name {
	case "playsvc.Click", "playsvc.Examine", "playsvc.Talk", "playsvc.Take", "playsvc.UseItemOn",
		"playsvc.SelectItem", "playsvc.GotoScenario", "playsvc.AnswerQuiz", "playsvc.Advance":
		return true
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers fills the playsvc and telemetry layer metrics from a traced
// window.
func (pr *playRun) layers(m metrics, r *result, win *phase, drain time.Duration, ingested float64) {
	ws := win.workers
	n := pr.win
	sessions := float64(n.sessions)
	act := routeTotals(ws, rPlayAct)
	frame := routeTotals(ws, rPlayFrame)
	play := routeTotals(ws, rPlayAct, rPlayFrame, rPlayOther)
	tel := routeTotals(ws, rTelemetry)
	acts := merged(ws, sAct)

	rtt := us(quantile(act.rtts, 0.5))
	// The server's own histograms are in its wall time: scale them.
	handler := histMeanUS(win.before, win.after, "playsvc_act_seconds", "") * win.speed()
	m.set("playsvc.act_rtt_us", rtt, "us")
	m.set("playsvc.handler_us", handler, "us")
	m.set("playsvc.transport_us", rtt-handler, "us")
	m.set("playsvc.client_self_us", us(quantile(byName(ws, actSpan).self, 0.5)), "us")
	m.set("playsvc.acts_per_request", ratio(float64(n.acts), float64(act.requests)), "count")
	m.set("playsvc.requests_per_session", ratio(float64(play.requests), sessions), "count")
	m.set("playsvc.req_bytes_per_act", ratio(float64(act.reqBytes), float64(n.acts)), "bytes")
	m.set("playsvc.reply_bytes_per_act", ratio(float64(act.respBytes), float64(n.acts)), "bytes")
	m.set("playsvc.dial_us", us(win.p50(sDial)), "us")
	m.set("playsvc.close_us", us(win.p50(sResync)), "us")
	m.set("playsvc.frame_rtt_us", us(quantile(frame.rtts, 0.5)), "us")
	m.set("playsvc.frame_handler_us", histMeanUS(win.before, win.after, "playsvc_frame_seconds", "")*win.speed(), "us")
	m.set("playsvc.frame_bytes", ratio(float64(frame.respBytes), float64(frame.requests)), "bytes")
	hits := delta(win.before, win.after, "playsvc_framecache_hits_total")
	misses := delta(win.before, win.after, "playsvc_framecache_misses_total")
	m.set("playsvc.framecache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("playsvc.retry_ratio", ratio(float64(play.resent), float64(play.requests)), "ratio")
	m.set("playsvc.act_p99_us", us(quantile(acts, 0.99)), "us")
	m.set("playsvc.act_p999_us", us(quantile(acts, 0.999)), "us")
	r.note("act tail: p99 and p99.9 over %d act calls", len(acts))

	m.set("telemetry.flush_us", us(quantile(tel.rtts, 0.5)), "us")
	m.set("telemetry.batches_per_session", ratio(float64(n.batches), sessions), "count")
	m.set("telemetry.bytes_per_event", ratio(float64(tel.reqBytes), float64(n.events)), "bytes")
	m.set("telemetry.retry_ratio", ratio(float64(n.posts-n.batches), float64(n.posts)), "ratio")
	m.set("telemetry.drain_ms", ms(drain), "ms")
	m.set("telemetry.ingested_events_per_s", ingested/win.elapsed.Seconds(), "1/s")
	applied := delta(win.before, win.after, "telemetry_batches_applied_total")
	r.check(applied == float64(n.batches), "server applied %v telemetry batches in the window, clients delivered %d", applied, n.batches)
}

// playLedger prints the act identity: what the policy waits for on one
// act against what the layers account for.
func playLedger(r *result, m, e2e metrics) {
	total := e2e["act_p50_us"].Value
	self, transport, handler := m["playsvc.client_self_us"].Value, m["playsvc.transport_us"].Value, m["playsvc.handler_us"].Value
	rest := total - self - transport - handler
	r.note("ledger %s: where the act goes — act_p50_us %.1f = client_self %.1f + transport %.1f + handler %.1f + unexplained %.1f (%.0f%%); runtime.call_us %.2f is the floor inside handler; a flushing act adds telemetry.flush_us %.1f",
		r.Workload, total, self, transport, handler, rest, 100*ratio(rest, total), m["runtime.call_us"].Value, m["telemetry.flush_us"].Value)
	r.Ledger = &ledger{Total: total, Remainder: rest}
}

// gatewayProbe runs a short untraced play-thin load against a second
// child started with -cluster 1 (one node behind the gateway) and
// returns how much longer the median act takes there than direct.
func gatewayProbe(cfg *config, r *result, ref *refExchange, directP50 time.Duration) (float64, error) {
	one := *cfg
	one.setups = 1
	sv, err := setupServed(&one, "-ladder", "-cluster", "1")
	if err != nil {
		return 0, fmt.Errorf("gateway probe: %w", err)
	}
	defer sv.close()
	pr := &playRun{cfg: cfg, sv: sv, reports: map[int64]*report{}}
	e := edges{srv: sv.srv, ref: ref, settle: func() error {
		_, _, err := sv.srv.drainTelemetry()
		return err
	}}
	p, err := runPhase(newWorkers(cfg.clients, sv.pool, false), cfg.probe, probeFirst, e, pr.learner)
	if err != nil {
		return 0, fmt.Errorf("gateway probe: %w", err)
	}
	r.absorb(p)
	via := p.p50(sAct)
	r.note("gateway probe: act p50 %.1f us through a 1-node gateway (%d sessions) vs %.1f us direct", us(via), p.ops(), us(directP50))
	return us(via - directP50), nil
}
