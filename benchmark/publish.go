package main

import (
	"fmt"
	"os"
	"reflect"
	"time"
)

// previewFrames is how many frames of each rebuilt course the check
// decodes: an author's preview of what was just published.
const previewFrames = 8

// publishRun is one publish run: in-process, one worker, no server.
type publishRun struct {
	courses [len(courseNames)]*course
	split   bool // time record / build / deposit apart (traced)

	first [len(courseNames)]*manifest // round one's manifests; every later round must equal them
	last  *reference                  // the latest split round, for the layer probes
}

// round publishes the three courses into one fresh in-memory store,
// then proves the store holds what was published: each package is
// reassembled from its manifest, opened and its first frames decoded.
func (pu *publishRun) round(w *worker, i int64) error {
	root := w.tr.begin("publish.round")
	defer w.tr.end(root)
	began := now()
	var mans [len(courseNames)]*manifest
	var st *store
	var perCourse [len(courseNames)]time.Duration
	if pu.split {
		ref, err := pu.splitRound(w, &perCourse)
		if err != nil {
			return err
		}
		mans, st, pu.last = ref.mans, ref.store, ref
	} else {
		var err error
		if st, err = newStore(); err != nil {
			return err
		}
		for c, co := range pu.courses {
			t0 := now()
			if mans[c], err = publishLadder(co, st); err != nil {
				return fmt.Errorf("publish %s: %w", courseNames[c], err)
			}
			perCourse[c] = since(t0)
		}
	}
	published := since(began)

	sp := w.tr.begin("publish.verify")
	verifyBegan := now()
	for c := range pu.courses {
		if pu.first[c] == nil {
			pu.first[c] = mans[c]
		} else if !reflect.DeepEqual(pu.first[c], mans[c]) {
			return fmt.Errorf("%s: manifest differs from the first round's", courseNames[c])
		}
		t0 := now()
		blob, err := assemble(mans[c], st)
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", courseNames[c], err)
		}
		p, err := openPackage(blob)
		if err != nil {
			return fmt.Errorf("rebuilt %s does not open: %w", courseNames[c], err)
		}
		v, err := openVideo(p.Video)
		if err != nil {
			return err
		}
		for f := 0; f < previewFrames; f++ {
			t1 := now()
			if _, err := v.framePix(f); err != nil {
				return fmt.Errorf("rebuilt %s frame %d: %w", courseNames[c], f, err)
			}
			w.add(sFrame, since(t1))
		}
		w.add(sCourse, perCourse[c]+since(t0))
	}
	w.tr.end(sp)
	w.add(sResync, since(verifyBegan))

	w.add(sPublish, published)
	w.add(sSession, since(began))
	w.add(sStartup, perCourse[0])
	for c := range pu.courses {
		w.add(sAct, perCourse[c])
	}
	return nil
}

// splitRound is publishSplit with a span per step.
func (pu *publishRun) splitRound(w *worker, perCourse *[len(courseNames)]time.Duration) (*reference, error) {
	st, err := newStore()
	if err != nil {
		return nil, err
	}
	ref := &reference{courses: pu.courses, store: st}
	for c, co := range pu.courses {
		t0 := now()
		sp := w.tr.begin("studio.record")
		ref.videos[c], err = recordLadder(co)
		w.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t1 := now()
		sp = w.tr.begin("gamepack.build")
		ref.blobs[c], err = buildLadder(co, ref.videos[c])
		w.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t2 := now()
		sp = w.tr.begin("gamepack.deposit")
		ref.mans[c], err = depositChunks(ref.blobs[c], st)
		w.tr.end(sp)
		if err != nil {
			return nil, err
		}
		t3 := now()
		ref.steps.record += t1.sub(t0)
		ref.steps.build += t2.sub(t1)
		ref.steps.deposit += t3.sub(t2)
		perCourse[c] = t3.sub(t0)
	}
	w.add(sRecord, ref.steps.record)
	w.add(sBuild, ref.steps.build)
	w.add(sDeposit, ref.steps.deposit)
	return ref, nil
}

func runPublish(cfg *config, traced bool) (*result, error) {
	r := &result{Workload: "publish", Seed: cfg.seed, Traced: traced, Metrics: metrics{}}

	// Set-up is the harness's preparation: build the three courses and
	// publish them once into a throwaway store. Repeating it is also
	// the warm-up.
	var setups []time.Duration
	var pu *publishRun
	for k := 0; k < cfg.setups; k++ {
		t0 := now()
		pu = &publishRun{courses: demoCourses()}
		if err := pu.round(probeWorker(), 0); err != nil {
			return nil, fmt.Errorf("set-up round: %w", err)
		}
		setups = append(setups, since(t0))
	}
	// The set-up rounds were the warm-up. A traced window times the
	// steps of each round apart.
	ref, win, err := runWindows(cfg, r, 1, nil, 0, traced, edges{}, pu.round, func() { pu.split = traced })
	if err != nil {
		return nil, err
	}
	r.note("manifests identical over %d rounds; every rebuilt package opened and decoded", 1+r.Attempted)

	e2e := metrics{}
	ws := win.workers
	e2e.set("setup_s", quantile(setups, 0.5).Seconds(), "s")
	e2e.set("sessions_per_s", win.opsPerSecond(), "1/s")
	e2e.set("act_p50_us", us(win.p50(sAct)), "us")
	e2e.set("act_p90_us", us(win.p90(sAct)), "us")
	e2e.set("frame_p50_us", us(win.p50(sFrame)), "us")
	e2e.set("session_p50_ms", ms(win.p50(sSession)), "ms")
	e2e.set("startup_p50_ms", ms(win.p50(sStartup)), "ms")
	e2e.set("course_p50_ms", ms(win.p50(sCourse)), "ms")
	e2e.set("resync_p50_us", us(win.p50(sResync)), "us")
	e2e.set("publish_p50_ms", ms(win.p50(sPublish)), "ms")
	// The process under test is the harness itself: it is both the
	// "server" and the client of this workload.
	if win.haveClientCPU {
		e2e.set("server_cpu_ms_per_op", win.perOp(win.clientCPU), "ms")
		e2e.set("client_cpu_ms_per_op", win.perOp(win.clientCPU), "ms")
	} else {
		r.omit("no getrusage on this platform", "server_cpu_ms_per_op", "client_cpu_ms_per_op")
	}
	if rss, ok := procPeakRSS(os.Getpid()); ok {
		e2e.set("peak_rss_mb", rss, "MB")
	} else {
		r.omit("no /proc/<pid>/status on this platform", "peak_rss_mb")
	}
	r.note("window %s: %d rounds of three courses", win.span(), win.ops())
	if !traced {
		r.Metrics = e2e
		return r, nil
	}

	spans, err := writeSpans(spanPath(cfg, "publish"), ws)
	if err != nil {
		return nil, err
	}
	r.note("%d spans written to %s", spans, spanPath(cfg, "publish"))
	m := r.Metrics
	if pu.last == nil {
		return nil, fmt.Errorf("traced publish window completed no round")
	}
	// On this workload the step metrics are medians over the window's
	// rounds, not one probe round.
	steps := publishSteps{win.p50(sRecord), win.p50(sBuild), win.p50(sDeposit)}
	if err := layerProbes(m, r, pu.last, steps, cfg.seed); err != nil {
		return nil, err
	}
	record, build, deposit := steps.record, steps.build, steps.deposit
	refRound, round := ref.p50(sPublish), win.p50(sPublish)
	m.set("harness.trace_overhead_ratio", ratio(float64(round), float64(refRound)), "ratio")
	r.note("trace overhead: round p50 %.1f ms untraced (%d rounds) vs %.1f ms traced and split", ms(refRound), ref.ops(), ms(round))

	total := e2e["publish_p50_ms"].Value
	rest := total - ms(record) - ms(build) - ms(deposit)
	r.note("ledger publish: publish_p50_ms %.1f = studio.record %.1f + gamepack.build %.1f + gamepack.deposit %.1f + unexplained %.1f (%.0f%%)",
		total, ms(record), ms(build), ms(deposit), rest, 100*ratio(rest, total))
	r.Ledger = &ledger{Total: total, Remainder: rest}
	return r, nil
}
