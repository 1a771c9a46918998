package experiments

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// E10 measures the networked-classroom deployment under load: fleets of
// concurrent simulated learners fetch the classroom package from a live
// netstream server (ETag-revalidated after the first download), play it,
// and report events through the batching telemetry client. Each row checks
// that the ingested course totals exactly equal the sum of the local
// per-session reports — aggregation must stay lossless under concurrency.
func E10(learners int) (string, error) {
	if learners <= 0 {
		learners = 200
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E10 — learner-fleet load: concurrent sessions vs one ingest service\n")
	fmt.Fprintf(&b, "classroom package (%d KB) over loopback HTTP; guided policy, 12 steps;\n", len(blob)/1024)
	b.WriteString("telemetry batches of 8 events, 8 ingest workers, queue depth 256\n\n")
	b.WriteString("  learners | sessions/s | events/s | startup p90 | batch p90 | KB sent | 304s | ingest totals\n")
	b.WriteString("  ---------+------------+----------+-------------+-----------+---------+------+--------------\n")

	sweep := []int{learners / 10, learners / 2, learners}
	for _, n := range sweep {
		if n <= 0 {
			continue
		}
		row, err := e10Row(blob, n)
		if err != nil {
			return "", err
		}
		b.WriteString(row)
	}
	b.WriteString("\nshape check: throughput grows with fleet size until the host saturates;\n")
	b.WriteString("transfer stays ~one package total thanks to 304 revalidation; every row\n")
	b.WriteString("must report exact ingest totals — the aggregation pipeline drops nothing.\n")
	return b.String(), nil
}

func e10Row(blob []byte, learners int) (string, error) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		return "", err
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	if err := srv.Mount("/telemetry/", svc.Handler()); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()

	sum, err := fleet.Run(fleet.Config{
		ServerURL:   "http://" + ln.Addr().String(),
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30},
		FlushEvery:  8,
	})
	if err != nil {
		return "", err
	}
	if sum.Failed > 0 {
		return "", fmt.Errorf("e10: %d learners failed: %v", sum.Failed, sum.Errors)
	}
	var want analytics.Rolling
	for _, r := range sum.Reports {
		want.Add(r)
	}
	cs := svc.Store().Snapshot()["classroom"]
	match := "exact"
	if cs.SessionsEnded != learners || cs.Events != want.Events ||
		cs.Decisions != want.Decisions || cs.Knowledge != want.Knowledge ||
		cs.Rewards != want.Rewards || cs.Completed != want.Completed {
		match = "MISMATCH"
	}
	return fmt.Sprintf("  %8d | %10.1f | %8.0f | %11v | %9v | %7.1f | %4d | %s\n",
		learners, sum.SessionsPerSec, sum.EventsPerSec,
		sum.Startup.P90.Round(time.Microsecond), sum.Flush.P90.Round(time.Microsecond),
		float64(sum.Fetch.BytesFetched)/1024, sum.Fetch.NotModified, match), nil
}

// E12 compares the two fleet deployment shapes at equal sizes: local
// simulation (PR 1's mode — every learner hosts its own runtime, the
// server only ships packages and ingests telemetry) versus remote play
// (the play service hosts every session server-side and each interaction
// is an HTTP act). Both modes must deliver identical aggregate learning
// outcomes — hosting is a deployment choice, not a pedagogy change — while
// the throughput columns show what moving the runtime to the server costs.
func E12(learners int) (string, error) {
	if learners <= 0 {
		learners = 200
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E12 — fleet deployment shapes: local simulation vs server-hosted play\n")
	fmt.Fprintf(&b, "classroom package over loopback HTTP; guided policy, 12 steps, seed-locked;\n")
	b.WriteString("remote learners fetch a rendered frame every 4 steps\n\n")
	b.WriteString("  mode        | learners | sessions/s | events/s | session p90 | acts | frames | outcomes\n")
	b.WriteString("  ------------+----------+------------+----------+-------------+------+--------+---------\n")

	sweep := []int{learners / 4, learners}
	var prev *analytics.Rolling
	for _, n := range sweep {
		if n <= 0 {
			continue
		}
		for _, interactive := range []bool{false, true} {
			row, agg, err := e12Row(blob, n, interactive)
			if err != nil {
				return "", err
			}
			match := "—"
			if interactive {
				match = "= local"
				if prev == nil || prev.Events != agg.Events || prev.Knowledge != agg.Knowledge ||
					prev.Completed != agg.Completed || prev.QuizCorrect != agg.QuizCorrect {
					match = "DIVERGED"
				}
			}
			fmt.Fprintf(&b, "%s | %s\n", row, match)
			prev = agg
		}
	}
	b.WriteString("\nshape check: identical outcome columns (same seeds ⇒ same learning, by\n")
	b.WriteString("the golden-replay guarantee); remote throughput is bounded by per-act\n")
	b.WriteString("round trips, which is the price of thin clients — the server's frame\n")
	b.WriteString("path stays allocation-free (BenchmarkPlaysvcAct/frame), so capacity\n")
	b.WriteString("scales with sessions, not with garbage.\n")
	return b.String(), nil
}

func e12Row(blob []byte, learners int, interactive bool) (string, *analytics.Rolling, error) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		return "", nil, err
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	if err := srv.Mount("/telemetry/", svc.Handler()); err != nil {
		return "", nil, err
	}
	play := playsvc.NewManager(playsvc.Options{})
	defer play.Close()
	if err := play.AddCourse("classroom", blob); err != nil {
		return "", nil, err
	}
	if err := srv.Mount("/play/", play.Handler()); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()

	simCfg := sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: 977}
	if interactive {
		simCfg.WatchEvery = 4
	}
	sum, err := fleet.Run(fleet.Config{
		ServerURL:   "http://" + ln.Addr().String(),
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: interactive,
		Policy:      sim.GuidedFactory,
		Sim:         simCfg,
		FlushEvery:  8,
	})
	if err != nil {
		return "", nil, err
	}
	if sum.Failed > 0 {
		return "", nil, fmt.Errorf("e12: %d learners failed: %v", sum.Failed, sum.Errors)
	}
	var agg analytics.Rolling
	for _, r := range sum.Reports {
		agg.Add(r)
	}
	mode := "local-sim"
	if interactive {
		mode = "remote-play"
	}
	ps := play.Snapshot()
	if interactive && (ps["sessions_created"] != int64(learners) || ps["sessions_live"] != 0) {
		return "", nil, fmt.Errorf("e12: play accounting off: %v", ps)
	}
	return fmt.Sprintf("  %-11s | %8d | %10.1f | %8.0f | %11v | %4d | %6d",
		mode, learners, sum.SessionsPerSec, sum.EventsPerSec,
		sum.Session.P90.Round(time.Microsecond), ps["acts"], ps["frames"]), &agg, nil
}
