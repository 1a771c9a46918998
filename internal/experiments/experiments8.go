package experiments

import (
	"fmt"
	"net/http/httptest"
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

// E17 measures the remote-play tax E12 exposed, on the one act path: the
// same seed-locked interactive fleet runs against a gateway-fronted 3-node
// cluster as thin clients (every act one framed round trip) and as mirror
// clients (a local replica answers, acts ship as reconciled batches), next
// to the local-simulation baseline. Outcomes must stay identical in every
// row (the golden-replay guarantee); the ratio column is the deployment
// question: how close does hosted play get to local simulation? The
// acceptance bar is mirror ≥ 0.5× local.
func E17(learners int) (string, error) {
	if learners <= 0 {
		learners = 200
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E17 — thin and mirror clients vs the remote-play tax\n")
	fmt.Fprintf(&b, "%d seed-locked guided learners; remote rows cross a consistent-hash\n", learners)
	b.WriteString("gateway into a 3-node cluster; the thin row ships every act as a framed\n")
	b.WriteString("batch of one, the mirror row as reconciled batches of 16\n\n")
	b.WriteString("  mode            | sessions/s | events/s | session p90 | vs local | outcomes\n")
	b.WriteString("  ----------------+------------+----------+-------------+----------+---------\n")

	modes := []struct {
		name        string
		interactive bool
		mirror      bool
	}{
		{"local-sim", false, false},
		{"remote-thin", true, false},
		{"remote-mirror", true, true},
	}
	var localRate float64
	var localAgg *analytics.Rolling
	for _, mode := range modes {
		rate, p90, events, agg, err := e17Run(blob, learners, mode.interactive, mode.mirror)
		if err != nil {
			return "", fmt.Errorf("%s: %w", mode.name, err)
		}
		ratio, match := "—", "—"
		if mode.interactive {
			ratio = fmt.Sprintf("%.2fx", rate/localRate)
			match = "= local"
			if localAgg == nil || localAgg.Events != agg.Events || localAgg.Knowledge != agg.Knowledge ||
				localAgg.Completed != agg.Completed || localAgg.QuizCorrect != agg.QuizCorrect {
				match = "DIVERGED"
			}
		} else {
			localRate, localAgg = rate, agg
		}
		fmt.Fprintf(&b, "  %-15s | %10.1f | %8.0f | %11v | %8s | %s\n",
			mode.name, rate, events, p90.Round(time.Microsecond), ratio, match)
	}
	b.WriteString("\nshape check: identical outcome columns in every row; the thin row pays\n")
	b.WriteString("one round trip per act because a guided learner reads state after\n")
	b.WriteString("every act, and the mirror row — a local replica answering every read\n")
	b.WriteString("and frame, acts shipped purely as reconciled batches — must land at\n")
	b.WriteString(">= 0.50x local simulation (E12 measured 0.26x).\n")
	return b.String(), nil
}

// e17Run drives one fleet configuration and returns its throughput,
// session p90, event rate and aggregated outcomes.
func e17Run(blob []byte, learners int, interactive, mirror bool) (float64, time.Duration, float64, *analytics.Rolling, error) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		return 0, 0, 0, nil, err
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	if err := srv.Mount("/telemetry/", svc.Handler()); err != nil {
		return 0, 0, 0, nil, err
	}
	front := httptest.NewServer(srv)
	defer front.Close()

	cfg := fleet.Config{
		ServerURL:   front.URL,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: interactive,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: 977},
		FlushEvery:  8,
		PlayMirror:  mirror,
	}
	if interactive {
		cfg.Sim.WatchEvery = 4
		cl, err := playsvc.NewCluster(playsvc.ClusterOptions{
			Node: playsvc.Options{TTL: -1},
		})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer cl.Close()
		if err := cl.AddCourse("classroom", blob); err != nil {
			return 0, 0, 0, nil, err
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.StartNode(); err != nil {
				return 0, 0, 0, nil, err
			}
		}
		gw := httptest.NewServer(cl.Gateway().Handler())
		defer gw.Close()
		cfg.PlayURL = gw.URL
	}

	sum, err := fleet.Run(cfg)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if sum.Failed > 0 {
		return 0, 0, 0, nil, fmt.Errorf("%d learners failed: %v", sum.Failed, sum.Errors)
	}
	cs := svc.Store().Snapshot()["classroom"]
	if cs.SessionsStarted != learners || cs.SessionsEnded != learners || cs.LiveSessions != 0 {
		return 0, 0, 0, nil, fmt.Errorf("telemetry accounting skewed: %+v", cs)
	}
	var agg analytics.Rolling
	for _, r := range sum.Reports {
		agg.Add(r)
	}
	return sum.SessionsPerSec, sum.Session.P90, sum.EventsPerSec, &agg, nil
}
