package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleet"
)

// E17 measures the remote-play tax on the one act path: the same
// seed-locked fleet runs as local simulation (every learner hosts its own
// runtime; the deployment only ships the package and ingests telemetry),
// then against a gateway-fronted 3-node cluster as thin clients (every
// act one framed round trip) and as mirror clients (a local replica
// answers, acts ship as reconciled batches). Outcomes must stay identical
// in every row — hosting is a deployment choice, not a pedagogy change
// (the golden-replay guarantee) — and the ratio column is the deployment
// question: how close does hosted play get to local simulation? The
// acceptance bar is mirror ≥ 0.5× local.
func E17(learners int) (string, error) {
	if learners <= 0 {
		learners = 200
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
	var local *fleet.Summary
	var localAgg *analytics.Rolling
	for _, mode := range modes {
		sum, agg, err := e17Run(learners, mode.interactive, mode.mirror)
		if err != nil {
			return "", fmt.Errorf("%s: %w", mode.name, err)
		}
		ratio, match := "—", "—"
		if local == nil {
			local, localAgg = sum, agg
		} else {
			ratio = fmt.Sprintf("%.2fx", sum.SessionsPerSec/local.SessionsPerSec)
			match = "= local"
			if localAgg.Events != agg.Events || localAgg.Knowledge != agg.Knowledge ||
				localAgg.Completed != agg.Completed || localAgg.QuizCorrect != agg.QuizCorrect {
				match = "DIVERGED"
			}
		}
		fmt.Fprintf(&b, "  %-15s | %10.1f | %8.0f | %11v | %8s | %s\n",
			mode.name, sum.SessionsPerSec, sum.EventsPerSec, sum.Session.P90.Round(time.Microsecond), ratio, match)
	}
	b.WriteString("\nshape check: identical outcome columns in every row; the thin row pays\n")
	b.WriteString("one round trip per act because a guided learner reads state after\n")
	b.WriteString("every act, and the mirror row — a local replica answering every read\n")
	b.WriteString("and frame, acts shipped purely as reconciled batches — must land at\n")
	b.WriteString(">= 0.50x local simulation (thin clients on one node read 0.26x, E12).\n")
	return b.String(), nil
}

// e17Run drives one fleet configuration and returns its summary and
// aggregated outcomes. Remote rows play through a 3-node cluster behind
// the front's gateway, which must host exactly one session per learner
// and none once the fleet is done.
func e17Run(learners int, interactive, mirror bool) (*fleet.Summary, *analytics.Rolling, error) {
	nodes := 0
	if interactive {
		nodes = 3
	}
	s, err := served(untimed(nodes))
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	cfg := classroomFleet(s.URL, learners, interactive)
	cfg.PlayMirror = mirror
	sum, err := fleet.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	agg, err := telemetryExact(s.Deployment, sum)
	if err != nil {
		return nil, nil, err
	}
	if interactive {
		if c := s.Cluster.Gateway().Stats().Cluster; c["sessions_created"] != int64(learners) || c["sessions_live"] != 0 {
			return nil, nil, fmt.Errorf("play accounting off: %v", c)
		}
	}
	return sum, agg, nil
}
