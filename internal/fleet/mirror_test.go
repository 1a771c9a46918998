package fleet

import (
	"testing"

	"repro/internal/analytics"
	"repro/internal/sim"
)

// TestFleetMirrorMatchesInteractiveTotals pins the thick-client mode to the
// thin one: the same seeded fleet played through mirror clients (local
// replica answers reads, acts ship as reconciled batches) must produce
// byte-for-byte the same per-learner analytics digests as the thin-client
// fleet (one framed round trip per act), including watch cadence and quiz
// outcomes.
func TestFleetMirrorMatchesInteractiveTotals(t *testing.T) {
	run := func(mirror bool) *Summary {
		ts, _, _ := liveStack(t)
		sum, err := Run(Config{
			ServerURL:   ts.URL,
			Package:     "classroom",
			Learners:    8,
			Interactive: true,
			PlayMirror:  mirror,
			Policy:      sim.GuidedFactory,
			Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: 977, WatchEvery: 4},
			FlushEvery:  8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Fatalf("mirror=%v failures: %v", mirror, sum.Errors)
		}
		return sum
	}
	plain, mir := run(false), run(true)
	for i := range plain.Reports {
		var a, b analytics.Rolling
		a.Add(plain.Reports[i])
		b.Add(mir.Reports[i])
		if a.Events != b.Events || a.Knowledge != b.Knowledge || a.Completed != b.Completed ||
			a.Ticks != b.Ticks || a.QuizCorrect != b.QuizCorrect {
			t.Errorf("learner %d diverged:\nplain  %+v\nmirror %+v", i, a, b)
		}
	}
	if plain.Steps != mir.Steps {
		t.Errorf("steps: plain %d, mirror %d", plain.Steps, mir.Steps)
	}
}
