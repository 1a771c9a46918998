package netstream

import (
	"testing"
	"time"
)

// testLadder is a 4-rung ladder with a clean 2× rate spacing.
func testLadder() []TierInfo {
	return []TierInfo{
		{Name: "", Rate: 8000}, // canonical full quality
		{Name: "med", Rate: 4000},
		{Name: "low", Rate: 2000},
		{Name: "min", Rate: 1000},
	}
}

// abrStep is one tick of a picker scenario: optionally observe a
// throughput sample (bps over one second), then pick with the given
// buffer level and expect a tier.
type abrStep struct {
	observe int     // bytes/sec sample to feed first (0 = no observation)
	buffer  float64 // buffered media seconds at pick time
	want    string
}

func TestABRPickerDecisions(t *testing.T) {
	cases := []struct {
		name  string
		steps []abrStep
	}{
		{
			// No estimate yet: sit on the lowest rung (fast startup).
			name:  "cold start stays low",
			steps: []abrStep{{buffer: 0, want: "min"}, {buffer: 5, want: "min"}},
		},
		{
			// A fat link after a panic: the picker climbs, but only after
			// the UpHold streak and only one rung per pick. (Before the
			// panic it went straight to the top.)
			name: "throughput ramp up climbs damped",
			steps: []abrStep{
				{observe: 20000, buffer: 10, want: ""},     // no downswitch yet: straight up
				{observe: 20000, buffer: 0.4, want: "min"}, // panic: climbs are damped from here
				{observe: 20000, buffer: 10, want: "min"},  // streak 1 of 2
				{observe: 20000, buffer: 10, want: "low"},  // hold met, +1 rung
				{observe: 20000, buffer: 10, want: "med"},
				{observe: 20000, buffer: 10, want: ""},
				{observe: 20000, buffer: 10, want: ""}, // at the top, stays
			},
		},
		{
			// The link collapses: each pick drops as far as the decayed
			// estimate dictates — no upward-style hold on the way down.
			name: "throughput ramp down drops immediately",
			steps: []abrStep{
				{observe: 20000, buffer: 10, want: ""},
				{observe: 400, buffer: 10, want: ""},    // EWMA still remembers the fat link
				{observe: 400, buffer: 10, want: "med"}, // estimate decays → immediate drop
				{observe: 400, buffer: 10, want: "low"}, // and keeps dropping per pick
				{observe: 400, buffer: 10, want: "low"}, // est ≈2.9 KB/s still affords low
				{observe: 400, buffer: 10, want: "min"}, // floor
			},
		},
		{
			// Buffer drain overrides any estimate: panic to the floor.
			name: "buffer drain panics to lowest",
			steps: []abrStep{
				{observe: 50000, buffer: 10, want: ""},
				{observe: 50000, buffer: 0.4, want: "min"}, // below MinBuffer
				{observe: 50000, buffer: 0.4, want: "min"},
				{observe: 50000, buffer: 10, want: "min"}, // recovery restarts the hold
				{observe: 50000, buffer: 10, want: "low"},
			},
		},
		{
			// A link flapping around the med/low boundary: its first flap
			// climbs (no downswitch yet), and the drop that follows damps
			// the rest — the UpHold streak never completes, so the tier
			// holds steady instead of oscillating with the estimate.
			name: "tier oscillation damped",
			steps: []abrStep{
				{observe: 3200, buffer: 10, want: "low"},  // est 3200 → target low
				{observe: 12000, buffer: 10, want: "med"}, // est ~6.7k → target med, undamped
				{observe: 400, buffer: 10, want: "low"},   // est ~4.2k → drop: damped from here
				{observe: 12000, buffer: 10, want: "low"}, // est ~7.3k → target med: streak 1
				{observe: 400, buffer: 10, want: "low"},   // target low: streak reset
				{observe: 12000, buffer: 10, want: "low"}, // streak 1 again — never climbs
				{observe: 400, buffer: 10, want: "low"},
				{observe: 12000, buffer: 10, want: "low"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewABRPicker(testLadder())
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range tc.steps {
				if s.observe > 0 {
					p.Observe(s.observe, time.Second)
				}
				if got := p.Pick(s.buffer); got != s.want {
					t.Fatalf("step %d: Pick(%.1f) = %q, want %q (throughput %.0f B/s)",
						i, s.buffer, got, s.want, p.Throughput())
				}
			}
		})
	}
}

func TestABRPickerCounts(t *testing.T) {
	p, err := NewABRPicker(testLadder())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.Observe(50000, time.Second)
		p.Pick(10)
	}
	p.Pick(0.1) // panic drop from an elevated rung
	c := p.Counts()
	if c.Picks != 5 {
		t.Errorf("Picks = %d, want 5", c.Picks)
	}
	if c.Switches == 0 || c.Panics != 1 {
		t.Errorf("Switches = %d, Panics = %d", c.Switches, c.Panics)
	}
	if got := p.CurrentTier(); got != "min" {
		t.Errorf("CurrentTier after panic = %q", got)
	}
}

func TestABRPickerObserveGuards(t *testing.T) {
	p, err := NewABRPicker(testLadder())
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(0, time.Second)            // cache hit: no bytes
	p.Observe(4096, 10*time.Microsecond) // degenerate timing
	if got := p.Throughput(); got != 0 {
		t.Errorf("guarded observations moved the estimate to %.0f", got)
	}
	if _, err := NewABRPicker(nil); err == nil {
		t.Error("empty ladder accepted")
	}
}
