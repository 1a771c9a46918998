package runtime_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// demoPackages are the three demo courses' packages, built and opened once.
var demoPackages = sync.OnceValues(func() (map[string]*gamepack.Package, error) {
	out := map[string]*gamepack.Package{}
	for name, c := range map[string]*content.Course{
		"classroom": content.Classroom(), "museum": content.Museum(), "street": content.StreetDemo(),
	} {
		blob, err := c.BuildPackage(studio.Options{QStep: 8})
		if err != nil {
			return nil, err
		}
		if out[name], err = gamepack.Open(blob); err != nil {
			return nil, err
		}
	}
	return out, nil
})

// TestStateCodecRoundTrip: on every demo, under the guided learner and
// three random ones, after every step, a state's bytes decode to a state
// that re-encodes to the same bytes, and the session's snapshot restores
// to one whose snapshot is the same bytes.
func TestStateCodecRoundTrip(t *testing.T) {
	pkgs, err := demoPackages()
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		f    sim.Factory
		seed int64
	}{{sim.GuidedFactory, 1}, {sim.RandomFactory, 1}, {sim.RandomFactory, 2}, {sim.RandomFactory, 3}}
	for _, name := range []string{"classroom", "museum", "street"} {
		pkg := pkgs[name]
		for _, p := range policies {
			t.Run(fmt.Sprintf("%s/%s-%d", name, p.f.Name, p.seed), func(t *testing.T) {
				played, err := runtime.NewSessionFromPackage(pkg, runtime.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunGame(played, p.f, sim.Config{MaxSteps: 60, Patience: 60, Seed: p.seed, RecordTrace: true}, &analytics.Collector{})
				if err != nil {
					t.Fatal(err)
				}
				s, err := runtime.NewSessionFromPackage(pkg, runtime.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d steps", len(res.Trace))
				var enc, reenc runtime.StateEncoder
				for step := 0; step <= len(res.Trace); step++ {
					if step > 0 {
						if err := sim.Replay(s, res.Trace[step-1:step]); err != nil {
							t.Fatal(err)
						}
					}
					b := enc.Encode(s.State())
					st, err := runtime.DecodeState(b)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if again := reenc.Encode(st); !bytes.Equal(again, b) {
						t.Fatalf("step %d: state re-encodes to %q, was %q", step, again, b)
					}
					snap := s.Snapshot()
					r, err := runtime.RestoreSessionFromPackage(pkg, snap, runtime.Options{})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if again := r.Snapshot(); !bytes.Equal(again, snap) {
						t.Fatalf("step %d: snapshot restores to one of %d bytes, was %d", step, len(again), len(snap))
					}
				}
			})
		}
	}
}

// TestStateEncoderAllocatesNothing: once its buffers have grown, an
// encoder writes a mid-mission state without allocating — the encode every
// hosted reply and every mirror flush pays.
func TestStateEncoderAllocatesNothing(t *testing.T) {
	pkgs, err := demoPackages()
	if err != nil {
		t.Fatal(err)
	}
	s, err := runtime.NewSessionFromPackage(pkgs["classroom"], runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunGame(s, sim.GuidedFactory, sim.Config{MaxSteps: 20, Patience: 20, Seed: 1}, &analytics.Collector{}); err != nil {
		t.Fatal(err)
	}
	var enc runtime.StateEncoder
	enc.Encode(s.State())
	if allocs := testing.AllocsPerRun(100, func() { enc.Encode(s.State()) }); allocs != 0 {
		t.Fatalf("an encode allocates %.1f times, want 0", allocs)
	}
}

// FuzzDecodeState: decoding never panics, and a state it accepts
// re-encodes to bytes that decode to an equal state.
func FuzzDecodeState(f *testing.F) {
	pkgs, err := demoPackages()
	if err != nil {
		f.Fatal(err)
	}
	var enc runtime.StateEncoder
	for _, name := range []string{"classroom", "museum", "street"} {
		s, err := runtime.NewSessionFromPackage(pkgs[name], runtime.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(enc.Encode(s.State())))
		if _, err := sim.RunGame(s, sim.GuidedFactory, sim.Config{MaxSteps: 20, Patience: 20, Seed: 1}, &analytics.Collector{}); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(enc.Encode(s.State())))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := runtime.DecodeState(b)
		if err != nil {
			return
		}
		var enc runtime.StateEncoder
		again, err := runtime.DecodeState(enc.Encode(st))
		if err != nil {
			t.Fatalf("a decoded state re-encodes to bytes it refuses: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("a decoded state re-encodes to another state:\n got %+v\nwant %+v", again, st)
		}
	})
}
