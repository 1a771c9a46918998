package runtime

import (
	"math/rand"
	"testing"

	"repro/internal/content"
	"repro/internal/media/playback"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
)

// frameViaOwn is FrameInto as it was before it decoded straight into dst:
// the cursor's frame lands in the Video's own recycled buffer and is copied
// out before compositing.
func (s *Session) frameViaOwn(dst *raster.Frame) error {
	f, err := s.cursor.Frame()
	if err != nil {
		return err
	}
	dst.CopyFrom(f)
	if sc := s.Scenario(); sc != nil {
		s.compositeObjects(dst, sc)
	}
	return nil
}

// TestFrameIntoDecodesStraightIntoDst drives two sessions through one seeded
// walk — ticks, scenario switches, segment loops, repeated reads — one
// presenting through FrameInto, the other through the copy-out path it
// replaced, without a frame cache, with a roomy one and with one so small it
// evicts constantly (a session presents through its package's cache; the
// other two are swapped in where a cache attaches, Video.UseCache). Every
// frame must be pixel-equal, earlier results must survive later decodes (dst
// aliases no session buffer), and once warm a presented frame costs no
// allocation.
func TestFrameIntoDecodesStraightIntoDst(t *testing.T) {
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	caches := map[string]func() *playback.FrameCache{
		"no cache":    func() *playback.FrameCache { return nil },
		"roomy cache": func() *playback.FrameCache { return playback.NewFrameCache(0) },
		"tiny cache":  func() *playback.FrameCache { return playback.NewFrameCache(5 * 160 * 120 * 3) },
	}
	for name, newCache := range caches {
		t.Run(name, func(t *testing.T) {
			sut, err := NewSession(blob, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sut.video.UseCache(newCache())
			ref, err := NewSession(blob, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref.video.UseCache(newCache())
			var scenarios []string
			for _, sc := range sut.pkg.Project.Scenarios {
				scenarios = append(scenarios, sc.ID)
			}
			rng := rand.New(rand.NewSource(25))
			var got, want, held, heldCopy raster.Frame
			for step := 0; step < 150; step++ {
				switch r := rng.Intn(10); {
				case r == 0:
					id := scenarios[rng.Intn(len(scenarios))]
					if err := sut.GotoScenario(id); err != nil {
						t.Fatal(err)
					}
					if err := ref.GotoScenario(id); err != nil {
						t.Fatal(err)
					}
				case r < 8: // r >= 8: read the same frame again
					n := 1 + rng.Intn(3)
					if err := sut.Advance(n); err != nil {
						t.Fatal(err)
					}
					if err := ref.Advance(n); err != nil {
						t.Fatal(err)
					}
				}
				if err := sut.FrameInto(&got); err != nil {
					t.Fatal(err)
				}
				if err := ref.frameViaOwn(&want); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(&want) {
					t.Fatalf("step %d (scenario %s, frame %d): FrameInto differs from Cursor.Frame + CopyFrom + composite",
						step, sut.State().Scenario, sut.cursor.Pos())
				}
				if step%25 == 0 {
					if err := sut.FrameInto(&held); err != nil {
						t.Fatal(err)
					}
					heldCopy.CopyFrom(&held)
				}
				if !held.Equal(&heldCopy) {
					t.Fatalf("step %d: a frame rendered earlier changed under a later decode", step)
				}
			}
			// Warm: with a cache, one more lap so every frame of the segment
			// is either cached or known not to fit.
			lap := sut.cursor.Segment().End - sut.cursor.Segment().Start
			for i := 0; i < 2*lap; i++ {
				if err := sut.Advance(1); err != nil {
					t.Fatal(err)
				}
				if err := sut.FrameInto(&got); err != nil {
					t.Fatal(err)
				}
			}
			if name == "tiny cache" {
				return // every miss clones into the cache by design
			}
			if n := testing.AllocsPerRun(lap, func() {
				if _, err := sut.cursor.Advance(); err != nil {
					t.Fatal(err)
				}
				if err := sut.FrameInto(&got); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("steady-state FrameInto allocates %.1f objects/frame, want 0", n)
			}
		})
	}
}
