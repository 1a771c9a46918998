package shotdetect

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

func filmSource(f *synth.Film) Source {
	return FuncSource{N: f.FrameCount(), F: func(i int) (*raster.Frame, error) {
		return f.Render(i), nil
	}}
}

func hardCutFilm(seed int64, shots int) *synth.Film {
	return synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 12,
		Shots:         shots,
		MinShotFrames: 14, MaxShotFrames: 26,
		FadeFraction: 0, NoiseAmp: 2, Seed: seed,
	})
}

func truthFrames(f *synth.Film) []int {
	var ts []int
	for _, c := range f.Cuts() {
		ts = append(ts, c.Frame)
	}
	return ts
}

func TestDetectHardCutsPerfectly(t *testing.T) {
	film := hardCutFilm(21, 8)
	bs, err := Detect(filmSource(film), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	m := Score(bs, truthFrames(film), 2)
	if m.F1 < 0.99 {
		t.Errorf("hard-cut F1 = %.3f (P=%.2f R=%.2f), want ~1.0; detected %d of %d",
			m.F1, m.Precision, m.Recall, len(bs), len(film.Cuts()))
	}
}

func TestDetectAcrossSeeds(t *testing.T) {
	// Aggregate quality across several random films.
	var tp, fp, fn int
	for seed := int64(1); seed <= 5; seed++ {
		film := hardCutFilm(seed*100, 6)
		bs, err := Detect(filmSource(film), Defaults())
		if err != nil {
			t.Fatal(err)
		}
		m := Score(bs, truthFrames(film), 2)
		tp += m.TP
		fp += m.FP
		fn += m.FN
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	if prec < 0.9 || rec < 0.9 {
		t.Errorf("aggregate precision %.2f recall %.2f below 0.9", prec, rec)
	}
}

func TestDetectFades(t *testing.T) {
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 12,
		Shots:         6,
		MinShotFrames: 20, MaxShotFrames: 30,
		FadeFraction: 1.0, FadeFrames: 8,
		NoiseAmp: 1, Seed: 77,
	})
	bs, err := Detect(filmSource(film), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Fades are harder: allow a loose tolerance (half the fade span + twin
	// radius) and require decent recall.
	m := Score(bs, truthFrames(film), 10)
	if m.Recall < 0.6 {
		t.Errorf("fade recall = %.2f, want >= 0.6 (found %d boundaries for %d cuts)",
			m.Recall, len(bs), len(film.Cuts()))
	}
	// At least one detection should be flagged gradual.
	anyGradual := false
	for _, b := range bs {
		if b.Gradual {
			anyGradual = true
		}
	}
	if !anyGradual {
		t.Error("no boundary flagged as gradual in an all-fade film")
	}
}

func TestNoFalseCutsOnSingleShot(t *testing.T) {
	film := synth.NewFilm(96, 64, 12, []synth.Shot{
		{Scene: synth.Street, Frames: 120, PanSpeed: 0.4, NoiseAmp: 3, Seed: 3,
			Actors: []synth.Actor{{Tunic: raster.Red, StartX: 10, Speed: 1.2}}},
	})
	bs, err := Detect(filmSource(film), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 0 {
		t.Errorf("detected %d boundaries in a single continuous shot: %+v", len(bs), bs)
	}
}

func TestDetectPropagatesSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	src := FuncSource{N: 10, F: func(i int) (*raster.Frame, error) {
		if i == 7 {
			return nil, boom
		}
		return raster.New(8, 8), nil
	}}
	if _, err := Detect(src, Defaults()); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestDetectTinySources(t *testing.T) {
	src := FuncSource{N: 1, F: func(i int) (*raster.Frame, error) { return raster.New(8, 8), nil }}
	bs, err := Detect(src, Defaults())
	if err != nil || bs != nil {
		t.Errorf("single frame: %v, %v", bs, err)
	}
	src.N = 0
	bs, err = Detect(src, Defaults())
	if err != nil || bs != nil {
		t.Errorf("empty source: %v, %v", bs, err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.HardThreshold = 0 },
		func(c *Config) { c.GradualThreshold = -1 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.TwinRadius = 0 },
		func(c *Config) { c.MinSceneFrames = 0 },
		func(c *Config) { c.Downsample = 0 },
	}
	src := FuncSource{N: 5, F: func(i int) (*raster.Frame, error) { return raster.New(8, 8), nil }}
	for i, mutate := range bad {
		cfg := Defaults()
		mutate(&cfg)
		if _, err := Detect(src, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestScoreMatching(t *testing.T) {
	det := []Boundary{{Frame: 10}, {Frame: 30}, {Frame: 52}}
	truth := []int{11, 30, 70}
	m := Score(det, truth, 2)
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Errorf("TP/FP/FN = %d/%d/%d, want 2/1/1", m.TP, m.FP, m.FN)
	}
	if m.Precision <= 0.66 || m.Precision >= 0.67 {
		t.Errorf("precision = %f", m.Precision)
	}
	// One truth can't consume two detections.
	m2 := Score([]Boundary{{Frame: 9}, {Frame: 11}}, []int{10}, 2)
	if m2.TP != 1 || m2.FP != 1 {
		t.Errorf("double match: %+v", m2)
	}
	// Empty cases.
	z := Score(nil, nil, 2)
	if z.F1 != 0 || z.Precision != 0 {
		t.Errorf("empty score = %+v", z)
	}
}

func TestSegmentsFromBoundaries(t *testing.T) {
	bs := []Boundary{{Frame: 10}, {Frame: 25}}
	segs := SegmentsFromBoundaries(bs, 40)
	want := []Segment{{0, 10}, {10, 25}, {25, 40}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	// Boundaries out of range are dropped; coverage is preserved.
	segs = SegmentsFromBoundaries([]Boundary{{Frame: -3}, {Frame: 0}, {Frame: 100}}, 40)
	if len(segs) != 1 || segs[0] != (Segment{0, 40}) {
		t.Errorf("degenerate boundaries mishandled: %+v", segs)
	}
	if SegmentsFromBoundaries(nil, 0) != nil {
		t.Error("zero frames should give nil segments")
	}
}

func TestDedupeKeepsStronger(t *testing.T) {
	bs := dedupe([]Boundary{
		{Frame: 10, Score: 0.5},
		{Frame: 12, Score: 0.9},
		{Frame: 40, Score: 0.4},
	}, 8)
	if len(bs) != 2 {
		t.Fatalf("dedupe kept %d, want 2", len(bs))
	}
	if bs[0].Frame != 12 || bs[0].Score != 0.9 {
		t.Errorf("dedupe kept weaker boundary: %+v", bs[0])
	}
}

func TestSerializedSourceClonesAndSerializes(t *testing.T) {
	// The fetch callback stands in for playback.FrameAt: single-goroutine
	// only, and it recycles one shared frame. SerializedSource must level
	// that into a concurrency-safe source handing out stable copies.
	shared := raster.New(4, 4)
	calls := 0 // would trip the race detector if fetches overlapped
	src := SerializedSource(32, func(i int) (*raster.Frame, error) {
		calls++
		shared.Fill(raster.RGB{R: uint8(i)})
		return shared, nil
	})
	if src.Frames() != 32 {
		t.Fatalf("Frames() = %d, want 32", src.Frames())
	}
	frames := make([]*raster.Frame, src.Frames())
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := src.Frame(i)
			if err != nil {
				t.Error(err)
				return
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()
	if calls != len(frames) {
		t.Fatalf("fetch called %d times, want %d", calls, len(frames))
	}
	for i, f := range frames {
		if f == shared {
			t.Fatal("SerializedSource returned the recycled frame, not a clone")
		}
		if f.Pix[0] != uint8(i) {
			t.Fatalf("frame %d holds pixels from a later fetch (R=%d)", i, f.Pix[0])
		}
	}
}
