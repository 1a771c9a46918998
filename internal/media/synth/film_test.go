package synth

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/media/raster"
)

func testSpec() Spec {
	return Spec{
		W: 96, H: 64, FPS: 12,
		Shots:         6,
		MinShotFrames: 10,
		MaxShotFrames: 24,
		FadeFraction:  0.3,
		FadeFrames:    6,
		NoiseAmp:      2,
		Seed:          42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec())
	b := Generate(testSpec())
	if a.FrameCount() != b.FrameCount() {
		t.Fatalf("frame counts differ: %d vs %d", a.FrameCount(), b.FrameCount())
	}
	for _, i := range []int{0, 7, a.FrameCount() / 2, a.FrameCount() - 1} {
		if !a.Render(i).Equal(b.Render(i)) {
			t.Fatalf("frame %d differs between identical specs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s := testSpec()
	a := Generate(s)
	s.Seed = 43
	b := Generate(s)
	// Frame counts will very likely differ; if not, pixels must.
	if a.FrameCount() == b.FrameCount() {
		same := true
		for i := 0; i < a.FrameCount(); i += 5 {
			if !a.Render(i).Equal(b.Render(i)) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical films")
		}
	}
}

func TestRenderPureFunctionOfIndex(t *testing.T) {
	f := Generate(testSpec())
	i := f.FrameCount() / 3
	first := f.Render(i)
	// Render other frames in between, then re-render i.
	f.Render(0)
	f.Render(f.FrameCount() - 1)
	again := f.Render(i)
	if !first.Equal(again) {
		t.Fatal("Render is not a pure function of the frame index")
	}
}

func TestShotIndexAtConsistent(t *testing.T) {
	f := Generate(testSpec())
	for k := range f.Shots {
		start := f.ShotStart(k)
		if got := f.ShotIndexAt(start); got != k {
			t.Fatalf("ShotIndexAt(start of %d) = %d", k, got)
		}
		last := start + f.Shots[k].Frames - 1
		if got := f.ShotIndexAt(last); got != k {
			t.Fatalf("ShotIndexAt(last of %d) = %d", k, got)
		}
	}
}

func TestShotIndexAtPanicsOutOfRange(t *testing.T) {
	f := Generate(testSpec())
	for _, i := range []int{-1, f.FrameCount()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShotIndexAt(%d) did not panic", i)
				}
			}()
			f.ShotIndexAt(i)
		}()
	}
}

func TestCutsMatchShotStarts(t *testing.T) {
	f := Generate(testSpec())
	cuts := f.Cuts()
	if len(cuts) != len(f.Shots)-1 {
		t.Fatalf("got %d cuts, want %d", len(cuts), len(f.Shots)-1)
	}
	for i, c := range cuts {
		if c.Frame != f.ShotStart(i+1) {
			t.Errorf("cut %d at frame %d, want %d", i, c.Frame, f.ShotStart(i+1))
		}
		if c.Gradual != (f.Shots[i+1].FadeIn > 0) {
			t.Errorf("cut %d gradual flag wrong", i)
		}
		if c.SceneFrom == c.SceneTo {
			t.Errorf("cut %d joins identical scenes %v", i, c.SceneTo)
		}
	}
}

func TestAdjacentShotsDifferInHistogram(t *testing.T) {
	f := Generate(testSpec())
	for _, c := range f.Cuts() {
		if c.Gradual {
			continue
		}
		before := f.Render(c.Frame - 1).Histogram()
		after := f.Render(c.Frame).Histogram()
		within := f.Render(c.Frame).Histogram().ChiSquare(f.Render(c.Frame + 1).Histogram())
		across := before.ChiSquare(after)
		if across <= within {
			t.Errorf("cut at %d: across-cut distance %.4f <= within-shot %.4f", c.Frame, across, within)
		}
	}
}

func TestFadeIsGradual(t *testing.T) {
	shots := []Shot{
		{Scene: Classroom, Frames: 20, NoiseAmp: 0, Seed: 1},
		{Scene: Street, Frames: 20, FadeIn: 8, NoiseAmp: 0, Seed: 2},
	}
	f := NewFilm(96, 64, 12, shots)
	cut := f.ShotStart(1)
	// During the fade, each frame should differ only modestly from its
	// neighbor; the sum of step distances spans the scene change.
	maxStep := 0.0
	for i := cut; i < cut+8; i++ {
		d := f.Render(i - 1).Histogram().ChiSquare(f.Render(i).Histogram())
		if d > maxStep {
			maxStep = d
		}
	}
	hard := NewFilm(96, 64, 12, []Shot{
		{Scene: Classroom, Frames: 20, Seed: 1},
		{Scene: Street, Frames: 20, Seed: 2},
	})
	hardStep := hard.Render(19).Histogram().ChiSquare(hard.Render(20).Histogram())
	if maxStep >= hardStep {
		t.Errorf("fade max step %.4f should be below hard-cut step %.4f", maxStep, hardStep)
	}
}

func TestNewFilmValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"no shots", func() { NewFilm(8, 8, 10, nil) }},
		{"zero frames", func() { NewFilm(8, 8, 10, []Shot{{Scene: Lab, Frames: 0}}) }},
		{"bad dims", func() { NewFilm(0, 8, 10, []Shot{{Scene: Lab, Frames: 5}}) }},
		{"fade too long", func() {
			NewFilm(8, 8, 10, []Shot{{Scene: Lab, Frames: 5}, {Scene: Market, Frames: 3, FadeIn: 3}})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestFromScenesDurations(t *testing.T) {
	f := FromScenes(64, 48, 10, 7, []SceneShot{
		{Kind: Classroom, Seconds: 2},
		{Kind: Market, Seconds: 1.5, Fade: true},
		{Kind: Classroom, Seconds: 1},
	})
	if got := f.FrameCount(); got != 20+15+10 {
		t.Fatalf("FrameCount = %d, want 45", got)
	}
	if f.Shots[1].FadeIn == 0 {
		t.Error("second shot should fade in")
	}
	if f.DurationSeconds() != 4.5 {
		t.Errorf("duration = %f, want 4.5", f.DurationSeconds())
	}
}

func TestSceneKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range AllSceneKinds() {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("scene kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if SceneKind(99).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	err := quick.Check(func(seed, frame, cell uint64, amp uint8) bool {
		a := int(amp % 16)
		n1 := noise(seed, frame, cell, a)
		n2 := noise(seed, frame, cell, a)
		return n1 == n2 && n1 >= -a && n1 <= a
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noise(1, 2, 3, 0) != 0 {
		t.Error("zero amplitude must give zero noise")
	}
}

func TestUnitWaveRange(t *testing.T) {
	for _, p := range []float64{-3.7, -0.5, 0, 0.25, 0.5, 0.99, 10.1} {
		v := unitWave(p)
		if v < 0 || v > 1 {
			t.Errorf("unitWave(%f) = %f out of [0,1]", p, v)
		}
	}
	if unitWave(0.25) != 0.5 {
		t.Errorf("unitWave(0.25) = %f, want 0.5", unitWave(0.25))
	}
}

func TestRenderedFrameSize(t *testing.T) {
	f := Generate(testSpec())
	fr := f.Render(0)
	if fr.W != 96 || fr.H != 64 {
		t.Fatalf("frame size %dx%d", fr.W, fr.H)
	}
	// Frame should not be blank.
	var mean = fr.MeanLuma()
	if mean < 5 {
		t.Error("rendered frame suspiciously dark")
	}
	_ = raster.Frame{}
}

// transitionFilm has one hard cut and one cross-fade, a noise-free shot and
// two noisy ones, at a size that is odd both ways.
func transitionFilm() *Film {
	return NewFilm(37, 21, 8, []Shot{
		{Scene: Classroom, Frames: 5, PanSpeed: 0.3, Actors: []Actor{{Tunic: raster.Red, StartX: 4, Speed: 0.7}}, Seed: 1},
		{Scene: Market, Frames: 6, NoiseAmp: 3, Seed: 2}, // hard cut
		{Scene: Street, Frames: 7, FadeIn: 4, NoiseAmp: 2, Actors: []Actor{{Tunic: raster.Blue, StartX: 30, Speed: -0.5, Phase: 0.4}}, Seed: 3},
	})
}

func TestRenderIntoMatchesRender(t *testing.T) {
	f := transitionFilm()
	// One recycled destination for the whole film, starting too small or
	// too large and full of garbage: every pixel must be overwritten.
	for _, dst := range []*raster.Frame{raster.New(3, 2), raster.New(64, 64)} {
		for i := range dst.Pix {
			dst.Pix[i] = 0xAB
		}
		for i := 0; i < f.FrameCount(); i++ {
			f.RenderInto(dst, i)
			if want := f.Render(i); !dst.Equal(want) {
				t.Fatalf("frame %d (shot %d): RenderInto a recycled frame differs from Render", i, f.ShotIndexAt(i))
			}
		}
	}
	// Out of order too: a hard-cut frame after a fade frame after a noisy one.
	var fr raster.Frame
	for _, i := range []int{12, 5, 11, 0, 17} {
		f.RenderInto(&fr, i)
		if !fr.Equal(f.Render(i)) {
			t.Fatalf("frame %d: out-of-order RenderInto differs from Render", i)
		}
	}
}

// TestRenderIntoConcurrent renders one noisy film from several goroutines
// at once, each into its own frame: the film's cell-key table is shared and
// read-only, so every frame must equal the one rendered alone.
func TestRenderIntoConcurrent(t *testing.T) {
	f := transitionFilm()
	want := make([]*raster.Frame, f.FrameCount())
	for i := range want {
		want[i] = f.Render(i)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fr raster.Frame
			for k := range f.FrameCount() {
				i := (k + 5*g) % f.FrameCount()
				f.RenderInto(&fr, i)
				if !fr.Equal(want[i]) {
					t.Errorf("goroutine %d, frame %d: differs from the frame rendered alone", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRenderIntoAllocatesOnlyOnFades(t *testing.T) {
	f := transitionFilm()
	var fr raster.Frame
	f.RenderInto(&fr, 0)
	for _, i := range []int{0, 4, 5, 10, 15, 17} { // plain, noisy and post-fade frames
		if n := testing.AllocsPerRun(20, func() { f.RenderInto(&fr, i) }); n != 0 {
			t.Errorf("frame %d: RenderInto a recycled frame allocates %.0f objects, want 0", i, n)
		}
	}
}

// The sensor noise as it stood before the per-film cell keys, the
// division-free range and the word-wide saturation replaced it (EXPERIMENTS.md
// E44), kept verbatim but for their names: the references the new code is
// held to.

// cellNoiseRef is noise with the part that is the same for every cell of a
// frame, seed ^ hash64(frame), already mixed.
func cellNoiseRef(frameKey, cell uint64, amp int) int {
	if amp == 0 {
		return 0
	}
	h := hash64(frameKey ^ hash64(cell*0x5851f42d4c957f2d))
	return int(h%uint64(2*amp+1)) - amp
}

// addNoiseRef applies per-2×2-cell sensor noise, deterministic in (seed, frame).
// A cell's samples are one run of up to six bytes in each of its two rows.
func addNoiseRef(fr *raster.Frame, seed, frame uint64, amp int) {
	frameKey := seed ^ hash64(frame)
	stride := 3 * fr.W
	cell := uint64(0) // row-major over the (W+1)/2 × (H+1)/2 cell grid
	for y := 0; y < fr.H; y += 2 {
		top := fr.Pix[y*stride : (y+1)*stride]
		var bottom []uint8 // empty under the last row of an odd height
		if y+1 < fr.H {
			bottom = fr.Pix[(y+1)*stride : (y+2)*stride]
		}
		for x := 0; x < fr.W; x += 2 {
			n := cellNoiseRef(frameKey, cell, amp)
			cell++
			lo, hi := 3*x, 3*min(x+2, fr.W)
			addClampedRef(top[lo:hi], n)
			if bottom != nil {
				addClampedRef(bottom[lo:hi], n)
			}
		}
	}
}

// addClampedRef adds n to every sample of px, saturating at 0 and 255.
func addClampedRef(px []uint8, n int) {
	for i, p := range px {
		v := int(p) + n
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		px[i] = uint8(v)
	}
}

// TestCellNoiseDivisionFree holds noiseRange's multiply-high remainder to
// the division, for amplitudes 1…300 and 1<<20: at the hashes on either side
// of 0, of 2^63, of 2^64 and of the top multiples of the divisor, where a
// quotient estimate one short shows, and at a million random hashes spread
// over the amplitudes. Then the whole cell noise, key table and all, against
// cellNoiseRef.
func TestCellNoiseDivisionFree(t *testing.T) {
	amps := []int{1 << 20}
	for a := 1; a <= 300; a++ {
		amps = append(amps, a)
	}
	check := func(amp int, h uint64) {
		r := newNoiseRange(amp)
		if got, want := r.of(h), int(h%uint64(2*amp+1))-amp; got != want {
			t.Fatalf("amp %d, h %#x: %d, division gives %d", amp, h, got, want)
		}
	}
	for _, amp := range amps {
		d := uint64(2*amp + 1)
		top := math.MaxUint64 / d * d // the largest multiple of d
		for _, h := range []uint64{0, 1, d - 1, d, d + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1,
			top - d - 1, top - d, top - 1, top, top + 1, math.MaxUint64 - 1, math.MaxUint64} {
			check(amp, h)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for i := range 1_000_000 {
		check(amps[i%len(amps)], rng.Uint64())
	}
	for range 100_000 {
		frameKey, cell, amp := rng.Uint64(), uint64(rng.Intn(1<<16)), amps[rng.Intn(len(amps))]
		if got, want := cellNoise(frameKey, cellKey(cell), newNoiseRange(amp)), cellNoiseRef(frameKey, cell, amp); got != want {
			t.Fatalf("frame key %#x, cell %d, amp %d: %d, reference %d", frameKey, cell, amp, got, want)
		}
	}
}

// TestAddNoiseMatchesReference holds the word-wide noise to the per-byte
// clamp: every sample value under every noise value from −300 to 300, then
// whole frames — one pixel, odd and even both ways — of uniform bytes and of
// bytes at 0 and 255, at amplitudes that saturate nothing, something and
// everything.
func TestAddNoiseMatchesReference(t *testing.T) {
	for n := -300; n <= 300; n++ {
		add, flip := noiseLanes(n)
		for p := range 256 {
			px := []uint8{uint8(p), uint8(p), uint8(p), uint8(p), uint8(p), uint8(p), 7, 200}
			want := append([]uint8(nil), px...)
			addClampedRef(want[:6], n)
			if addRuns(px[:6], []uint64{add}, []uint64{flip}); string(px) != string(want) {
				t.Fatalf("sample %d + %d: % x, want % x", p, n, px, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(67))
	for _, sz := range [][2]int{{1, 1}, {2, 1}, {1, 3}, {3, 2}, {4, 4}, {37, 21}, {160, 120}, {161, 121}} {
		w, h := sz[0], sz[1]
		for _, amp := range []int{1, 2, 3, 64, 255, 256, 1000} {
			f := NewFilm(w, h, 8, []Shot{{Frames: 1, NoiseAmp: amp}})
			for _, extremes := range []bool{false, true} {
				got := raster.New(w, h)
				rng.Read(got.Pix)
				if extremes {
					for i := range got.Pix {
						got.Pix[i] = uint8(-int(got.Pix[i] & 1))
					}
				}
				want := got.Clone()
				seed, frame := rng.Uint64(), rng.Uint64()
				f.addNoise(got, seed, frame, amp)
				addNoiseRef(want, seed, frame, amp)
				if !got.Equal(want) {
					t.Fatalf("%dx%d amp %d extremes %v: noise differs from the reference", w, h, amp, extremes)
				}
			}
		}
	}
}

// BenchmarkAddNoise160x120 puts amplitude-2 sensor noise, the demo courses'
// setting, on one 160×120 frame: "words" is addNoise, "bytes" addNoiseRef
// (EXPERIMENTS.md E44).
func BenchmarkAddNoise160x120(b *testing.B) {
	f := NewFilm(160, 120, 10, []Shot{{Frames: 1, NoiseAmp: 2}})
	fr := raster.New(160, 120)
	rand.New(rand.NewSource(3)).Read(fr.Pix)
	b.Run("words", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.addNoise(fr, 7, uint64(i), 2)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addNoiseRef(fr, 7, uint64(i), 2)
		}
	})
}
