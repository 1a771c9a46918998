package studio

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

func shortFilm() *synth.Film {
	return synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 8,
		Shots: 3, MinShotFrames: 6, MaxShotFrames: 8,
		Seed: 11,
	})
}

func TestRecordProducesValidContainer(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if m.FrameCount != film.FrameCount() || m.Width != film.W || m.FPS != film.FPS {
		t.Errorf("meta %+v does not match film", m)
	}
	// Every packet decodes in sequence with sane quality.
	dec := vcodec.NewDecoder()
	for i := 0; i < m.FrameCount; i++ {
		data, _, err := r.PacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := raster.PSNR(film.Render(i), got); p < 22 {
			t.Errorf("frame %d PSNR %.1f too low", i, p)
		}
	}
}

func TestRecordShotMarkers(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	chs := r.Chapters()
	if len(chs) != len(film.Shots) {
		t.Fatalf("%d chapters, want %d", len(chs), len(film.Shots))
	}
	for k, ch := range chs {
		if ch.Start != film.ShotStart(k) {
			t.Errorf("chapter %d starts at %d, want %d", k, ch.Start, film.ShotStart(k))
		}
		if !strings.Contains(ch.Name, film.Shots[k].Scene.String()) {
			t.Errorf("chapter name %q missing scene kind", ch.Name)
		}
	}
	// Chapters must tile the film exactly.
	if chs[0].Start != 0 || chs[len(chs)-1].End != film.FrameCount() {
		t.Error("chapters do not span the film")
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].Start != chs[i-1].End {
			t.Errorf("gap between chapters %d and %d", i-1, i)
		}
	}
}

func TestRecordDefaultGOPIsFPS(t *testing.T) {
	film := shortFilm()
	blob, err := Record(film, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := container.Open(blob)
	if r.Meta().GOP != film.FPS {
		t.Errorf("GOP = %d, want fps %d", r.Meta().GOP, film.FPS)
	}
	// Frame 8 (one second in) must be an I-frame.
	_, ft, _ := r.PacketAt(film.FPS)
	if ft != vcodec.IFrame {
		t.Error("GOP boundary is not an I-frame")
	}
}

func TestRecordRejectsBadOptions(t *testing.T) {
	film := shortFilm()
	if _, err := Record(film, Options{QStep: 999}); err == nil {
		t.Error("absurd qstep accepted")
	}
}

// fadeFilm is odd-sized both ways and has a hard cut, a cross-fade and
// sensor noise, so padding, scratch frames and noisy motion search are all
// in play.
func fadeFilm() *synth.Film {
	return synth.Generate(synth.Spec{
		W: 37, H: 21, FPS: 6,
		Shots: 4, MinShotFrames: 7, MaxShotFrames: 9,
		FadeFraction: 0.5, FadeFrames: 3, NoiseAmp: 2,
		Seed: 5,
	})
}

// recordSeparately is the recording loop RecordLadder replaced, kept as the
// oracle: its own encoder, a freshly rendered frame per Encode, a payload
// the muxer is handed outright.
func recordSeparately(t *testing.T, film *synth.Film, opts Options) []byte {
	t.Helper()
	opts = opts.withDefaults(film.FPS)
	enc, err := vcodec.NewEncoder(vcodec.Config{
		Width: film.W, Height: film.H,
		QStep: opts.QStep, GOP: opts.GOP,
		SearchRange: opts.SearchRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := container.NewMuxer(container.Meta{Width: film.W, Height: film.H, FPS: film.FPS, GOP: opts.GOP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < film.FrameCount(); i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mux.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	chapters := opts.Chapters
	if opts.ShotMarkers && chapters == nil {
		for k := range film.Shots {
			start := film.ShotStart(k)
			chapters = append(chapters, container.Chapter{
				Name:  fmt.Sprintf("shot-%03d-%s", k, film.Shots[k].Scene),
				Start: start, End: start + film.Shots[k].Frames,
			})
		}
	}
	for _, ch := range chapters {
		if err := mux.AddChapter(ch); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := mux.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestRecordLadderMatchesRecord(t *testing.T) {
	film := fadeFilm()
	hasFade := false
	for _, c := range film.Cuts() {
		hasFade = hasFade || c.Gradual
	}
	if !hasFade {
		t.Fatal("fixture film has no cross-fade")
	}
	cases := []struct {
		name  string
		opts  Options
		tiers []Tier
	}{
		{"default ladder", Options{GOP: 5}, DefaultLadder()},
		{"one rung", Options{GOP: 5}, []Tier{{QStep: 7}}},
		{"canonical rung last", Options{}, []Tier{{Name: "low", QStep: 24}, {Name: "", QStep: 4}}},
		{"chapters", Options{GOP: 4, Chapters: []container.Chapter{
			{Name: "intro", Start: 0, End: 9}, {Name: "rest", Start: 9, End: film.FrameCount()},
		}}, DefaultLadder()},
		{"shot markers", Options{GOP: 4, ShotMarkers: true}, DefaultLadder()},
	}
	for _, tc := range cases {
		rungs, err := RecordLadder(film, tc.opts, tc.tiers)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rungs) != len(tc.tiers) {
			t.Fatalf("%s: %d rungs for %d tiers", tc.name, len(rungs), len(tc.tiers))
		}
		// The tiers listed the other way round: every tier's bytes are its
		// own, whatever the order.
		reversed := slices.Clone(tc.tiers)
		slices.Reverse(reversed)
		again, err := RecordLadder(film, tc.opts, reversed)
		if err != nil {
			t.Fatalf("%s reversed: %v", tc.name, err)
		}
		lead := 0
		for k, tier := range tc.tiers {
			if tier.QStep < tc.tiers[lead].QStep {
				lead = k
			}
		}
		for k, tier := range tc.tiers {
			if rungs[k].Tier != tier.Name {
				t.Errorf("%s: rung %d is tier %q, want %q", tc.name, k, rungs[k].Tier, tier.Name)
			}
			if r := again[len(again)-1-k]; r.Tier != tier.Name || !bytes.Equal(r.Video, rungs[k].Video) {
				t.Errorf("%s: tier %q (q=%d) differs when the tiers are listed in reverse", tc.name, tier.Name, tier.QStep)
			}
			// A one-rung ladder is a separate encoder at any quantizer.
			o := tc.opts
			o.QStep = tier.QStep
			single, err := Record(film, o)
			if err != nil {
				t.Fatalf("%s: tier %q: %v", tc.name, tier.Name, err)
			}
			if !bytes.Equal(single, recordSeparately(t, film, o)) {
				t.Errorf("%s: Record at q=%d differs from a separate encoder fed fresh frames", tc.name, tier.QStep)
			}
			// The lead rung, the finest, searches motion in full: it is
			// that encoder byte for byte. The rungs below it refine its
			// vectors, so they are not.
			if k == lead && !bytes.Equal(rungs[k].Video, single) {
				t.Errorf("%s: lead tier %q (q=%d) differs from Record at that quantizer", tc.name, tier.Name, tier.QStep)
			}
		}
	}
}

// TestRecordLadderSteadyStateAllocs pins what keeps a four-rung publish's
// memory flat: lengthening a fade-free film adds at most one allocation per
// rung per 16 extra frames (a muxer's data block per 32 KiB of packets, and
// its packet index's amortized growth; frames, source image and payload
// buffers are all recycled). It reads 0.031. A muxer that also appends
// each packet to one growing slice reads 0.104 (the one-slice muxer this
// replaced read 0.125), which the earlier bound of 1 let through.
func TestRecordLadderSteadyStateAllocs(t *testing.T) {
	spec := synth.Spec{W: 64, H: 48, FPS: 8, Shots: 2, MinShotFrames: 12, MaxShotFrames: 12, NoiseAmp: 2, Seed: 3}
	short := synth.Generate(spec)
	spec.MinShotFrames, spec.MaxShotFrames = 36, 36
	long := synth.Generate(spec)
	tiers := DefaultLadder()
	allocs := func(film *synth.Film) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := RecordLadder(film, Options{}, tiers); err != nil {
				t.Fatal(err)
			}
		})
	}
	extraFrames := long.FrameCount() - short.FrameCount()
	perRungFrame := (allocs(long) - allocs(short)) / float64(extraFrames*len(tiers))
	t.Logf("%.3f allocations per rung per extra frame", perRungFrame)
	if perRungFrame > 1.0/16 {
		t.Errorf("%.3f allocations per rung per extra frame, want <= 1/16", perRungFrame)
	}
}

// settledGoroutines returns the goroutine count once two readings a
// millisecond apart agree (or after a hundred tries). An earlier test's
// shot-detection histogram worker signals completion from a defer and is
// still counted for a moment after the call that started it has returned;
// sampled then, it would read as a goroutine the codec "stopped".
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestCodecStartsNoGoroutines: a frame's block rows are coded and decoded on
// the goroutine that asked, so neither building a codec nor recording a whole
// ladder leaves (or needs) a goroutine of its own — there is no pool to stop
// and nothing to Close (EXPERIMENTS.md E28).
func TestCodecStartsNoGoroutines(t *testing.T) {
	film := shortFilm()
	before := settledGoroutines()
	cfg := vcodec.Config{Width: film.W, Height: film.H, QStep: 4, GOP: 4, SearchRange: 2}
	enc, err := vcodec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := vcodec.NewLadderEncoder(cfg, []int{4, 24})
	if err != nil {
		t.Fatal(err)
	}
	dec := vcodec.NewDecoder()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after building an encoder, a ladder encoder and a decoder, %d before", n, before)
	}
	pkt, err := enc.Encode(film.Render(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(pkt.Data); err != nil {
		t.Fatal(err)
	}
	if err := ladder.Encode(film.Render(0), make([]vcodec.Packet, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := RecordLadder(film, Options{}, DefaultLadder()); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after coding frames and recording a ladder, %d before", n, before)
	}
}
