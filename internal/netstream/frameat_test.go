package netstream

import (
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/playback"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

// mixedLadderGame opens the 10-segment ladder course and lands every
// segment, rotating through the rungs so neighbours differ. Its chapter
// cuts are not GOP-aligned: each landed run starts before its segment and
// overlaps the previous segment's tail.
func mixedLadderGame(t *testing.T) (*RemoteGame, map[string][]byte) {
	t.Helper()
	ts, _, _, videos := serveLadder(t, testLadderRungs(t))
	g, _, err := (&Client{}).ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tiers := g.Tiers()
	for i, ch := range g.Chapters() {
		if _, err := g.FetchSegmentTier(ch.Name, tiers[i%len(tiers)]); err != nil {
			t.Fatal(err)
		}
	}
	return g, videos
}

// sharedKeyframeGame serves a ladder whose segments a and b are both cut
// inside the first GOP, so they share the preceding keyframe 0 and land
// under one run key; c starts a run of its own at keyframe 16. The start
// segment a lands at the min rung.
func sharedKeyframeGame(t *testing.T) (*RemoteGame, map[string][]byte) {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 2, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 5,
	})
	rungs, err := studio.RecordLadder(film, studio.Options{GOP: 16, Chapters: []container.Chapter{
		{Name: "a", Start: 0, End: 12},
		{Name: "b", Start: 12, End: 24},
		{Name: "c", Start: 24, End: 40},
	}}, studio.DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, videos := serveLadder(t, rungs)
	g, _, err := (&Client{}).ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g, videos
}

// fullDecode decodes a container front to back with a bare decoder — the
// reference that shares no seek logic with the code under test.
func fullDecode(t *testing.T, video []byte) []*raster.Frame {
	t.Helper()
	r, err := container.Open(video)
	if err != nil {
		t.Fatal(err)
	}
	dec := vcodec.NewDecoder()
	out := make([]*raster.Frame, r.Meta().FrameCount)
	for i := range out {
		pkt, _, err := r.PacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = dec.Decode(pkt); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// chapterOf returns the chapter holding frame i.
func chapterOf(t *testing.T, g *RemoteGame, i int) container.Chapter {
	t.Helper()
	for _, ch := range g.Chapters() {
		if i >= ch.Start && i < ch.End {
			return ch
		}
	}
	t.Fatalf("frame %d is in no chapter", i)
	return container.Chapter{}
}

// TestRemoteFrameAtRandomWalk is the differential test: whatever order
// frames are asked for in, streamed decode equals playback.Video.FrameAt on
// the container of the rung the frame's segment landed at.
func TestRemoteFrameAtRandomWalk(t *testing.T) {
	g, videos := mixedLadderGame(t)
	local := map[string]*playback.Video{}
	for tier, blob := range videos {
		v, err := playback.OpenVideo(blob, 1)
		if err != nil {
			t.Fatal(err)
		}
		local[tier] = v
	}
	n := g.Meta().FrameCount
	chs := g.Chapters()
	check := func(i int) {
		t.Helper()
		tier, ok := g.SegmentTier(chapterOf(t, g, i).Name)
		if !ok {
			t.Fatalf("frame %d: segment not landed", i)
		}
		got, err := g.FrameAt(i)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", i, err)
		}
		want, err := local[tier].FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d differs from local decode of rung %q", i, tier)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		i := 0
		for step := 0; step < 150; step++ {
			switch rng.Intn(4) {
			case 0: // sequential run
				for k := rng.Intn(8) + 1; k > 0 && i+1 < n; k-- {
					i++
					check(i)
				}
			case 1: // backward seek
				if i -= rng.Intn(15) + 1; i < 0 {
					i = 0
				}
				check(i)
			case 2: // cross-chapter jump
				ch := chs[rng.Intn(len(chs))]
				i = ch.Start + rng.Intn(ch.End-ch.Start)
				check(i)
			case 3: // the same index again
				check(i)
			}
		}
	}
}

// TestRemoteFrameAtRefetchSharedKeyframe pins the index under a re-fetch:
// landing b widens the run a already landed under the same key, at b's
// tier. The key must stay single, and every frame must decode from the rung
// SegmentTier reports — including for a cursor parked mid-run on the old
// bytes.
func TestRemoteFrameAtRefetchSharedKeyframe(t *testing.T) {
	g, videos := sharedKeyframeGame(t)
	if tier, ok := g.SegmentTier("a"); !ok || tier != "min" {
		t.Fatalf("start segment landed at %q,%v, want min", tier, ok)
	}
	if _, err := g.FrameAt(5); err != nil { // park the cursor inside a@min
		t.Fatal(err)
	}
	if _, err := g.FetchSegmentTier("b", ""); err != nil {
		t.Fatal(err)
	}
	if len(g.starts) != 1 || g.starts[0] != 0 {
		t.Fatalf("run index after re-fetch = %v, want [0]", g.starts)
	}
	if _, err := g.FetchSegmentTier("c", "low"); err != nil {
		t.Fatal(err)
	}
	if len(g.starts) != 2 {
		t.Fatalf("run index = %v, want two keys", g.starts)
	}
	ref := map[string][]*raster.Frame{}
	for tier, blob := range videos {
		ref[tier] = fullDecode(t, blob)
	}
	wantTier := map[string]string{"a": "", "b": "", "c": "low"}
	// Frame 6 first: it follows the parked cursor, so a cursor that missed
	// the swap would predict it from the min rung's frame 5.
	order := []int{6}
	for _, ch := range g.Chapters() {
		for i := ch.Start; i < ch.End; i++ {
			order = append(order, i)
		}
	}
	for _, i := range order {
		ch := chapterOf(t, g, i)
		tier, ok := g.SegmentTier(ch.Name)
		if !ok || tier != wantTier[ch.Name] {
			t.Fatalf("SegmentTier(%q) = %q,%v want %q", ch.Name, tier, ok, wantTier[ch.Name])
		}
		got, err := g.FrameAt(i)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", i, err)
		}
		if !got.Equal(ref[tier][i]) {
			t.Fatalf("frame %d (segment %q) differs from a full decode of rung %q", i, ch.Name, tier)
		}
	}
}

// TestRemoteFrameAtDecodesEachPacketOnce pins the win as a count: watching
// a segment costs one decode per packet of its landed run, and a seek costs
// the distance from the nearest keyframe, never from the run's start.
func TestRemoteFrameAtDecodesEachPacketOnce(t *testing.T) {
	g, _ := mixedLadderGame(t)
	decodes := func(f func()) int {
		before := g.seek.Decoded()
		f()
		return g.seek.Decoded() - before
	}
	play := func(from, to int) func() {
		return func() {
			t.Helper()
			for i := from; i < to; i++ {
				if _, err := g.FrameAt(i); err != nil {
					t.Fatalf("FrameAt(%d): %v", i, err)
				}
			}
		}
	}
	for _, ch := range g.Chapters() {
		// Entering a segment moves to another run: the first frame rolls
		// forward from the keyframe before the cut, the rest cost one each.
		k, err := g.head.KeyframeAtOrBefore(ch.Start)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := decodes(play(ch.Start, ch.End)), ch.End-k; got != want {
			t.Errorf("segment %q [%d,%d) from keyframe %d: %d packets decoded, want %d", ch.Name, ch.Start, ch.End, k, got, want)
		}
	}
	// The streamed twin of playback's TestSeekCostBoundedByGOP: after a
	// whole segment, a backward seek decodes from the keyframe at or before
	// the target — here a keyframe in the middle of the run.
	ch := g.Chapters()[1]
	target := ch.Start + 12
	k, err := g.head.KeyframeAtOrBefore(target)
	if err != nil {
		t.Fatal(err)
	}
	if k <= ch.Start || target-k >= g.Meta().GOP {
		t.Fatalf("fixture: keyframe %d for target %d is not inside segment [%d,%d)", k, target, ch.Start, ch.End)
	}
	play(ch.Start, ch.End)()
	if got, want := decodes(play(target, target+1)), target-k+1; got != want {
		t.Errorf("backward seek to %d decoded %d packets, want %d (keyframe %d)", target, got, want, k)
	}
	if got := decodes(play(target, target+1)); got != target-k+1 {
		t.Errorf("repeat of frame %d decoded %d packets, want a re-seek of %d", target, got, target-k+1)
	}
	if got := decodes(play(target+1, target+2)); got != 1 {
		t.Errorf("next frame after a seek decoded %d packets, want 1", got)
	}
}

func TestRemoteFrameAtSequentialZeroAllocs(t *testing.T) {
	g, _ := mixedLadderGame(t)
	ch := g.Chapters()[2]
	i := ch.Start
	if _, err := g.FrameAt(i); err != nil { // enter the run, size the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(ch.End-ch.Start-3, func() {
		i++
		if _, err := g.FrameAt(i); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sequential FrameAt allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestRemoteFrameAtErrorReseeks is the streamed twin of playback's
// TestFrameAtErrorInvalidatesPosition: a corrupt packet mid-run fails the
// call that crosses it, and the next call re-seeks from a keyframe instead
// of predicting against whatever reference the failed roll left behind.
func TestRemoteFrameAtErrorReseeks(t *testing.T) {
	film := synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 10,
		Shots: 2, MinShotFrames: 10, MaxShotFrames: 12,
		NoiseAmp: 6, Seed: 17,
	})
	enc, err := vcodec.NewEncoder(vcodec.Config{Width: 64, Height: 48, QStep: 4, GOP: 100, SearchRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	mux, err := container.NewMuxer(container.Meta{Width: 64, Height: 48, FPS: 10, GOP: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Index == 5 {
			pkt.Data = []byte("garbage, not a TKV2 packet") // poisoned mid-GOP P-frame
		}
		if err := mux.AddPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := mux.AddChapter(container.Chapter{Name: "all", Start: 0, End: 10}); err != nil {
		t.Fatal(err)
	}
	video, err := mux.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProject("Poisoned")
	p.Scenarios = append(p.Scenarios, &core.Scenario{ID: "s0", Name: "all", Segment: "all"})
	p.StartScenario = "s0"
	blob, err := gamepack.Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddPackage("poisoned", blob); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	g, _, err := (&Client{}).ProgressiveOpenABR(ts.URL+"/pkg/poisoned", nil, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.FrameAt(2); err != nil { // cursor now expects frame 3
		t.Fatal(err)
	}
	if _, err := g.FrameAt(7); err == nil { // rolls 3,4 fine, dies at 5
		t.Fatal("decoding across the poisoned packet should fail")
	}
	got, err := g.FrameAt(3)
	if err != nil {
		t.Fatalf("FrameAt(3) after failed roll: %v", err)
	}
	fresh, err := playback.OpenVideo(video, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.FrameAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("post-error FrameAt decoded against a stale reference")
	}
}

// TestRemoteFrameAtConcurrent holds the concurrency contract under -race:
// two goroutines read interleaved frames of segment a while a third lands b
// — swapping the run both are decoding from — and then c. Every read must
// be a whole frame of one rung or the other, never a prediction across the
// swap.
func TestRemoteFrameAtConcurrent(t *testing.T) {
	g, videos := sharedKeyframeGame(t)
	before, after := fullDecode(t, videos["min"]), fullDecode(t, videos[""])
	a, _ := g.head.ChapterByName("a")
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mine := &raster.Frame{}
			for n := 0; n < 300; n++ {
				// The readers stride differently, so each keeps pulling the
				// shared cursor away from where the other left it.
				i := a.Start + (n*(2+r)+r)%(a.End-a.Start)
				if _, err := g.FrameAt(i); err != nil {
					t.Errorf("reader %d: FrameAt(%d): %v", r, i, err)
					return
				}
				// FrameAt's frame is shared with the other reader; pixels are
				// compared on a frame of the reader's own.
				if err := g.frameAtInto(mine, i); err != nil {
					t.Errorf("reader %d: frame %d: %v", r, i, err)
					return
				}
				if !mine.Equal(before[i]) && !mine.Equal(after[i]) {
					t.Errorf("reader %d: frame %d matches neither rung", r, i)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := g.FetchSegmentTier("b", ""); err != nil {
			t.Errorf("fetch b: %v", err)
		}
		if _, err := g.FetchSegmentTier("c", "low"); err != nil {
			t.Errorf("fetch c: %v", err)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := a.Start; i < a.End; i++ {
		f, err := g.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(after[i]) {
			t.Fatalf("frame %d after the swap is not the canonical rung's", i)
		}
	}
}
