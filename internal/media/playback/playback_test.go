package playback

import (
	"testing"

	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

// testBlob returns a recorded film with per-shot chapters and the film
// itself for ground truth.
func testBlob(t testing.TB) ([]byte, *synth.Film) {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 64, H: 48, FPS: 10,
		Shots: 3, MinShotFrames: 10, MaxShotFrames: 14,
		Seed: 31,
	})
	blob, err := studio.Record(film, studio.Options{GOP: 5, ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	return blob, film
}

func TestFrameAtSequentialAndQuality(t *testing.T) {
	blob, film := testBlob(t)
	v, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < film.FrameCount(); i++ {
		f, err := v.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if p := raster.PSNR(film.Render(i), f); p < 22 {
			t.Errorf("frame %d PSNR %.1f", i, p)
		}
	}
}

func TestFrameAtRandomAccessMatchesSequential(t *testing.T) {
	blob, _ := testBlob(t)
	vs, _ := OpenVideo(blob, 1)
	vr, _ := OpenVideo(blob, 1)
	n := vs.Meta().FrameCount
	// Sequential decode of everything.
	seq := make([]*raster.Frame, n)
	for i := 0; i < n; i++ {
		f, err := vs.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = f.Clone() // FrameAt recycles its frame; retain a copy
	}
	// Random-order access must give bit-identical frames.
	order := []int{n - 1, 0, n / 2, 3, n / 2, n - 2, 1, n / 3, 0}
	for _, i := range order {
		f, err := vr.FrameAt(i)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", i, err)
		}
		if !f.Equal(seq[i]) {
			t.Fatalf("random access frame %d differs from sequential decode", i)
		}
	}
}

func TestFrameAtOutOfRange(t *testing.T) {
	blob, _ := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	if _, err := v.FrameAt(-1); err == nil {
		t.Error("FrameAt(-1) accepted")
	}
	if _, err := v.FrameAt(v.Meta().FrameCount); err == nil {
		t.Error("FrameAt(count) accepted")
	}
}

func TestOpenVideoRejectsGarbage(t *testing.T) {
	if _, err := OpenVideo([]byte("not a container"), 1); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCursorSegmentPlayback(t *testing.T) {
	blob, film := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	c := NewCursor(v, HoldLast)
	if _, err := c.Frame(); err == nil {
		t.Error("cursor frame before entering a segment should fail")
	}
	segName := v.Chapters()[1].Name
	if err := c.EnterSegment(segName); err != nil {
		t.Fatal(err)
	}
	want := film.ShotStart(1)
	if c.Pos() != want {
		t.Fatalf("cursor starts at %d, want %d", c.Pos(), want)
	}
	if _, err := c.Frame(); err != nil {
		t.Fatal(err)
	}
	// Advance to the end; HoldLast pins the final frame.
	steps := 0
	for {
		moved, err := c.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !moved {
			break
		}
		steps++
		if steps > 1000 {
			t.Fatal("cursor never reached segment end")
		}
	}
	if !c.AtEnd() {
		t.Error("cursor should be at end")
	}
	seg := c.Segment()
	if c.Pos() != seg.End-1 {
		t.Errorf("held position %d, want %d", c.Pos(), seg.End-1)
	}
	if steps != seg.End-seg.Start-1 {
		t.Errorf("advanced %d steps, want %d", steps, seg.End-seg.Start-1)
	}
}

func TestCursorLoop(t *testing.T) {
	blob, _ := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	c := NewCursor(v, Loop)
	seg := v.Chapters()[0]
	if err := c.EnterSegment(seg.Name); err != nil {
		t.Fatal(err)
	}
	// March two full laps; position must wrap.
	lapLen := seg.End - seg.Start
	for i := 0; i < 2*lapLen; i++ {
		moved, err := c.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !moved {
			t.Fatal("loop cursor should always move")
		}
	}
	if c.Pos() != seg.Start {
		t.Errorf("after 2 laps pos = %d, want %d", c.Pos(), seg.Start)
	}
}

func TestCursorSeek(t *testing.T) {
	blob, _ := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	c := NewCursor(v, Loop)
	if err := c.Seek(0); err == nil {
		t.Fatal("seek before entering a segment accepted")
	}
	seg := v.Chapters()[1]
	if err := c.EnterSegment(seg.Name); err != nil {
		t.Fatal(err)
	}
	mid := seg.Start + (seg.End-seg.Start)/2
	if err := c.Seek(mid); err != nil {
		t.Fatal(err)
	}
	if c.Pos() != mid {
		t.Fatalf("pos = %d, want %d", c.Pos(), mid)
	}
	// The sought frame decodes identically to the same frame reached by
	// random access.
	want, err := v.FrameAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	wantClone := want.Clone()
	got, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Pix) != string(wantClone.Pix) {
		t.Fatal("sought frame differs from random-access frame")
	}
	for _, bad := range []int{seg.Start - 1, seg.End, -5} {
		if err := c.Seek(bad); err == nil {
			t.Errorf("seek to %d outside %+v accepted", bad, seg)
		}
	}
}

func TestCursorEnterUnknownSegment(t *testing.T) {
	blob, _ := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	c := NewCursor(v, HoldLast)
	if err := c.EnterSegment("no-such-scenario"); err == nil {
		t.Fatal("unknown segment accepted")
	}
}

func TestCursorEnterRange(t *testing.T) {
	blob, _ := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	c := NewCursor(v, HoldLast)
	if err := c.EnterRange("custom", 5, 12); err != nil {
		t.Fatal(err)
	}
	if c.Pos() != 5 || c.Segment().End != 12 {
		t.Errorf("range cursor state wrong: pos=%d seg=%+v", c.Pos(), c.Segment())
	}
	for _, bad := range [][2]int{{-1, 5}, {5, 5}, {5, 10000}} {
		if err := c.EnterRange("bad", bad[0], bad[1]); err == nil {
			t.Errorf("range %v accepted", bad)
		}
	}
}

func TestFrameAtErrorInvalidatesPosition(t *testing.T) {
	// A decode failure mid roll-forward advances the decoder reference past
	// v.pos; the Video must forget its position so the next read re-seeks
	// from a keyframe instead of predicting against the wrong reference.
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
	blob, err := mux.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.FrameAt(2); err != nil { // establish v.pos = 3
		t.Fatal(err)
	}
	if _, err := v.FrameAt(7); err == nil { // rolls 3,4 fine, dies at 5
		t.Fatal("decoding across the poisoned packet should fail")
	}
	got, err := v.FrameAt(3)
	if err != nil {
		t.Fatalf("FrameAt(3) after failed roll: %v", err)
	}
	fresh, err := OpenVideo(blob, 1)
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

func TestSeekCostBoundedByGOP(t *testing.T) {
	// Seeking backward should decode at most GOP frames; we can't observe
	// decode count directly, but we can check correctness right after a
	// long forward roll followed by a backward seek.
	blob, film := testBlob(t)
	v, _ := OpenVideo(blob, 1)
	last := film.FrameCount() - 1
	if _, err := v.FrameAt(last); err != nil {
		t.Fatal(err)
	}
	f, err := v.FrameAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if p := raster.PSNR(film.Render(2), f); p < 22 {
		t.Errorf("post-seek frame PSNR %.1f", p)
	}
}
