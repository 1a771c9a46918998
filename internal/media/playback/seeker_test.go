package playback

import "testing"

// TestSeekerDecodeCounts states the engine's seek cost as exact packet
// counts — what TestSeekCostBoundedByGOP can only imply from pixels.
func TestSeekerDecodeCounts(t *testing.T) {
	blob, _ := testBlob(t) // GOP 5
	v, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := v.Meta().FrameCount
	steps := []struct {
		name string
		i    int
		want int
	}{
		{"cold read rolls from the keyframe", 7, 3}, // 5,6,7
		{"next frame", 8, 1},
		{"same frame again re-seeks", 8, 4}, // 5..8
		{"next frame after the re-seek", 9, 1},
		{"forward across a keyframe jumps to it", n - 1, (n-1)%5 + 1}, // from the last keyframe
		{"backward seek", 2, 3},                                       // 0,1,2
	}
	for _, s := range steps {
		before := v.seek.decoded
		if _, err := v.FrameAt(s.i); err != nil {
			t.Fatalf("%s: FrameAt(%d): %v", s.name, s.i, err)
		}
		if got := v.seek.decoded - before; got != s.want {
			t.Errorf("%s: FrameAt(%d) decoded %d packets, want %d", s.name, s.i, got, s.want)
		}
	}
	// A whole film front to back: one decode per packet.
	v.seek.Reset()
	before := v.seek.decoded
	for i := 0; i < n; i++ {
		if _, err := v.FrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.seek.decoded - before; got != n {
		t.Errorf("sequential play of %d frames decoded %d packets", n, got)
	}
}
