package container

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/vcodec"
)

// fuzzBlob is a small valid container to seed the corpus.
var fuzzBlob = sync.OnceValue(func() []byte {
	f := raster.New(24, 16)
	f.FillVGradient(raster.Red, raster.Blue)
	enc, err := vcodec.NewEncoder(vcodec.Config{Width: 24, Height: 16, QStep: 6, GOP: 2})
	if err != nil {
		panic(err)
	}
	mux, err := NewMuxer(Meta{Width: 24, Height: 16, FPS: 10, GOP: 2})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		pkt, err := enc.Encode(f)
		if err != nil {
			panic(err)
		}
		if err := mux.AddPacket(pkt); err != nil {
			panic(err)
		}
	}
	if err := mux.AddChapter(Chapter{Name: "intro", Start: 0, End: 3}); err != nil {
		panic(err)
	}
	blob, err := mux.Finalize()
	if err != nil {
		panic(err)
	}
	return blob
})

// FuzzOpen feeds arbitrary blobs to the container parser. Open must never
// panic, and every rejection must be an ErrBadContainer or ErrTruncated so
// the streaming client can tell "fetch more" from "give up".
func FuzzOpen(f *testing.F) {
	blob := fuzzBlob()
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("TKVC"))
	f.Add([]byte("TKVC\x01"))
	f.Add([]byte("JUNKJUNKJUNK"))
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blob)-1])
	flip := append([]byte(nil), blob...)
	flip[len(flip)/2] ^= 1
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrBadContainer) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("Open error is neither ErrBadContainer nor ErrTruncated: %v", err)
			}
			if r != nil {
				t.Fatal("Open returned reader alongside error")
			}
			return
		}
		// A blob Open accepts must be internally consistent enough to walk.
		meta := r.Meta()
		if meta.FrameCount <= 0 {
			t.Fatalf("accepted container with frame count %d", meta.FrameCount)
		}
		for i := 0; i < meta.FrameCount; i++ {
			if _, _, err := r.PacketAt(i); err != nil {
				t.Fatalf("PacketAt(%d) on accepted container: %v", i, err)
			}
		}
		if _, err := r.KeyframeAtOrBefore(meta.FrameCount - 1); err != nil {
			t.Fatalf("KeyframeAtOrBefore on accepted container: %v", err)
		}
	})
}

// FuzzParseHead exercises the prefix parser the streaming client uses: it
// must never panic and must wrap ErrTruncated when given too few bytes so
// the client knows to fetch more.
func FuzzParseHead(f *testing.F) {
	blob := fuzzBlob()
	for _, n := range []int{0, 4, 8, len(blob) / 4, len(blob)} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHead(data)
		if err != nil {
			if !errors.Is(err, ErrBadContainer) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("ParseHead error is neither ErrBadContainer nor ErrTruncated: %v", err)
			}
			return
		}
		if h.TotalSize() <= 0 {
			t.Fatalf("accepted head with total size %d", h.TotalSize())
		}
	})
}
