package vcodec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

// hostileGolden pins the encoder's bytes where the demo courses do not go:
// frames that are not block multiples and a frame that is a single block (so
// the motion search's dx range is clipped on both sides, down to the zero
// vector alone), noise-free and heavily noisy footage, hard black↔white cuts
// inside a GOP, the quantizer's extremes and every kind of search range. One
// digest per case covers every packet of a four-rung ladder. The constants
// were recorded at the commit before the motion search and the quantizer were
// rewritten (4246db6, linux/amd64, go1.24) and change only when a PR
// means to change the bitstream; the footage is synth's float64, so they
// are checked on amd64 and 386 only (see internal/content/golden_test.go).
// Three rows (37x29 noise0/r7, noise12/r1, noise12/r7) were re-recorded
// when the rungs below the lead began to refine its motion vectors; every
// row was re-recorded when block modes became a 2-bit map per row with a
// vector-only mode (TKV2, EXPERIMENTS.md E50), which moved no pixel.
var hostileGolden = map[string]string{
	"37x29/noise0/r0":  "737465a2e27d54f404e225efb2430cc8f9fa588ecf12481ee962191496b11f91",
	"37x29/noise0/r1":  "de3bbb372801a30258c7ff5163179850f00c23c30b0661faf7e18493b6a2ec97",
	"37x29/noise0/r7":  "afabbecd387196d0081ecd5b7911ebb68275a1ef930e02da00f353d69d376f04",
	"37x29/noise12/r0": "9a68ef48b0a568b7125587ebe3c9ffca2e2ca9e5c41a9f354b4607acf17541cf",
	"37x29/noise12/r1": "2c00e257663d1419cfd7adca4697de0694faec8ec8fd5a9b7e7f2223ac9c1768",
	"37x29/noise12/r7": "9a7417a8ca2441875d9459e7b31b50ed0a83a7183f57f8bb5ebded8498cd4561",
	"8x8/noise0/r0":    "c7111b536b667fbbb6fa1a6c781b7509cee91a16c46acd0a40a66760ba57869a",
	"8x8/noise0/r1":    "1a4bf2de5c7ede3226bcd484421ad521fdf23339c67f5c2f56d858eab455aeec",
	"8x8/noise0/r7":    "988602e13f56d661bf31f7eb6e95644878da14837de525d53d28dcbc6e4131c6",
	"8x8/noise12/r0":   "42824aa5b46ef1fd45bd4b593bdc75c3b4bbbdcacdf3d1eb57e1d883a473ba03",
	"8x8/noise12/r1":   "e4a699cdefb8cfb18b6acb64d7de6533a61a024d0bdbaa4a723ab278b21acb7f",
	"8x8/noise12/r7":   "22bc92d465a50def904d319f2eeb45bea345850c0698fa7bece869faab26364b",
}

// hostileFrames renders a short two-shot film and follows it with solid
// black and white frames alternating, the largest residual the format can
// carry.
func hostileFrames(w, h, noiseAmp int) []*raster.Frame {
	film := synth.Generate(synth.Spec{
		W: w, H: h, FPS: 10, Shots: 2,
		MinShotFrames: 3, MaxShotFrames: 4, NoiseAmp: noiseAmp, Seed: 17,
	})
	var frames []*raster.Frame
	for i := 0; i < film.FrameCount(); i++ {
		frames = append(frames, film.Render(i))
	}
	for i := 0; i < 5; i++ {
		f := raster.New(w, h)
		if i%2 == 1 {
			f.Fill(raster.RGB{R: 255, G: 255, B: 255})
		}
		frames = append(frames, f)
	}
	return frames
}

func TestEncoderBytesGoldenHostile(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden checked on amd64 and 386; synth's float math may fuse differently on %s", runtime.GOARCH)
	}
	qsteps := []int{1, 4, 64, 128}
	for _, size := range [][2]int{{37, 29}, {8, 8}} {
		for _, amp := range []int{0, 12} {
			frames := hostileFrames(size[0], size[1], amp)
			for _, r := range []int{0, 1, 7} {
				name := fmt.Sprintf("%dx%d/noise%d/r%d", size[0], size[1], amp, r)
				enc, err := NewLadderEncoder(Config{Width: size[0], Height: size[1], GOP: 4, SearchRange: r}, qsteps)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.New()
				pkts := make([]Packet, len(qsteps))
				for _, f := range frames {
					if err := enc.Encode(f, pkts); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, p := range pkts {
						var n [4]byte
						binary.LittleEndian.PutUint32(n[:], uint32(len(p.Data)))
						sum.Write(n[:])
						sum.Write(p.Data)
					}
				}
				if got := hex.EncodeToString(sum.Sum(nil)); got != hostileGolden[name] {
					t.Errorf("%s: packets hash to %s, golden %s", name, got, hostileGolden[name])
				}
			}
		}
	}
}
