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
// hold for amd64 only (see internal/content/golden_test.go). Three rows
// (37x29 noise0/r7, noise12/r1, noise12/r7) were re-recorded when the rungs
// below the lead began to refine its motion vectors; the r0 rows and the
// 8x8 ones have no window to share and kept theirs.
var hostileGolden = map[string]string{
	"37x29/noise0/r0":  "37e79cc013c3425b56b816f3068926758d077102589728176196c49f21c3251c",
	"37x29/noise0/r1":  "685de6d666f005cf7e792cb5101189e45a48fa9981162961451dc7d86034ed49",
	"37x29/noise0/r7":  "711c9380e8f47fe2ea8dadc3942ee0ce27aea6c41972239ec02e0b4180572e60",
	"37x29/noise12/r0": "f8368ee25ec7bc8493a418d5dfe052498e6d1abb9aa67fa78d87ff2c3f6d1c4c",
	"37x29/noise12/r1": "5b5a8f145f427f24d27eb41587ab506a556ca4eeab8177031f6b643dbc065cbe",
	"37x29/noise12/r7": "0ff808d9d75b60e9bca5b7ba358d9eccaba44cabe275ada5ecc0be949b1fbdf9",
	"8x8/noise0/r0":    "081b395873b762c73f4e0b9d075e6ee00e6bd88b5b91ee88270316843bb028ef",
	"8x8/noise0/r1":    "728c41f2cb9c9127e9c51ff956012c434cf6b5983fda33932aaa203a9fde6cb9",
	"8x8/noise0/r7":    "67da8fd8e8d682ac71373da012c147abd8d0ba45ea0cf415702c8924abdf67c0",
	"8x8/noise12/r0":   "9b1e49b843794278f89870183c36a3dd687f19f16c91d6b1fb2b5b5960206d83",
	"8x8/noise12/r1":   "12dbfe078ce503a5867c7fe54c0f223761a061dbde124ddffae722a1bc74664a",
	"8x8/noise12/r7":   "427238b42f457f7b5200b9e21b0aa3d46d49ea7a9f648bb067ec1a192fe67294",
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
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; synth's float math may fuse differently on %s", runtime.GOARCH)
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
