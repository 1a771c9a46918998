package vcodec

import (
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

// BenchmarkToFrame160x120 times the colour pass alone — chroma upsample plus
// YCbCr→RGB of one 160×120 image into a recycled frame — the share of a
// presented frame that the root package's BenchmarkDecode160x120 has over
// BenchmarkAdvance160x120. It lives here because the pass has no exported
// entry point of its own.
func BenchmarkToFrame160x120(b *testing.B) {
	film := synth.Generate(synth.Spec{
		W: 160, H: 120, FPS: 10, Shots: 2,
		MinShotFrames: 15, MaxShotFrames: 16, NoiseAmp: 2, Seed: 5,
	})
	img := toYCbCr(film.Render(3))
	var frame raster.Frame
	var blend []uint32
	b.SetBytes(160 * 120 * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blend = img.toFrameInto(&frame, blend)
	}
}
