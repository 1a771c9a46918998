package vcodec

import (
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

// benchFilm is the root package's encode and decode benchmark footage.
func benchFilm() *synth.Film { return benchFilmSized(160, 120) }

func benchFilmSized(w, h int) *synth.Film {
	return synth.Generate(synth.Spec{
		W: w, H: h, FPS: 10, Shots: 2,
		MinShotFrames: 15, MaxShotFrames: 16, NoiseAmp: 2, Seed: 5,
	})
}

// BenchmarkToFrame160x120 times the colour pass alone — chroma upsample plus
// YCbCr→RGB of one 160×120 image into a recycled frame — the share of a
// presented frame that the root package's BenchmarkDecode160x120 has over
// BenchmarkAdvance160x120. It lives here because the pass has no exported
// entry point of its own.
func BenchmarkToFrame160x120(b *testing.B) {
	benchToFrame(b, 160, 120, (*ycbcr).toFrameInto)
}

// BenchmarkToFrame161x121 is a size no row of which is whole steps of
// sixteen: on amd64 every row ends in the per-pixel Go tail, and the odd
// width takes the edge that has no replicated last column.
func BenchmarkToFrame161x121(b *testing.B) {
	benchToFrame(b, 161, 121, (*ycbcr).toFrameInto)
}

// BenchmarkToFramePortable160x120 is the Go rows alone, the pass of every
// target but amd64 — timed here because this is where it can be.
func BenchmarkToFramePortable160x120(b *testing.B) {
	benchToFrame(b, 160, 120, (*ycbcr).toFrameIntoPortable)
}

func benchToFrame(b *testing.B, w, h int, pass func(*ycbcr, *raster.Frame, []uint16) []uint16) {
	img := toYCbCr(benchFilmSized(w, h).Render(3))
	var frame raster.Frame
	var scratch []uint16
	b.SetBytes(int64(3 * w * h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = pass(img, &frame, scratch)
	}
}

// The two encode kernels, each with its own ns/op beside the root package's
// BenchmarkRecordLadder, which they are a share of (EXPERIMENTS.md E29).

// BenchmarkMotionSearch160x120 searches every block of one 160×120 luma
// plane against the frame before it at the default range, r = 3: the motion
// search a P-frame pays per rung, less the perfect-skip shortcut.
func BenchmarkMotionSearch160x120(b *testing.B) {
	film := benchFilm()
	ref, src := toYCbCr(film.Render(3)).y, toYCbCr(film.Render(4)).y
	var packed packedBlock
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y0 := 0; y0 < src.h; y0 += blockSize {
			for x0 := 0; x0 < src.w; x0 += blockSize {
				packed.load(src, x0, y0)
				mx, my := motionSearch(&packed, ref, x0, y0, 3)
				sink += mx + my
			}
		}
	}
	benchSink = sink
	b.ReportMetric(float64(src.w/blockSize*src.h/blockSize), "blocks/op")
}

// BenchmarkQuantize runs both quantizers over every block of the same plane
// pair at the canonical rung's step, what a coded P-block pays: the residual
// against the co-located reference block through quantizeDeadzone, the intra
// candidate through quantize. A whole plane rather than one block, because
// the coefficients' signs are what a branching quantizer mispredicts on and
// one block's 64 signs are soon learnt.
func BenchmarkQuantize(b *testing.B) {
	film := benchFilm()
	ref, src := toYCbCr(film.Render(3)).y, toYCbCr(film.Render(4)).y
	var intra, residual [][64]int32
	for y0 := 0; y0 < src.h; y0 += blockSize {
		for x0 := 0; x0 < src.w; x0 += blockSize {
			var cur, pred, coefs [64]int32
			loadBlock(src, x0, y0, &cur)
			loadBlock(ref, x0, y0, &pred)
			for i := range cur {
				pred[i] = cur[i] - pred[i]
				cur[i] -= 128
			}
			fdct8x8(&cur, &coefs)
			intra = append(intra, coefs)
			fdct8x8(&pred, &coefs)
			residual = append(residual, coefs)
		}
	}
	var levels [64]int32
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range intra {
			quantize(&intra[k], 8, &levels)
			sink += int(levels[1])
			quantizeDeadzone(&residual[k], 8, &levels)
			sink += int(levels[1])
		}
	}
	benchSink = sink
	b.ReportMetric(float64(len(intra)), "blocks/op")
}

// BenchmarkCodeBlock runs the block-coding stage over the same plane pair at
// the same step, from bytes to levels and their cost, the way
// encodeBlockRow codes a P-block that is not skipped: both candidates, and
// the cheaper one's levels in scan order. It is SSE2 on amd64 and the Go
// functions elsewhere — the stage fdct8x8, both quantizers and codeCost make
// up, with the loads and residuals they need.
func BenchmarkCodeBlock(b *testing.B) {
	film := benchFilm()
	ref, src := toYCbCr(film.Render(3)).y, toYCbCr(film.Render(4)).y
	coder := newBlockCoder(8)
	var mc, in candidate
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y0 := 0; y0 < src.h; y0 += blockSize {
			for x0 := 0; x0 < src.w; x0 += blockSize {
				coder.load(src, x0, y0)
				coder.inter(ref, x0, y0, &mc)
				coder.intra(&in)
				chosen := &in
				if mc.cost()+1 <= in.cost() {
					chosen = &mc
				}
				sink += int(chosen.levels()[1])
			}
		}
	}
	benchSink = sink
	b.ReportMetric(float64(src.w/blockSize*src.h/blockSize), "blocks/op")
}

var benchSink int
