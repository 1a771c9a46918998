package vcodec

import (
	"fmt"
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
				mx, my, _ := motionSearch(&packed, ref, x0, y0, 3)
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
				var t intraCoefs
				coder.inter(src, x0, y0, ref, x0, y0, &mc)
				intraTransform(src, x0, y0, &t)
				coder.intra(&t, &in)
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

// The three loops around the block coder (EXPERIMENTS.md E44), each beside
// the reference it replaced (oracle_test.go), in one binary.

// BenchmarkFromFrame160x120 converts one noisy 160×120 frame to padded
// YCbCr 4:2:0, the conversion every encoded frame pays once for all rungs:
// "rowpairs" is fromFrame, "twopass" fromFrameRef.
func BenchmarkFromFrame160x120(b *testing.B) {
	f := benchFilm().Render(3)
	img := newYCbCr(f.W, f.H)
	fullCb, fullCr := make([]uint8, img.y.w*img.y.h), make([]uint8, img.y.w*img.y.h)
	b.Run("rowpairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img.fromFrame(f)
		}
	})
	b.Run("twopass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img.fromFrameRef(f, fullCb, fullCr)
		}
	})
}

// BenchmarkWriteLevels writes the levels of the 300 luma blocks of one
// 160×120 P-frame at step 8, each the cheaper of its two candidates as
// encodeBlockRow picks it: "mask" is writeLevels, "pairs" writeLevelsRef.
func BenchmarkWriteLevels(b *testing.B) {
	film := benchFilm()
	ref, src := toYCbCr(film.Render(3)).y, toYCbCr(film.Render(4)).y
	coder := newBlockCoder(8)
	var blocks [][64]int32
	var mc, in candidate
	for y0 := 0; y0 < src.h; y0 += blockSize {
		for x0 := 0; x0 < src.w; x0 += blockSize {
			var t intraCoefs
			coder.inter(src, x0, y0, ref, x0, y0, &mc)
			intraTransform(src, x0, y0, &t)
			coder.intra(&t, &in)
			chosen := &in
			if mc.cost()+1 <= in.cost() {
				chosen = &mc
			}
			blocks = append(blocks, *chosen.levels())
		}
	}
	for _, bench := range []struct {
		name  string
		write func(*byteWriter, *[64]int32)
	}{{"mask", writeLevels}, {"pairs", writeLevelsRef}} {
		b.Run(bench.name, func(b *testing.B) {
			var w byteWriter
			for i := 0; i < b.N; i++ {
				w.reset()
				for k := range blocks {
					bench.write(&w, &blocks[k])
				}
			}
			b.ReportMetric(float64(len(w.buf))/float64(len(blocks)), "bytes/block")
		})
	}
}

// reconCall is one luma block of a real stream as decodeBlockRow meets it:
// its mode, its coefficients and its prediction — the block of ref at
// (px,py), or none for intra.
type reconCall struct {
	mode   uint8
	blk    coefBlock
	ref    *plane
	px, py int
	x0, y0 int
}

// reconCalls decodes the 16 frames of the root package's decode benchmarks
// (benchFilm, GOP 8, search range 3) at qstep and returns every luma block's
// call, read the way decodeBlockRow reads it, with the reference the
// decoder held for it.
func reconCalls(b *testing.B, qstep int) []reconCall {
	film := benchFilm()
	enc, err := NewEncoder(Config{Width: 160, Height: 120, QStep: qstep, GOP: 8, SearchRange: 3})
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	var calls []reconCall
	for i := 0; i < 16; i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			b.Fatal(err)
		}
		var ref *plane
		if pkt.Type == PFrame {
			ref = newPlane(dec.ref.y.w, dec.ref.y.h)
			copy(ref.pix, dec.ref.y.pix)
		}
		calls = append(calls, lumaCalls(b, pkt.Data, ref)...)
		if err := dec.Advance(pkt.Data); err != nil {
			b.Fatal(err)
		}
	}
	return calls
}

// lumaCalls walks the luma plane of one packet.
func lumaCalls(b *testing.B, pkt []byte, ref *plane) []reconCall {
	r := &byteReader{buf: pkt}
	var hdr [3]uint64
	_, _ = r.slice(5) // magic, frame type
	for i := range hdr {
		hdr[i], _ = r.uvarint()
	}
	_, _ = r.u8()
	w, h, qstep := padUp(int(hdr[0])), padUp(int(hdr[1])), int(hdr[2])
	rows, _ := r.uvarint()
	lengths := make([]int, rows)
	for i := range lengths {
		n, _ := r.uvarint()
		lengths[i] = int(n)
	}
	dcDiv, acDiv := quantDivisors(qstep)
	var calls []reconCall
	for by, n := range lengths {
		chunk, err := r.slice(n)
		if err != nil {
			b.Fatal(err)
		}
		modes := chunk[:modeMapBytes(w/blockSize)]
		cr := &byteReader{buf: chunk, pos: len(modes)}
		for x0 := 0; x0 < w; x0 += blockSize {
			c := reconCall{ref: ref, x0: x0, y0: by * blockSize, px: x0, py: by * blockSize}
			bx := x0 / blockSize
			c.mode = modes[bx/4] >> (2 * (bx % 4)) & 3
			if c.mode == modeMC || c.mode == modeVector {
				mvb, _ := cr.u8()
				mvx, mvy := unpackMV(mvb)
				c.px, c.py = x0+mvx, c.y0+mvy
			}
			if c.mode == modeIntra || c.mode == modeMC {
				if err := c.blk.read(cr, dcDiv, acDiv); err != nil {
					b.Fatal(err)
				}
			}
			calls = append(calls, c)
		}
	}
	if len(calls) != w/blockSize*(h/blockSize) {
		b.Fatalf("%d luma blocks, want %d", len(calls), w/blockSize*(h/blockSize))
	}
	return calls
}

// BenchmarkReconstruct times the reconstruction stage alone, one kind of
// block at a time, on the blocks of real q4 and q24 streams: skip (the
// block copy), dc-intra and dc-mc (a DC term alone, against flat 128 and
// against a motion-compensated prediction), sparse (one column of
// coefficients: idct's shortcut) and dense (the whole transform). One op is
// 300 blocks — a 160×120 luma plane's worth — taken in stream order and
// written where the stream puts them.
func BenchmarkReconstruct(b *testing.B) {
	kinds := []struct {
		name string
		is   func(c *reconCall) bool
	}{
		{"skip", func(c *reconCall) bool { return c.mode == modeSkip }},
		{"dc-intra", func(c *reconCall) bool { return c.mode == modeIntra && c.blk.cols == 1 && c.blk.acs == 0 }},
		{"dc-mc", func(c *reconCall) bool { return c.mode == modeMC && c.blk.cols == 1 && c.blk.acs == 0 }},
		{"sparse", func(c *reconCall) bool { return c.mode != modeSkip && c.blk.cols == 1 && c.blk.acs != 0 }},
		{"dense", func(c *reconCall) bool { return c.mode != modeSkip && c.blk.cols > 1 }},
	}
	for _, qstep := range []int{4, 24} {
		calls := reconCalls(b, qstep)
		for _, k := range kinds {
			b.Run(fmt.Sprintf("q%d/%s", qstep, k.name), func(b *testing.B) {
				var picked []reconCall
				for i := range calls {
					if k.is(&calls[i]) {
						picked = append(picked, calls[i])
					}
				}
				if len(picked) == 0 {
					b.Skip("no such block in the stream")
				}
				const perOp = 300
				dst := newPlane(160, 120)
				b.ReportMetric(float64(len(picked)), "blocks-drawn")
				b.ResetTimer()
				next := 0
				for i := 0; i < b.N; i++ {
					for j := 0; j < perOp; j++ {
						c := &picked[next]
						if next++; next == len(picked) {
							next = 0
						}
						switch c.mode {
						case modeSkip:
							copyBlock(c.ref, c.x0, c.y0, dst, c.x0, c.y0)
						case modeIntra:
							reconstruct(&c.blk, nil, 0, 0, dst, c.x0, c.y0)
						default:
							reconstruct(&c.blk, c.ref, c.px, c.py, dst, c.x0, c.y0)
						}
					}
				}
			})
		}
	}
}

var benchSink int
