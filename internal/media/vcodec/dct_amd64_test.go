package vcodec

import (
	"math/rand"
	"testing"
)

// The SSE2 block-coding kernels against the Go functions they stand for.
// blockCoder-level checks that hold on every target are in kernel_test.go.

// residualBlock fills cur and pred, two 8×8 byte blocks with rows 8 apart,
// so that cur − pred is res, which must lie in ±255.
func residualBlock(res *[64]int32) (cur, pred [64]uint8) {
	for i, v := range res {
		if v >= 0 {
			cur[i], pred[i] = uint8(v), 0
		} else {
			cur[i], pred[i] = 0, uint8(-v)
		}
	}
	return cur, pred
}

// checkFDCT runs fdctSSE2 on the residual res and requires fdct8x8's
// coefficients, with the residual given as cur − pred and, where every
// sample of it is v − 128 for a byte v, as the intra form: cur against
// flat128 at stride 0.
func checkFDCT(t *testing.T, name string, res *[64]int32) {
	t.Helper()
	var want [64]int32
	fdct8x8(res, &want)
	cur, pred := residualBlock(res)
	var got [64]int16
	for i := range got {
		got[i] = -0x5A5A // fdctSSE2 must write every coefficient
	}
	fdctSSE2(&cur[0], blockSize, &pred[0], blockSize, &got)
	for i := range want {
		if int32(got[i]) != want[i] {
			t.Fatalf("%s: fdctSSE2 differs from fdct8x8 at %d: %d, want %d\nres %v", name, i, got[i], want[i], res)
		}
	}
	intra := true
	for i, v := range res {
		intra = intra && v >= -128 && v <= 127
		cur[i] = uint8(v + 128)
	}
	if !intra {
		return
	}
	fdctSSE2(&cur[0], blockSize, &flat128[0], 0, &got)
	for i := range want {
		if int32(got[i]) != want[i] {
			t.Fatalf("%s (intra form): fdctSSE2 differs from fdct8x8 at %d: %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestFDCTMatchesGo holds fdctSSE2 to fdct8x8: for each of the 64 outputs,
// the ±255 block shaped like its basis function (the residual that drives
// that output, and its sums, to the bound of TestFDCTMatrixBounds); both
// signs of it; the 64 ±255 impulses; flat blocks; and random blocks in ±255
// and ±128.
func TestFDCTMatchesGo(t *testing.T) {
	m := fdctMatrix()
	var res [64]int32
	for k := 0; k < 64; k++ {
		u, v := k/blockSize, k%blockSize // output (u,v) is m[u] ⊗ m[v]
		for i := range res {
			res[i] = 255
			if m[u][i/blockSize]*m[v][i%blockSize] < 0 {
				res[i] = -255
			}
		}
		checkFDCT(t, "extreme", &res)
		for i := range res {
			res[i] = -res[i]
		}
		checkFDCT(t, "negated extreme", &res)
	}
	for k := 0; k < 64; k++ {
		for _, v := range []int32{255, -255, 1, -1} {
			res = [64]int32{}
			res[k] = v
			checkFDCT(t, "impulse", &res)
		}
	}
	for _, v := range []int32{0, 1, -1, 127, -128, 255, -255} {
		for i := range res {
			res[i] = v
		}
		checkFDCT(t, "flat", &res)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20000; trial++ {
		span := int32(255)
		if trial%2 == 1 {
			span = 128
		}
		for i := range res {
			res[i] = rng.Int31n(2*span+1) - span
		}
		checkFDCT(t, "random", &res)
	}
}

// TestFDCTReadsItsRowsAtTheirStride runs fdctSSE2 on blocks inside wider
// planes, at every stride a plane can have up to 40 and with the prediction
// at a different stride from the block.
func TestFDCTReadsItsRowsAtTheirStride(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for stride := blockSize; stride <= 40; stride++ {
		cur, pred := make([]uint8, 8*stride), make([]uint8, 8*(stride+3))
		rng.Read(cur)
		rng.Read(pred)
		var res, want [64]int32
		for r := 0; r < blockSize; r++ {
			for c := 0; c < blockSize; c++ {
				res[r*blockSize+c] = int32(cur[r*stride+c]) - int32(pred[r*(stride+3)+c])
			}
		}
		fdct8x8(&res, &want)
		var got [64]int16
		fdctSSE2(&cur[0], stride, &pred[0], stride+3, &got)
		for i := range want {
			if int32(got[i]) != want[i] {
				t.Fatalf("stride %d: coefficient %d is %d, want %d", stride, i, got[i], want[i])
			}
		}
	}
}

// TestKernelsWriteOnlyTheirOutputs runs both kernels with their outputs
// between two canary blocks and their inputs between two more: each writes
// its 128 bytes and nothing beside them, and neither writes its input.
func TestKernelsWriteOnlyTheirOutputs(t *testing.T) {
	const canary = -0x3C3D
	var out [3][64]int16
	var in [3][64]int16
	for i := range out {
		for j := range out[i] {
			out[i][j], in[i][j] = canary, canary
		}
	}
	for j := range in[1] {
		in[1][j] = int16(j*255 - 8000)
	}
	inputs := in
	var cur [64]uint8
	for i := range cur {
		cur[i] = uint8(i * 4)
	}
	q := newQuantTable(3, true)
	for _, run := range []func(){
		func() { fdctSSE2(&cur[0], blockSize, &flat128[0], 0, &out[1]) },
		func() { quantSSE2(&in[1], &q, &out[1]) },
	} {
		run()
		for _, i := range []int{0, 2} {
			for j, v := range out[i] {
				if v != canary {
					t.Fatalf("word %d of the block %s the output was written", j, map[int]string{0: "before", 2: "after"}[i])
				}
			}
		}
		if in != inputs {
			t.Fatal("quantSSE2 wrote to its input")
		}
	}
}

// TestZigzagScanIsTheZigzag checks zigzagScan's permutation against zigzag
// and its sign extension, and that it writes the 64 levels and no more.
func TestZigzagScanIsTheZigzag(t *testing.T) {
	var nat [64]int16
	for p := range nat {
		nat[p] = int16(p*517 - 16000)
	}
	var scan [3][64]int32
	for i := range scan {
		for j := range scan[i] {
			scan[i][j] = -0x5A5A5A5A
		}
	}
	zigzagScan(&nat, &scan[1])
	for i, p := range zigzag {
		if scan[1][i] != int32(nat[p]) {
			t.Fatalf("scan position %d holds %d, want natural position %d's %d", i, scan[1][i], p, nat[p])
		}
	}
	for _, i := range []int{0, 2} {
		for j, v := range scan[i] {
			if v != -0x5A5A5A5A {
				t.Fatalf("word %d of the block beside the output was written", j)
			}
		}
	}
}

// maxCoefficient is the largest magnitude fdct8x8 emits for residuals in
// ±255: 64·255, the DC of a flat block.
const maxCoefficient = 64 * 255

// TestQuantizersMatchGo holds quantSSE2 with both tables to quantize and
// quantizeDeadzone at every step 1…128, over every coefficient the transform
// can emit (|v| ≤ maxCoefficient) at the DC and at every AC position, and
// its cost to codeCost of the same levels.
func TestQuantizersMatchGo(t *testing.T) {
	var inv [64]int // natural position → zigzag index
	for i, p := range zigzag {
		inv[p] = i
	}
	var coefs [64]int32
	var c16, got [64]int16
	var want [64]int32
	for qstep := 1; qstep <= 128; qstep++ {
		for _, round := range []bool{true, false} {
			q := newQuantTable(qstep, round)
			// Position p holds base + p, wrapped into the range: as base
			// walks the range, every position meets every value.
			for base := int32(-maxCoefficient); base <= maxCoefficient; base++ {
				for p := range coefs {
					v := base + int32(p)
					if v > maxCoefficient {
						v -= 2*maxCoefficient + 1
					}
					coefs[p], c16[p] = v, int16(v)
				}
				if round {
					quantize(&coefs, qstep, &want)
				} else {
					quantizeDeadzone(&coefs, qstep, &want)
				}
				cost := quantSSE2(&c16, &q, &got)
				for p := range got {
					if int32(got[p]) != want[inv[p]] {
						t.Fatalf("q%d round=%v: coefficient %d at %d quantizes to %d, want %d", qstep, round, coefs[p], p, got[p], want[inv[p]])
					}
				}
				if cost != codeCost(&want) {
					t.Fatalf("q%d round=%v: cost %d, codeCost %d", qstep, round, cost, codeCost(&want))
				}
			}
		}
	}
}

// TestQuantCostAtItsEdges checks quantSSE2's cost against codeCost, and
// cost == emptyCost against allZero, where the cost changes: levels of ±63
// and ±64 (one varint byte or two), all-zero blocks and blocks with every
// level set, at q1 where a level is the coefficient over 8.
func TestQuantCostAtItsEdges(t *testing.T) {
	q := newQuantTable(1, false) // levels = coefficient / 8, truncated
	var c16, nat [64]int16
	var levels [64]int32
	check := func(name string) {
		t.Helper()
		for i, p := range zigzag {
			levels[i] = int32(c16[p]) / 8
		}
		cost := quantSSE2(&c16, &q, &nat)
		if cost != codeCost(&levels) {
			t.Fatalf("%s: cost %d, codeCost %d (levels %v)", name, cost, codeCost(&levels), levels)
		}
		if (cost == emptyCost) != allZero(&levels) {
			t.Fatalf("%s: cost %d but allZero %v", name, cost, allZero(&levels))
		}
	}
	check("all zero")
	for _, lv := range []int16{63, -63, 64, -64, 1, -1, maxCoefficient / 8, -maxCoefficient / 8} {
		for p := range c16 {
			c16 = [64]int16{}
			c16[p] = 8 * lv
			check("one level")
			if abs16(lv) < maxCoefficient/8 {
				c16[p] = 8*lv + lv/abs16(lv)*7 // the same level, truncated from further out
				check("one level, truncated")
			}
		}
		for p := range c16 {
			c16[p] = 8 * lv
		}
		check("full")
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		for p := range c16 {
			c16[p] = 0
			if rng.Intn(3) == 0 {
				c16[p] = int16(8 * (rng.Intn(257) - 128))
			}
		}
		check("random 62…66")
	}
}

func abs16(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkFDCT times the transform over every block of one 160×120 luma
// plane's residual against the frame before: fdct8x8 on the residual it is
// handed (go); the same from the two blocks' bytes, as the Go path pays for
// it — two loadBlock and the subtraction first (go-from-bytes); and
// fdctSSE2, which does that whole job (sse2). BenchmarkCodeBlock is the
// whole stage.
func BenchmarkFDCT(b *testing.B) {
	film := benchFilm()
	ref, src := toYCbCr(film.Render(3)).y, toYCbCr(film.Render(4)).y
	var residuals [][64]int32
	for y0 := 0; y0 < src.h; y0 += blockSize {
		for x0 := 0; x0 < src.w; x0 += blockSize {
			var cur, pred [64]int32
			loadBlock(src, x0, y0, &cur)
			loadBlock(ref, x0, y0, &pred)
			for i := range cur {
				cur[i] -= pred[i]
			}
			residuals = append(residuals, cur)
		}
	}
	b.Run("go", func(b *testing.B) {
		var coefs [64]int32
		var sink int32
		for i := 0; i < b.N; i++ {
			for k := range residuals {
				fdct8x8(&residuals[k], &coefs)
				sink += coefs[1]
			}
		}
		benchSink = int(sink)
		b.ReportMetric(float64(len(residuals)), "blocks/op")
	})
	b.Run("go-from-bytes", func(b *testing.B) {
		var cur, pred, coefs [64]int32
		var sink int32
		for i := 0; i < b.N; i++ {
			for y0 := 0; y0 < src.h; y0 += blockSize {
				for x0 := 0; x0 < src.w; x0 += blockSize {
					loadBlock(src, x0, y0, &cur)
					loadBlock(ref, x0, y0, &pred)
					for k := range cur {
						pred[k] = cur[k] - pred[k]
					}
					fdct8x8(&pred, &coefs)
					sink += coefs[1]
				}
			}
		}
		benchSink = int(sink)
		b.ReportMetric(float64(len(residuals)), "blocks/op")
	})
	b.Run("sse2", func(b *testing.B) {
		var coefs [64]int16
		var sink int16
		for i := 0; i < b.N; i++ {
			for y0 := 0; y0 < src.h; y0 += blockSize {
				for x0 := 0; x0 < src.w; x0 += blockSize {
					o := y0*src.w + x0
					fdctSSE2(&src.pix[o], src.w, &ref.pix[o], ref.w, &coefs)
					sink += coefs[1]
				}
			}
		}
		benchSink = int(sink)
		b.ReportMetric(float64(len(residuals)), "blocks/op")
	})
}
