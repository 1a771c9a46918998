// Package vcodec implements the TKV2 block video codec used by the IVGBL
// platform.
//
// TKV2 is a teaching-grade but complete codec in the JPEG/MPEG lineage:
// frames are converted to YCbCr with 4:2:0 chroma subsampling, split into
// 8×8 blocks, transformed with a type-II DCT, uniformly quantized, zigzag
// scanned and entropy coded with run-length + varint coding. Frames are
// either intra (I) or predicted (P); P-frame blocks choose per-block between
// SKIP (copy from the reference), motion compensation with coded residual,
// motion compensation alone, and intra coding. Block rows are independent
// chunks of the bitstream, each its blocks' modes at 2 bits a block and
// then their payloads; encode and decode walk them in order on the
// caller's goroutine.
//
// The transform is a scaled fixed-point integer DCT (Loeffler-Ligtenberg-
// Moshovitz butterfly, 13-bit constants): the hot path is pure int32/int64
// arithmetic with no float conversions. Coefficients carry three fractional
// bits (values are 8× the orthonormal DCT), which the quantizer folds into
// its divisor, so DC steps of half a unit stay exactly representable. Each
// pass of the forward butterfly is an exact integer matrix product before
// its descale (fdctMatrix), which is how the encoder's SSE2 block-coding
// stage computes it on amd64 (dct_amd64.s); so is each pass of the inverse
// (idctMatrix), which is how the SSE2 reconstruction stage computes it
// (recon_amd64.s).
//
// It substitutes for the DirectShow-era playback stack the paper relied on:
// what the IVGBL runtime needs from a codec is random access at segment
// boundaries (I-frames) and a realistic decode cost, both of which TKV2
// provides.
package vcodec

const blockSize = 8

// coefScaleBits is the fixed-point fractional precision of transform
// coefficients: fdct8x8 outputs (and coefBlock.idct inputs) are 2^3 = 8 times
// the orthonormal 2-D DCT values.
const coefScaleBits = 3

// Fixed-point butterfly constants: round(c * 2^constBits) for the rotation
// cosines of the Loeffler 8-point DCT.
const (
	constBits = 13
	pass1Bits = 2

	fix0_298631336 = 2446
	fix0_390180644 = 3196
	fix0_541196100 = 4433
	fix0_765366865 = 6270
	fix0_899976223 = 7373
	fix1_175875602 = 9633
	fix1_501321110 = 12299
	fix1_847759065 = 15137
	fix1_961570560 = 16069
	fix2_053119869 = 16819
	fix2_562915447 = 20995
	fix3_072711026 = 25172
)

// descale rounds x to the nearest integer after dropping n fractional bits
// (arithmetic shift, so negative values round correctly).
func descale(x int64, n uint) int64 {
	return (x + 1<<(n-1)) >> n
}

// fdct8x8 computes the 2-D forward DCT of src (row-major 64 samples) into
// dst using two 1-D butterfly passes. Outputs are scaled by 2^coefScaleBits
// relative to the orthonormal DCT (a constant block of value v produces
// DC = 64·v, AC exactly 0).
func fdct8x8(src *[64]int32, dst *[64]int32) {
	var tmp [64]int64
	// Rows. Outputs carry pass1Bits extra fractional bits, folded away in
	// the column pass.
	for i := 0; i < 64; i += 8 {
		s0, s7 := int64(src[i+0]), int64(src[i+7])
		s1, s6 := int64(src[i+1]), int64(src[i+6])
		s2, s5 := int64(src[i+2]), int64(src[i+5])
		s3, s4 := int64(src[i+3]), int64(src[i+4])

		a0, a7 := s0+s7, s0-s7
		a1, a6 := s1+s6, s1-s6
		a2, a5 := s2+s5, s2-s5
		a3, a4 := s3+s4, s3-s4

		t10, t13 := a0+a3, a0-a3
		t11, t12 := a1+a2, a1-a2
		tmp[i+0] = (t10 + t11) << pass1Bits
		tmp[i+4] = (t10 - t11) << pass1Bits
		z1 := (t12 + t13) * fix0_541196100
		tmp[i+2] = descale(z1+t13*fix0_765366865, constBits-pass1Bits)
		tmp[i+6] = descale(z1-t12*fix1_847759065, constBits-pass1Bits)

		z1 = a4 + a7
		z2 := a5 + a6
		z3 := a4 + a6
		z4 := a5 + a7
		z5 := (z3 + z4) * fix1_175875602
		a4 *= fix0_298631336
		a5 *= fix2_053119869
		a6 *= fix3_072711026
		a7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*(-fix1_961570560) + z5
		z4 = z4*(-fix0_390180644) + z5
		tmp[i+7] = descale(a4+z1+z3, constBits-pass1Bits)
		tmp[i+5] = descale(a5+z2+z4, constBits-pass1Bits)
		tmp[i+3] = descale(a6+z2+z3, constBits-pass1Bits)
		tmp[i+1] = descale(a7+z1+z4, constBits-pass1Bits)
	}
	// Columns.
	for c := 0; c < 8; c++ {
		s0, s7 := tmp[c], tmp[c+56]
		s1, s6 := tmp[c+8], tmp[c+48]
		s2, s5 := tmp[c+16], tmp[c+40]
		s3, s4 := tmp[c+24], tmp[c+32]

		a0, a7 := s0+s7, s0-s7
		a1, a6 := s1+s6, s1-s6
		a2, a5 := s2+s5, s2-s5
		a3, a4 := s3+s4, s3-s4

		t10, t13 := a0+a3, a0-a3
		t11, t12 := a1+a2, a1-a2
		dst[c] = int32(descale(t10+t11, pass1Bits))
		dst[c+32] = int32(descale(t10-t11, pass1Bits))
		z1 := (t12 + t13) * fix0_541196100
		dst[c+16] = int32(descale(z1+t13*fix0_765366865, constBits+pass1Bits))
		dst[c+48] = int32(descale(z1-t12*fix1_847759065, constBits+pass1Bits))

		z1 = a4 + a7
		z2 := a5 + a6
		z3 := a4 + a6
		z4 := a5 + a7
		z5 := (z3 + z4) * fix1_175875602
		a4 *= fix0_298631336
		a5 *= fix2_053119869
		a6 *= fix3_072711026
		a7 *= fix1_501321110
		z1 *= -fix0_899976223
		z2 *= -fix2_562915447
		z3 = z3*(-fix1_961570560) + z5
		z4 = z4*(-fix0_390180644) + z5
		dst[c+56] = int32(descale(a4+z1+z3, constBits+pass1Bits))
		dst[c+40] = int32(descale(a5+z2+z4, constBits+pass1Bits))
		dst[c+24] = int32(descale(a6+z2+z3, constBits+pass1Bits))
		dst[c+8] = int32(descale(a7+z1+z4, constBits+pass1Bits))
	}
}

// fdctMatrix returns the one 8×8 integer matrix both of fdct8x8's passes
// multiply by before their descale: a pass maps a line x to
// descale(Σₙ m[k][n]·x[n], s), s = constBits−pass1Bits for the rows and
// constBits+pass1Bits for the columns. The butterfly is integer sums and
// products, so it is exactly this product; the matrix is read off fdct8x8
// itself, not from cosines. An impulse of 2^constBits at row 0, column n
// leaves row 0 of the row pass as 2^pass1Bits·m[·][n], which the column
// pass's DC weight (2^constBits) carries unrounded into row 0 of the output.
func fdctMatrix() (m [8][8]int32) {
	for n := range blockSize {
		var src, dst [64]int32
		src[n] = 1 << constBits
		fdct8x8(&src, &dst)
		for k := range blockSize {
			m[k][n] = dst[k]
		}
	}
	return m
}

// coefBlock is one block's dequantized coefficients in natural (row-major)
// order, at the 2^coefScaleBits scale fdct8x8 produces, together with where
// they are: the decoder's quantized blocks are mostly empty, and idct skips
// what the masks say is not there. The masks may overstate (a coefficient
// whose dequantizing product wrapped to zero still counts); they must never
// understate. outside must be set when a coefficient lies beyond
// ±idctRange, where the amd64 transform's bound stops holding.
type coefBlock struct {
	coef    [64]int32
	cols    uint8 // bit c: column c holds a coefficient
	acs     uint8 // bit c: column c holds a coefficient below row 0
	outside bool  // some coefficient is not inIDCTRange
}

// idctRange bounds the coefficients the amd64 transform takes
// (TestIDCTMatrixBounds): 64·128, the DC of the largest intra residual, plus
// the 512 a rounding quantizer can add — every coefficient of an intra block.
// A motion-compensated residual spans ±255, so its coefficients can reach
// 64·255 + 512; no block of the demo ladders comes near (EXPERIMENTS.md E35),
// and a block that does is transformed by idct, as on every other target.
const idctRange = 64*128 + 512

// inIDCTRange reports whether |c| ≤ idctRange, in one compare. A c near the
// int32 ends wraps far from the interval, so it is refused too.
func inIDCTRange(c int32) bool {
	return uint32(c+idctRange) <= 2*idctRange
}

// Descale shifts of the two inverse passes. The coefficient scale is folded
// into both, so the extra fractional bits improve (never hurt)
// reconstruction accuracy.
const (
	idctColShift = constBits - pass1Bits + coefScaleBits
	idctRowShift = constBits + pass1Bits + coefScaleBits
)

// idctLine is the 8-point inverse butterfly of one column or row, before the
// descale: s0…s7 in frequency order in, the eight sums in sample order out.
func idctLine(s0, s1, s2, s3, s4, s5, s6, s7 int64) (d0, d1, d2, d3, d4, d5, d6, d7 int64) {
	z1 := (s2 + s6) * fix0_541196100
	t2 := z1 - s6*fix1_847759065
	t3 := z1 + s2*fix0_765366865
	t0 := (s0 + s4) << constBits
	t1 := (s0 - s4) << constBits
	t10, t13 := t0+t3, t0-t3
	t11, t12 := t1+t2, t1-t2

	o0, o1, o2, o3 := s7, s5, s3, s1
	z1 = o0 + o3
	z2 := o1 + o2
	z3 := o0 + o2
	z4 := o1 + o3
	z5 := (z3 + z4) * fix1_175875602
	o0 *= fix0_298631336
	o1 *= fix2_053119869
	o2 *= fix3_072711026
	o3 *= fix1_501321110
	z1 *= -fix0_899976223
	z2 *= -fix2_562915447
	z3 = z3*(-fix1_961570560) + z5
	z4 = z4*(-fix0_390180644) + z5
	o0 += z1 + z3
	o1 += z2 + z4
	o2 += z2 + z3
	o3 += z1 + z4
	return t10 + o3, t11 + o2, t12 + o1, t13 + o0, t13 - o0, t12 - o1, t11 - o2, t10 - o3
}

// idctMatrix returns the integer matrix idctLine multiplies by: its outputs
// are dₙ = Σₖ m[n][k]·sₖ, read off idctLine with unit impulses (the
// butterfly is integer sums, products and shifts, so it is exactly this
// product). Both passes of idct use it, with their own descale.
func idctMatrix() (m [8][8]int32) {
	for k := range blockSize {
		var s [blockSize]int64
		s[k] = 1
		d0, d1, d2, d3, d4, d5, d6, d7 := idctLine(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		for n, d := range [blockSize]int64{d0, d1, d2, d3, d4, d5, d6, d7} {
			m[n][k] = int32(d)
		}
	}
	return m
}

// flatDC is every sample idct writes for a block whose only coefficient is
// its DC term: each pass reduces to the descale of one term times
// 2^constBits.
func flatDC(dc int32) int32 {
	v := descale(int64(dc)<<constBits, idctColShift)
	return int32(descale(v<<constBits, idctRowShift))
}

// idct computes the 2-D inverse DCT of b into spatial samples: a column
// pass, then a row pass, each an idctLine and a rounding descale. It does
// only the part of that the masks leave, and every shortcut is the value the
// full butterfly would reach, not an approximation of it:
//
//   - a column with no coefficient transforms to eight zeros (every product
//     is 0 and descale(0) is 0), so it is left as the zeros tmp starts with;
//   - a column whose only coefficient e sits in row 0 has every odd and
//     rotated term 0, so all eight outputs are descale(e<<constBits);
//   - when column 0 is the only populated one, every row of the row pass is
//     in that same position and is eight copies of descale(tmp<<constBits).
//
// Integer products and sums are exact (and wrap identically when they wrap),
// so dropping terms known to be zero changes no bit.
func (b *coefBlock) idct(dst *[64]int32) {
	if b.cols == 0 {
		*dst = [64]int32{}
		return
	}
	src := &b.coef
	if b.cols == 1 && b.acs == 0 {
		// DC alone — most of the blocks that have any coefficient, from the
		// second rung down: both of the cases below at once, a flat block.
		flat := flatDC(src[0])
		for i := range dst {
			dst[i] = flat
		}
		return
	}
	var tmp [64]int64
	for c := 0; c < blockSize; c++ {
		bit := uint8(1) << c
		if b.cols&bit == 0 {
			continue
		}
		if b.acs&bit == 0 {
			v := descale(int64(src[c])<<constBits, idctColShift)
			tmp[c], tmp[c+8], tmp[c+16], tmp[c+24] = v, v, v, v
			tmp[c+32], tmp[c+40], tmp[c+48], tmp[c+56] = v, v, v, v
			continue
		}
		d0, d1, d2, d3, d4, d5, d6, d7 := idctLine(
			int64(src[c]), int64(src[c+8]), int64(src[c+16]), int64(src[c+24]),
			int64(src[c+32]), int64(src[c+40]), int64(src[c+48]), int64(src[c+56]))
		tmp[c], tmp[c+8] = descale(d0, idctColShift), descale(d1, idctColShift)
		tmp[c+16], tmp[c+24] = descale(d2, idctColShift), descale(d3, idctColShift)
		tmp[c+32], tmp[c+40] = descale(d4, idctColShift), descale(d5, idctColShift)
		tmp[c+48], tmp[c+56] = descale(d6, idctColShift), descale(d7, idctColShift)
	}
	if b.cols == 1 {
		for i := 0; i < 64; i += blockSize {
			v := int32(descale(tmp[i]<<constBits, idctRowShift))
			row := dst[i : i+blockSize : i+blockSize]
			for k := range row {
				row[k] = v
			}
		}
		return
	}
	for i := 0; i < 64; i += blockSize {
		t := tmp[i : i+blockSize : i+blockSize]
		d0, d1, d2, d3, d4, d5, d6, d7 := idctLine(t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7])
		row := dst[i : i+blockSize : i+blockSize]
		row[0], row[1] = int32(descale(d0, idctRowShift)), int32(descale(d1, idctRowShift))
		row[2], row[3] = int32(descale(d2, idctRowShift)), int32(descale(d3, idctRowShift))
		row[4], row[5] = int32(descale(d4, idctRowShift)), int32(descale(d5, idctRowShift))
		row[6], row[7] = int32(descale(d6, idctRowShift)), int32(descale(d7, idctRowShift))
	}
}

// zigzag maps scan order → block position, walking the 8×8 grid in the
// classic diagonal pattern so low-frequency coefficients come first and
// run-length coding sees long zero tails.
var zigzag = buildZigzag()

func buildZigzag() [64]int {
	var zz [64]int
	x, y, idx := 0, 0, 0
	up := true
	for idx < 64 {
		zz[idx] = y*blockSize + x
		idx++
		if up {
			switch {
			case x == blockSize-1:
				y++
				up = false
			case y == 0:
				x++
				up = false
			default:
				x++
				y--
			}
		} else {
			switch {
			case y == blockSize-1:
				x++
				up = true
			case x == 0:
				y++
				up = true
			default:
				x--
				y++
			}
		}
	}
	return zz
}

// quantDivisors returns the integer divisors for the DC and AC coefficients
// at the given quantizer step, in the 2^coefScaleBits coefficient domain.
// The DC coefficient uses half the step (minimum 1): DC errors are the most
// visible, they shift the whole block's brightness. Half-unit DC steps are
// exact here — that is why the coefficient scale exists.
func quantDivisors(qstep int) (dcDiv, acDiv int32) {
	dcDiv = int32(qstep) << (coefScaleBits - 1)
	if dcDiv < 1<<coefScaleBits {
		dcDiv = 1 << coefScaleBits
	}
	return dcDiv, int32(qstep) << coefScaleBits
}

// The quantizers divide 63 coefficients by one divisor, so they multiply by
// its reciprocal instead: for a divisor d, m = 2³²/d + 1 makes n·m>>32 equal
// n/d for every 0 ≤ n with n·d < 2³². Divisors stop at 128<<coefScaleBits =
// 1024, which leaves numerators below 2²² exact; an fdct8x8 output stays
// under 2¹⁵ (64·255, the DC of a full-range residual, is the largest) and
// the rounding bias adds at most 512.
func reciprocal(d int32) uint64 {
	return 1<<32/uint64(d) + 1
}

// divSigned returns (|v|+bias)/d carrying v's sign, for m = reciprocal(d):
// truncation toward zero with bias 0, rounding half away from zero with
// bias d/2 (what math.Round did in the seed's float path).
func divSigned(v, bias int32, m uint64) int32 {
	sign := v >> 31 // 0 or −1
	mag := (v ^ sign) - sign
	q := int32(uint64(mag+bias) * m >> 32)
	return (q ^ sign) - sign
}

// quantize converts scaled DCT coefficients to integer levels with a
// uniform step, rounding to nearest.
func quantize(coefs *[64]int32, qstep int, levels *[64]int32) {
	dcDiv, acDiv := quantDivisors(qstep)
	levels[0] = divSigned(coefs[zigzag[0]], dcDiv>>1, reciprocal(dcDiv))
	half, m := acDiv>>1, reciprocal(acDiv)
	for i := 1; i < 64; i++ {
		levels[i] = divSigned(coefs[zigzag[i]], half, m)
	}
}

// quantizeDeadzone is the residual-path quantizer: it truncates toward zero
// instead of rounding, giving a dead zone of ±qstep around zero. Without it,
// P-frames endlessly re-code the previous frame's quantization noise and
// static content never collapses to skip blocks.
func quantizeDeadzone(coefs *[64]int32, qstep int, levels *[64]int32) {
	dcDiv, acDiv := quantDivisors(qstep)
	levels[0] = divSigned(coefs[zigzag[0]], 0, reciprocal(dcDiv))
	m := reciprocal(acDiv)
	for i := 1; i < 64; i++ {
		levels[i] = divSigned(coefs[zigzag[i]], 0, m)
	}
}

// deadZoneSAD returns the SAD below which quantizeDeadzone at qstep zeroes
// every coefficient fdct8x8 makes of a residual: acDiv/2, which is 4·qstep.
// A motion-compensated candidate whose search SAD is under it is the empty
// level set, so the encoder does not transform it (the all-zero-block test
// of H.264 encoders, exact here because the transform is integer).
//
// A level is zero when its coefficient's magnitude is under its divisor.
// The DC is the residual's sum exactly — the row pass's and the column
// pass's DC rows only add — so |DC| ≤ SAD < acDiv/2 ≤ dcDiv. An AC
// coefficient is two fdctMatrix products, each descaled once (an error of at
// most ½): with w = 11 363 the largest |m[k][n]|, a row of the row pass is at
// most w·S/2^11 + ½ for a residual row of absolute sum S, and the column
// pass weighs eight of them by at most w/2^15, so
//
//	|AC| ≤ (w/2^13)²·SAD + w/2^13 + ½ < 1.9241·SAD + 1.8871.
//
// At SAD = acDiv/2 − 1 that is below 0.9621·acDiv − 0.037 < acDiv. The DC
// side is tight from qstep 2 up, where acDiv/2 = dcDiv and a residual of
// one sign summing to dcDiv keeps a DC level. TestDeadZoneExitIsExact
// re-derives w from fdctMatrix and holds every step 1…128 to the bound.
func deadZoneSAD(qstep int) int32 {
	_, acDiv := quantDivisors(qstep)
	return acDiv >> 1
}
