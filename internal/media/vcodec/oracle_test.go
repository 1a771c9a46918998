package vcodec

import (
	"fmt"

	"repro/internal/media/raster"
)

// The decode kernels as they stood before the sparse block reconstruction
// and the row-separable colour pass replaced them (PR 18), kept verbatim as
// the oracles the new kernels are held to — the way motion_test.go keeps the
// scalar motion search. Nothing outside tests calls these.

// idct8x8 computes the 2-D inverse DCT of src (coefficients scaled by
// 2^coefScaleBits, as produced by fdct8x8/dequantize) into spatial samples.
// The coefficient scale is folded into the first descale, so the extra
// fractional bits improve (never hurt) reconstruction accuracy.
func idct8x8(src *[64]int32, dst *[64]int32) {
	var tmp [64]int64
	// Columns.
	for c := 0; c < 8; c++ {
		e2, e6 := int64(src[c+16]), int64(src[c+48])
		z1 := (e2 + e6) * fix0_541196100
		t2 := z1 - e6*fix1_847759065
		t3 := z1 + e2*fix0_765366865
		e0, e4 := int64(src[c]), int64(src[c+32])
		t0 := (e0 + e4) << constBits
		t1 := (e0 - e4) << constBits
		t10, t13 := t0+t3, t0-t3
		t11, t12 := t1+t2, t1-t2

		o0 := int64(src[c+56])
		o1 := int64(src[c+40])
		o2 := int64(src[c+24])
		o3 := int64(src[c+8])
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

		const shift = constBits - pass1Bits + coefScaleBits
		tmp[c] = descale(t10+o3, shift)
		tmp[c+56] = descale(t10-o3, shift)
		tmp[c+8] = descale(t11+o2, shift)
		tmp[c+48] = descale(t11-o2, shift)
		tmp[c+16] = descale(t12+o1, shift)
		tmp[c+40] = descale(t12-o1, shift)
		tmp[c+24] = descale(t13+o0, shift)
		tmp[c+32] = descale(t13-o0, shift)
	}
	// Rows.
	for i := 0; i < 64; i += 8 {
		e2, e6 := tmp[i+2], tmp[i+6]
		z1 := (e2 + e6) * fix0_541196100
		t2 := z1 - e6*fix1_847759065
		t3 := z1 + e2*fix0_765366865
		e0, e4 := tmp[i], tmp[i+4]
		t0 := (e0 + e4) << constBits
		t1 := (e0 - e4) << constBits
		t10, t13 := t0+t3, t0-t3
		t11, t12 := t1+t2, t1-t2

		o0, o1, o2, o3 := tmp[i+7], tmp[i+5], tmp[i+3], tmp[i+1]
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

		const shift = constBits + pass1Bits + coefScaleBits
		dst[i+0] = int32(descale(t10+o3, shift))
		dst[i+7] = int32(descale(t10-o3, shift))
		dst[i+1] = int32(descale(t11+o2, shift))
		dst[i+6] = int32(descale(t11-o2, shift))
		dst[i+2] = int32(descale(t12+o1, shift))
		dst[i+5] = int32(descale(t12-o1, shift))
		dst[i+3] = int32(descale(t13+o0, shift))
		dst[i+4] = int32(descale(t13-o0, shift))
	}
}

// roundDiv divides rounding half away from zero (matching math.Round in the
// seed's float path). d must be positive. The quantizers multiply by a
// reciprocal instead; this division is what they are held to.
func roundDiv(v, d int32) int32 {
	if v >= 0 {
		return (v + d/2) / d
	}
	return (v - d/2) / d
}

// dequantize reverses quantize into natural (row-major) coefficient order,
// producing coefficients at the 2^coefScaleBits scale idct8x8 expects.
func dequantize(levels *[64]int32, qstep int, coefs *[64]int32) {
	dcDiv, acDiv := quantDivisors(qstep)
	for i := range coefs {
		coefs[i] = 0
	}
	coefs[zigzag[0]] = levels[0] * dcDiv
	for i := 1; i < 64; i++ {
		if levels[i] != 0 {
			coefs[zigzag[i]] = levels[i] * acDiv
		}
	}
}

// allZero is the skip test encodeBlockRow made before its block-coding stage
// returned a cost; cost == emptyCost is held to it.
func allZero(levels *[64]int32) bool {
	for _, l := range levels {
		if l != 0 {
			return false
		}
	}
	return true
}

// readLevels reverses writeLevels.
func readLevels(r *byteReader, levels *[64]int32) error {
	for i := range levels {
		levels[i] = 0
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > 64 {
		return fmt.Errorf("%w: %d coefficient pairs in one block", ErrCorrupt, n)
	}
	idx := 0
	for p := uint64(0); p < n; p++ {
		run, err := r.uvarint()
		if err != nil {
			return err
		}
		// Bound the run before converting: a 64-bit run would wrap int(run)
		// negative and walk off the front of the block.
		if run > 63 {
			return fmt.Errorf("%w: zero run %d out of range", ErrCorrupt, run)
		}
		lvl, err := r.varint()
		if err != nil {
			return err
		}
		idx += int(run)
		if idx >= 64 {
			return fmt.Errorf("%w: zigzag index %d out of range", ErrCorrupt, idx)
		}
		if lvl == 0 {
			return fmt.Errorf("%w: explicit zero level", ErrCorrupt)
		}
		levels[idx] = int32(lvl)
		idx++
	}
	return nil
}

// toFrameIntoRef is the per-pixel colour conversion: every output pixel
// locates its four chroma neighbours, clamps their indices and blends them
// with eight multiplies before the BT.601 arithmetic.
func (img *ycbcr) toFrameIntoRef(dst *raster.Frame) {
	dst.W, dst.H = img.w, img.h
	need := 3 * img.w * img.h
	if cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need)
	} else {
		dst.Pix = dst.Pix[:need]
	}
	halfW, halfH := (img.w+1)/2, (img.h+1)/2
	// Chroma sits at half resolution with a half-sample phase offset, so
	// every upsample position is an exact quarter-pixel: bilinear weights in
	// quarter units (fixed point, 2+2 fractional bits) reproduce the exact
	// interpolation with no float math.
	for y := 0; y < img.h; y++ {
		yq := 2*y - 1 // chroma row position in quarter units
		if yq < 0 {
			yq = 0
		}
		if yq > 4*(halfH-1) {
			yq = 4 * (halfH - 1)
		}
		cy0 := yq >> 2
		ty := int32(yq & 3)
		cy1 := cy0 + 1
		if cy1 >= halfH {
			cy1 = halfH - 1
		}
		cbr0, cbr1 := img.cb.row(0, cy0, halfW), img.cb.row(0, cy1, halfW)
		crr0, crr1 := img.cr.row(0, cy0, halfW), img.cr.row(0, cy1, halfW)
		yrow := img.y.row(0, y, img.w)
		drow := dst.Pix[3*y*dst.W : 3*(y+1)*dst.W]
		for x := 0; x < img.w; x++ {
			xq := 2*x - 1
			if xq < 0 {
				xq = 0
			}
			if xq > 4*(halfW-1) {
				xq = 4 * (halfW - 1)
			}
			cx0 := xq >> 2
			tx := int32(xq & 3)
			cx1 := cx0 + 1
			if cx1 >= halfW {
				cx1 = halfW - 1
			}
			cb := ((int32(cbr0[cx0])*(4-tx)+int32(cbr0[cx1])*tx)*(4-ty) +
				(int32(cbr1[cx0])*(4-tx)+int32(cbr1[cx1])*tx)*ty + 8) >> 4
			cr := ((int32(crr0[cx0])*(4-tx)+int32(crr0[cx1])*tx)*(4-ty) +
				(int32(crr1[cx0])*(4-tx)+int32(crr1[cx1])*tx)*ty + 8) >> 4
			cb -= 128
			cr -= 128
			yy := int32(yrow[x])
			r := yy + (359 * cr >> 8)
			g := yy - (88 * cb >> 8) - (183 * cr >> 8)
			b := yy + (454 * cb >> 8)
			drow[3*x] = clamp255(r)
			drow[3*x+1] = clamp255(g)
			drow[3*x+2] = clamp255(b)
		}
	}
}

// reconstructMCRef is the dense motion-compensated reconstruction: every
// block, residual or not, is dequantized, transformed and added.
func reconstructMCRef(ref, recon *plane, x0, y0, mvx, mvy, qstep int, levels *[64]int32) {
	var coefs, rec [64]int32
	dequantize(levels, qstep, &coefs)
	idct8x8(&coefs, &rec)
	for r := 0; r < blockSize; r++ {
		pred := ref.row(x0+mvx, y0+mvy+r, blockSize)
		dst := recon.row(x0, y0+r, blockSize)
		for k := range dst {
			dst[k] = clamp255(int32(pred[k]) + rec[r*blockSize+k])
		}
	}
}

// reconstructIntraRef is the dense intra reconstruction.
func reconstructIntraRef(recon *plane, x0, y0, qstep int, levels *[64]int32) {
	var coefs, rec [64]int32
	dequantize(levels, qstep, &coefs)
	idct8x8(&coefs, &rec)
	for r := 0; r < blockSize; r++ {
		dst := recon.row(x0, y0+r, blockSize)
		for k := range dst {
			dst[k] = clamp255(rec[r*blockSize+k] + 128)
		}
	}
}

// toFrame converts to a freshly allocated RGB frame with the production
// colour pass.
func (img *ycbcr) toFrame() *raster.Frame {
	f := new(raster.Frame)
	img.toFrameInto(f, nil)
	return f
}

// toFrameIntoPortable is toFrameInto over the Go row functions alone: the
// colour pass of every target but amd64, and the oracle of the SSE2 rows on
// it.
func (img *ycbcr) toFrameIntoPortable(dst *raster.Frame, scratch []uint16) []uint16 {
	scratch = img.sizeFrame(dst, scratch)
	stride := img.colourStride()
	vcb, vcr := scratch[:stride], scratch[stride:]
	for y := 0; y < img.h; y++ {
		cb0, cb1, cr0, cr1, ty := img.chromaRows(y)
		blendChromaPortable(vcb, vcr, cb0, cb1, cr0, cr1, ty, (img.w+1)/2)
		colourRowPortable(dst.Pix[3*y*img.w:3*(y+1)*img.w], img.y.row(0, y, img.w), vcb, vcr)
	}
	return scratch
}

// refDecoder is a whole-packet decoder over the oracle kernels: the same
// header and row-table parsing as Decoder.decode, single-threaded, with
// readLevels + dequantize + idct8x8 + the per-pixel colour formula under it.
// The differential fuzz target runs it beside the real decoder.
type refDecoder struct {
	ref *ycbcr
}

func (d *refDecoder) decode(data []byte) (*raster.Frame, error) {
	r := &byteReader{buf: data}
	mg, err := r.slice(4)
	if err != nil || string(mg) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ftb, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ft := FrameType(ftb); ft != IFrame && ft != PFrame {
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, ftb)
	}
	var hdr [3]uint64
	for i := range hdr {
		if hdr[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	if _, err := r.u8(); err != nil {
		return nil, err
	}
	w, h, qstep := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || qstep < 1 || qstep > 128 {
		return nil, fmt.Errorf("%w: implausible header", ErrCorrupt)
	}
	var prev ycbcr
	if FrameType(ftb) == PFrame {
		if d.ref == nil || d.ref.w != w || d.ref.h != h {
			return nil, fmt.Errorf("%w: P-frame without matching reference", ErrCorrupt)
		}
		prev = *d.ref
	}
	// Every luma block row starts with its mode map, a byte per four
	// blocks or part of four.
	lumaRows, lumaCols := padUp(h)/blockSize, padUp(w)/blockSize
	if minMaps := lumaRows * ((lumaCols + 3) / 4); r.remaining() < minMaps {
		return nil, fmt.Errorf("%w: payload too small", ErrCorrupt)
	}
	img := newYCbCr(w, h)
	for _, pl := range [3][2]*plane{{img.y, prev.y}, {img.cb, prev.cb}, {img.cr, prev.cr}} {
		rows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if int(rows) != pl[0].h/blockSize {
			return nil, fmt.Errorf("%w: row count", ErrCorrupt)
		}
		lengths := make([]int, rows)
		for i := range lengths {
			lv, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			lengths[i] = int(lv)
		}
		for by, n := range lengths {
			chunk, err := r.slice(n)
			if err != nil {
				return nil, err
			}
			if err := decodeBlockRowRef(chunk, pl[0], pl[1], by, qstep); err != nil {
				return nil, err
			}
		}
	}
	d.ref = img
	f := new(raster.Frame)
	img.toFrameIntoRef(f)
	return f, nil
}

// decodeBlockRowRef decodes one block row as the format states it: a mode
// map of 2 bits a block, block bx's in bits 2·(bx mod 4) and 2·(bx mod 4)+1
// of map byte bx div 4, every bit past the last block clear; then each
// block's payload in order — none for a skip, levels for intra, a vector
// byte and at least one level for motion compensation, a vector byte other
// than (0,0) alone for a vector-only block — and nothing after the last.
func decodeBlockRowRef(chunk []byte, dst, ref *plane, by, qstep int) error {
	blocks := dst.w / blockSize
	mapLen := blocks / 4
	if blocks%4 != 0 {
		mapLen++
	}
	if len(chunk) < mapLen {
		return fmt.Errorf("%w: block row shorter than its mode map", ErrCorrupt)
	}
	modes := make([]uint8, 4*mapLen)
	for i := range modes {
		modes[i] = chunk[i/4] >> (2 * (i % 4)) & 3
	}
	for _, m := range modes[blocks:] {
		if m != 0 {
			return fmt.Errorf("%w: mode map padding is not zero", ErrCorrupt)
		}
	}
	r := &byteReader{buf: chunk[mapLen:]}
	var levels [64]int32
	y0 := by * blockSize
	for bx, mode := range modes[:blocks] {
		x0 := bx * blockSize
		if mode != modeIntra && ref == nil {
			return fmt.Errorf("%w: mode %d in an I-frame", ErrCorrupt, mode)
		}
		var mvx, mvy int
		if mode == modeMC || mode == modeVector {
			mvb, err := r.u8()
			if err != nil {
				return err
			}
			mvx, mvy = unpackMV(mvb)
			if x0+mvx < 0 || x0+mvx+blockSize > ref.w || y0+mvy < 0 || y0+mvy+blockSize > ref.h {
				return fmt.Errorf("%w: motion vector (%d,%d) out of bounds", ErrCorrupt, mvx, mvy)
			}
		}
		if mode == modeVector && mvx == 0 && mvy == 0 {
			return fmt.Errorf("%w: vector-only block with vector (0,0)", ErrCorrupt)
		}
		switch mode {
		case modeSkip, modeVector:
			for y := y0; y < y0+blockSize; y++ {
				copy(dst.row(x0, y, blockSize), ref.row(x0+mvx, y+mvy, blockSize))
			}
		case modeIntra:
			if err := readLevels(r, &levels); err != nil {
				return err
			}
			reconstructIntraRef(dst, x0, y0, qstep, &levels)
		case modeMC:
			if n, err := (&byteReader{buf: r.buf, pos: r.pos}).uvarint(); err == nil && n == 0 {
				return fmt.Errorf("%w: motion-compensated block with no residual", ErrCorrupt)
			}
			if err := readLevels(r, &levels); err != nil {
				return err
			}
			reconstructMCRef(ref, dst, x0, y0, mvx, mvy, qstep, &levels)
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in block row", ErrCorrupt, r.remaining())
	}
	return nil
}

// The encode side's references: writeLevels and fromFrame as they stood
// before the nonzero-mask writer and the fused row-pair conversion replaced
// them (EXPERIMENTS.md E44), kept verbatim but for their names.

// writeLevelsRef run-length encodes 64 quantized levels in zigzag order:
// a count of (zero-run, value) pairs, then the pairs, each run a uvarint
// and each value a signed varint.
func writeLevelsRef(w *byteWriter, levels *[64]int32) {
	// Count pairs first.
	type pair struct {
		run   int
		level int32
	}
	var pairs [64]pair
	n := 0
	run := 0
	for i := 0; i < 64; i++ {
		if levels[i] == 0 {
			run++
			continue
		}
		pairs[n] = pair{run, levels[i]}
		n++
		run = 0
	}
	w.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		w.uvarint(uint64(pairs[i].run))
		w.varint(int64(pairs[i].level))
	}
}

// fromFrameRef converts an RGB frame into img (which must have been
// allocated for the same dimensions) using BT.601 integer coefficients.
// Padding replicates the edge sample so the DCT does not see an artificial
// cliff at the border. fullCb/fullCr are caller-owned full-resolution
// scratch of at least padUp(w)*padUp(h) samples.
func (img *ycbcr) fromFrameRef(f *raster.Frame, fullCb, fullCr []uint8) {
	pw, ph := img.y.w, img.y.h
	// Full-resolution conversion with edge replication for padding.
	for y := 0; y < ph; y++ {
		sy := y
		if sy >= f.H {
			sy = f.H - 1
		}
		src := f.Pix[3*sy*f.W : 3*(sy+1)*f.W]
		yrow := img.y.pix[y*pw : (y+1)*pw]
		cbrow := fullCb[y*pw : (y+1)*pw]
		crrow := fullCr[y*pw : (y+1)*pw]
		for x := range yrow {
			sx := x
			if sx >= f.W {
				sx = f.W - 1
			}
			px := src[3*sx : 3*sx+3]
			r, g, b := int32(px[0]), int32(px[1]), int32(px[2])
			yrow[x] = clamp255((77*r + 150*g + 29*b) >> 8)
			cbrow[x] = clamp255(((-43*r - 85*g + 128*b) >> 8) + 128)
			crrow[x] = clamp255(((128*r - 107*g - 21*b) >> 8) + 128)
		}
	}
	// 2×2 box subsample chroma, then replicate-pad to the chroma plane.
	cw, ch := img.cb.w, img.cb.h
	halfW, halfH := (f.W+1)/2, (f.H+1)/2
	for y := 0; y < ch; y++ {
		sy := y
		if sy >= halfH {
			sy = halfH - 1
		}
		y0 := 2 * sy
		y1 := y0 + 1
		if y1 >= ph {
			y1 = y0
		}
		cb0, cb1 := fullCb[y0*pw:(y0+1)*pw], fullCb[y1*pw:(y1+1)*pw]
		cr0, cr1 := fullCr[y0*pw:(y0+1)*pw], fullCr[y1*pw:(y1+1)*pw]
		cbrow := img.cb.pix[y*cw : (y+1)*cw]
		crrow := img.cr.pix[y*cw : (y+1)*cw]
		for x := range cbrow {
			sx := x
			if sx >= halfW {
				sx = halfW - 1
			}
			x0 := 2 * sx
			x1 := x0 + 1
			if x1 >= pw {
				x1 = x0
			}
			cbrow[x] = uint8((int32(cb0[x0]) + int32(cb0[x1]) + int32(cb1[x0]) + int32(cb1[x1]) + 2) / 4)
			crrow[x] = uint8((int32(cr0[x0]) + int32(cr0[x1]) + int32(cr1[x0]) + int32(cr1[x1]) + 2) / 4)
		}
	}
}

// toYCbCrRef is toYCbCr through fromFrameRef.
func toYCbCrRef(f *raster.Frame) *ycbcr {
	img := newYCbCr(f.W, f.H)
	pw, ph := img.y.w, img.y.h
	img.fromFrameRef(f, make([]uint8, pw*ph), make([]uint8, pw*ph))
	return img
}
