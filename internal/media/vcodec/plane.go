package vcodec

import "repro/internal/media/raster"

// plane is a single-component image with dimensions padded to multiples of
// the block size. Samples are bytes: a plane only ever holds clamped 0…255
// values (residuals, which go negative, live in the [64]int32 block arrays),
// and byte rows are what lets the motion search compare eight samples per
// 64-bit word.
type plane struct {
	w, h int // padded dimensions, multiples of blockSize
	pix  []uint8
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]uint8, w*h)}
}

func padUp(n int) int {
	return (n + blockSize - 1) / blockSize * blockSize
}

// row returns the n samples of row y starting at column x0.
func (p *plane) row(x0, y, n int) []uint8 {
	return p.pix[y*p.w+x0 : y*p.w+x0+n]
}

// blockAt returns the first sample of p's 8×8 block at (x,y), after the
// bounds check the assembly leaves cannot make: its last sample is in the
// plane.
func blockAt(p *plane, x, y int) *uint8 {
	s := p.pix[y*p.w+x:]
	_ = s[7*p.w+7]
	return &s[0]
}

// flat128 is the intra prediction as the assembly leaves take it, one row
// read eight times (stride 0).
var flat128 = [blockSize]uint8{128, 128, 128, 128, 128, 128, 128, 128}

func clamp255(v int32) uint8 {
	if uint32(v) > 255 { // below 0 or above 255, in one compare
		return uint8(^(v >> 31)) // 0 for negative v, 255 otherwise
	}
	return uint8(v)
}

// ycbcr holds one frame in planar YCbCr 4:2:0: full-resolution luma, chroma
// subsampled 2× in both directions. All planes are padded to block
// multiples; the true frame size travels separately.
type ycbcr struct {
	y, cb, cr *plane
	w, h      int // true (unpadded) frame dimensions
}

// newYCbCr allocates a zeroed image for a w×h frame.
func newYCbCr(w, h int) *ycbcr {
	return &ycbcr{
		y:  newPlane(padUp(w), padUp(h)),
		cb: newPlane(padUp((w+1)/2), padUp((h+1)/2)),
		cr: newPlane(padUp((w+1)/2), padUp((h+1)/2)),
		w:  w, h: h,
	}
}

// planes returns the image's planes in bitstream order: luma, Cb, Cr.
func (img *ycbcr) planes() [3]*plane { return [3]*plane{img.y, img.cb, img.cr} }

// fromFrame converts an RGB frame into img (which must have been allocated
// for the same dimensions) using BT.601 integer coefficients, each chroma
// sample the rounded mean of its 2×2 box of pixels. Padding replicates the
// edge sample so the DCT does not see an artificial cliff at the border; a
// box past an odd edge is its last column or row twice.
//
// No value needs a clamp: each formula's coefficient magnitudes sum to 256,
// so a luma sum stays in 0…255·256 and a chroma one in ±128·255. The rows
// are converted in pairs, each box averaged as its four pixels are, by
// fromRows: SSE2 on amd64 (colour_amd64.s), fromRowsPortable elsewhere.
func (img *ycbcr) fromFrame(f *raster.Frame) {
	w, h := f.W, f.H
	halfW, halfH := (w+1)/2, (h+1)/2
	ly, cb, cr := img.y, img.cb, img.cr
	for cy := 0; cy < halfH; cy++ {
		y0 := 2 * cy
		y1 := min(y0+1, h-1)
		fromRows(ly.row(0, y0, w), ly.row(0, y0+1, w), cb.row(0, cy, halfW), cr.row(0, cy, halfW),
			f.Pix[3*y0*w:3*(y0+1)*w], f.Pix[3*y1*w:3*(y1+1)*w])
		replicateRight(ly.row(0, y0, ly.w), w)
		replicateRight(ly.row(0, y0+1, ly.w), w)
		replicateRight(cb.row(0, cy, cb.w), halfW)
		replicateRight(cr.row(0, cy, cr.w), halfW)
	}
	replicateDown(ly, 2*halfH)
	replicateDown(cb, halfH)
	replicateDown(cr, halfH)
}

// replicateRight fills row[n:] with row[n-1].
func replicateRight(row []uint8, n int) {
	for i, v := n, row[n-1]; i < len(row); i++ {
		row[i] = v
	}
}

// replicateDown fills the rows of p from n on with row n-1.
func replicateDown(p *plane, n int) {
	last := p.row(0, n-1, p.w)
	for y := n; y < p.h; y++ {
		copy(p.row(0, y, p.w), last)
	}
}

// fromRowsPortable converts the RGB row pair s0, s1 of len(y0) pixels into
// luma rows y0 and y1 and the 2×2 box means of Cb and Cr into cb and cr,
// (len(y0)+1)/2 samples each; an odd width's last box is its last column
// twice. It is the whole row pair off amd64 and the w mod 16 tail on it.
func fromRowsPortable(y0, y1, cb, cr, s0, s1 []uint8) {
	w := len(y0)
	for x := range y0 {
		y0[x], y1[x] = luma(s0[3*x:]), luma(s1[3*x:])
	}
	for k := range cb {
		x0, x1 := 6*k, 3*min(2*k+1, w-1)
		var sb, sr int32 // Σ (Cb − 128) and Σ (Cr − 128) over the box
		for _, px := range [4][]uint8{s0[x0:], s0[x1:], s1[x0:], s1[x1:]} {
			r, g, b := int32(px[0]), int32(px[1]), int32(px[2])
			sb += (-43*r - 85*g + 128*b) >> 8
			sr += (128*r - 107*g - 21*b) >> 8
		}
		cb[k], cr[k] = uint8((sb+4*128+2)>>2), uint8((sr+4*128+2)>>2)
	}
}

// luma is the BT.601 luma of the RGB pixel px.
func luma(px []uint8) uint8 {
	_ = px[2]
	return uint8((77*int32(px[0]) + 150*int32(px[1]) + 29*int32(px[2])) >> 8)
}

// toYCbCr converts an RGB frame to padded planar 4:2:0, allocating the
// image. The encoder converts into the image it keeps instead.
func toYCbCr(f *raster.Frame) *ycbcr {
	img := newYCbCr(f.W, f.H)
	img.fromFrame(f)
	return img
}

// Colour conversion tables. A chroma sample's contribution to each colour
// channel depends on nothing else in the pixel, so the four BT.601 products
// (arithmetic shift and all) are tabulated per chroma value — the Cr entry
// carrying its red and green terms, the Cb entry its green and blue ones, in
// three 20-bit lanes of one word. Adding luma to every lane (one multiply)
// and the two entries gives all three channel sums at once, and a lane of
// the sum indexes the clamp table. Every entry lane is biased non-negative
// (so no borrow crosses lanes) with a total of clampBias per channel, and a
// channel sum spans 29…736; the clamp table is sized to a power of two so
// the index is masked instead of bounds-checked.
const (
	laneBits  = 20
	lumaLanes = 1 | 1<<laneBits | 1<<(2*laneBits) // luma × this = luma in every lane
	clampBias = 256
	clampMask = 1<<10 - 1
)

type colourTables struct {
	cb, cr [256]uint64 // lanes: red, green, blue from bit 0
	clamp  [clampMask + 1]uint8
}

var colour = buildColourTables()

func buildColourTables() *colourTables {
	t := new(colourTables)
	for v := range t.cb {
		c := int32(v) - 128
		t.cr[v] = uint64(clampBias+(359*c>>8)) | uint64(clampBias/2-(183*c>>8))<<laneBits
		t.cb[v] = uint64(clampBias/2-(88*c>>8))<<laneBits | uint64(clampBias+(454*c>>8))<<(2*laneBits)
	}
	for i := range t.clamp {
		t.clamp[i] = clamp255(int32(i) - clampBias)
	}
	return t
}

// chromaRound rounds both lanes of a packed chroma sum — 16× the upsampled
// Cb in the low 16 bits, Cr in the high 16 (4080 at most, far from its
// neighbour) — before the >> 4 that channels folds into its table index.
const chromaRound = 8<<16 | 8

// channels returns the clamp-table indices of one pixel's red, green and
// blue, one per lane: luma y and a packed chroma sum s carrying 16× the
// upsampled Cb and Cr.
func (t *colourTables) channels(y uint8, s uint32) uint64 {
	s += chromaRound
	return uint64(y)*lumaLanes + t.cb[s>>4&0xFF] + t.cr[s>>20&0xFF]
}

// putRGB stores the three clamped channels of p at dst[0:3].
func (t *colourTables) putRGB(dst []uint8, p uint64) {
	_ = dst[2]
	dst[0] = t.clamp[p&clampMask]
	dst[1] = t.clamp[p>>laneBits&clampMask]
	dst[2] = t.clamp[p>>(2*laneBits)&clampMask]
}

// toFrameInto converts back to RGB into dst, reusing dst's pixel buffer when
// it is large enough. Chroma is upsampled bilinearly (nearest-neighbor
// leaves visible blockiness on saturated gradients, especially at small
// frame sizes). scratch is row scratch, returned (grown if need be) for the
// caller to keep.
//
// Chroma sits at half resolution with a half-sample phase offset, so every
// upsample position is an exact quarter-pixel and the interpolated value is
// (Σ weight·sample + 8) >> 4 with weights in quarter units that sum to 16 —
// one rounding, at the end. That makes the blend separable without changing
// a bit: per output row the two chroma rows are blended vertically once per
// chroma column, V[k] = c0[k]·(4−ty) + c1[k]·ty (weights 4:0, 3:1 or 1:3;
// the first and last rows replicate), and output columns 2k and 2k+1 are
// V[k−1] + 3V[k] and 3V[k] + V[k+1]. Column 0 and, on even widths, the last
// column sit beyond the outermost chroma centre and replicate it: with
// V[−1] = V[0] and V[halfW] = V[halfW−1] stored beside the row, the same two
// formulas give them their 4V, so no column is a special case.
//
// The scratch holds the two blended rows, Cb then Cr, each colourStride
// long: V[k] at index k+1 between its two replicated edges. The per-row work
// is blendChroma and colourRow, SSE2 on amd64 (colour_amd64.s) and the
// Portable pair below elsewhere.
func (img *ycbcr) toFrameInto(dst *raster.Frame, scratch []uint16) []uint16 {
	scratch = img.sizeFrame(dst, scratch)
	stride := img.colourStride()
	vcb, vcr := scratch[:stride], scratch[stride:]
	for y := 0; y < img.h; y++ {
		cb0, cb1, cr0, cr1, ty := img.chromaRows(y)
		blendChroma(vcb, vcr, cb0, cb1, cr0, cr1, ty, (img.w+1)/2)
		colourRow(dst.Pix[3*y*img.w:3*(y+1)*img.w], img.y.row(0, y, img.w), vcb, vcr)
	}
	return scratch
}

// colourStride is the length of one blended chroma row in the scratch: the
// padded chroma width (the blend runs eight samples a step, to the end of
// the plane's row) and the two edge samples.
func (img *ycbcr) colourStride() int { return img.cb.w + 2 }

// sizeFrame gives dst the image's dimensions and 3·w·h pixel bytes, and
// scratch two blended rows, reusing either buffer when it is large enough.
func (img *ycbcr) sizeFrame(dst *raster.Frame, scratch []uint16) []uint16 {
	dst.W, dst.H = img.w, img.h
	need := 3 * img.w * img.h
	if cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need)
	} else {
		dst.Pix = dst.Pix[:need]
	}
	if n := 2 * img.colourStride(); cap(scratch) < n {
		scratch = make([]uint16, n)
	} else {
		scratch = scratch[:n]
	}
	return scratch
}

// chromaRows returns the two rows of each chroma plane that output row y
// blends, at their padded width, and the weight ty (in quarters) of the
// second.
func (img *ycbcr) chromaRows(y int) (cb0, cb1, cr0, cr1 []uint8, ty int) {
	halfH := (img.h + 1) / 2
	yq := 2*y - 1 // chroma row position in quarter units
	if yq < 0 {
		yq = 0
	}
	if yq > 4*(halfH-1) {
		yq = 4 * (halfH - 1)
	}
	cy0 := yq >> 2
	cy1 := cy0 + 1
	if cy1 >= halfH {
		cy1 = halfH - 1
	}
	cw := img.cb.w
	return img.cb.row(0, cy0, cw), img.cb.row(0, cy1, cw),
		img.cr.row(0, cy0, cw), img.cr.row(0, cy1, cw), yq & 3
}

// blendChromaPortable fills vcb[1:halfW+1] and vcr[1:halfW+1] with the
// vertical blends of the Cb and the Cr row pair and replicates their ends
// into [0] and [halfW+1].
func blendChromaPortable(vcb, vcr []uint16, cb0, cb1, cr0, cr1 []uint8, ty, halfW int) {
	w0, w1 := uint16(4-ty), uint16(ty)
	vb, vr := vcb[1:halfW+1], vcr[1:halfW+1]
	cb0, cb1, cr0, cr1 = cb0[:halfW], cb1[:halfW], cr0[:halfW], cr1[:halfW]
	for k := range vb {
		vb[k] = uint16(cb0[k])*w0 + uint16(cb1[k])*w1
		vr[k] = uint16(cr0[k])*w0 + uint16(cr1[k])*w1
	}
	replicateEdges(vcb, halfW)
	replicateEdges(vcr, halfW)
}

func replicateEdges(v []uint16, halfW int) {
	v[0], v[halfW+1] = v[1], v[halfW]
}

// colourRowPortable converts the pixels of yr into d from the blended
// chroma rows: vcb[0] and vcr[0] are V[k−1] for yr[0]'s chroma column k,
// and yr starts on an even column. It is the whole row off amd64 and the
// w mod 16 tail on it.
func colourRowPortable(d, yr []uint8, vcb, vcr []uint16) {
	t := colour
	// Cb in the low lane, Cr in the high one: one multiply-add blends both.
	a := uint32(vcb[0]) | uint32(vcr[0])<<16
	b := uint32(vcb[1]) | uint32(vcr[1])<<16
	// The chroma is ranged over and d and yr shrink as the row is walked:
	// the loop's conditions are then the only bounds checks its body needs.
	cbs, crs := vcb[2:], vcr[2:]
	crs = crs[:len(cbs)]
	for k, cbv := range cbs {
		if len(d) < 6 || len(yr) < 2 {
			break
		}
		c := uint32(cbv) | uint32(crs[k])<<16
		t.putRGB(d[:3], t.channels(yr[0], a+3*b))
		t.putRGB(d[3:6], t.channels(yr[1], 3*b+c))
		a, b = b, c
		d, yr = d[6:], yr[2:]
	}
	if len(yr) > 0 { // odd width: the last column is an even one
		t.putRGB(d, t.channels(yr[0], a+3*b))
	}
}
