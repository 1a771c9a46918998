package vcodec

import "math/bits"

// The block-coding stage on amd64: from a block's bytes and its prediction's
// bytes to quantized levels and their codeCost, in SSE2 (dct_amd64.s). Same
// rule as sad_amd64.s and colour_amd64.s — SSE2 is the GOAMD64=v1 baseline,
// so there is no CPU detection and no second amd64 path. Every other target
// runs fdct8x8, quantize/quantizeDeadzone and codeCost (dct_other.go), which
// the tests also hold these kernels to.

// fdctSSE2 writes the forward DCT of the residual cur − pred, each an 8×8
// block of bytes whose rows are curStride and predStride apart, into coef in
// natural order: fdct8x8's output, which fits int16. It reads the 8 bytes of
// each of the 8 rows of both blocks and nothing else — cur[7·curStride+7] is
// the last — and predStride may be 0.
//
//go:noescape
func fdctSSE2(cur *uint8, curStride int, pred *uint8, predStride int, coef *[64]int16)

// quantSSE2 quantizes coef (natural order, |v| ≤ 64·255) with q's constants
// into levels, in natural order, and returns their codeCost.
//
//go:noescape
func quantSSE2(coef *[64]int16, q *quantTable, levels *[64]int16) int

// zigzagScan widens nat, levels in natural order, into scan, in the order
// zigzag walks them.
//
//go:noescape
func zigzagScan(nat *[64]int16, scan *[64]int32)

// nonzeroMask returns the bits i for which levels[i] != 0: the pairs
// writeLevels walks.
//
//go:noescape
func nonzeroMask(levels *[64]int32) uint64

// fdctPairs holds fdctMatrix as fdctSSE2 multiplies by it, two columns of a
// row in every dword for PMADDWD, after the butterfly's first two stages:
// rows 0 and 4 weigh (t10, t11) = (a0+a3, a1+a2), rows 2 and 6 weigh
// (t13, t12) = (a0−a3, a1−a2), and the odd rows weigh (b0, b1) and
// (b2, b3), where aₙ = xₙ + x₇₋ₙ and bₙ = xₙ − x₇₋ₙ. Read by fdctSSE2 by name.
var fdctPairs = buildFDCTPairs(fdctMatrix())

func buildFDCTPairs(m [8][8]int32) (p [12][8]int16) {
	pair := func(dst *[8]int16, a, b int32) {
		for i := 0; i < 8; i += 2 {
			dst[i], dst[i+1] = int16(a), int16(b)
		}
	}
	pair(&p[0], m[0][0], m[0][1])
	pair(&p[1], m[4][0], m[4][1])
	pair(&p[2], m[2][0], m[2][1])
	pair(&p[3], m[6][0], m[6][1])
	for i, k := range []int{1, 3, 5, 7} {
		pair(&p[4+2*i], m[k][0], m[k][1])
		pair(&p[5+2*i], m[k][2], m[k][3])
	}
	return p
}

// quantTable is one quantizer's constants for quantSSE2, eight 16-bit lanes
// a row: for a divisor d, the rounding bias, m = ⌈2^(16+s)/d⌉ and 2^(16−s),
// s = bits.Len(d−1) − 1. Row 0 carries the DC divisor in lane 0.
type quantTable struct {
	dc, ac quantRow
}

type quantRow struct {
	bias, mul, shift [8]uint16
}

// newQuantTable returns the constants of quantize (round true) or
// quantizeDeadzone at qstep. floor(n/d) = PMULHUW(PMULHUW(n, m), 2^(16−s))
// for every numerator n < 2^15: 2^s < d ≤ 2^(s+1) puts m below 2^16, and
// m·d − 2^(16+s) < d makes n·(m·d − 2^(16+s)) < 2^(16+s), so the error
// never reaches the next multiple. A coefficient is at most 64·255 and the
// bias at most 512.
func newQuantTable(qstep int, round bool) quantTable {
	dcDiv, acDiv := quantDivisors(qstep)
	var t quantTable
	t.ac.fill(acDiv, round)
	t.dc = t.ac
	var dc quantRow
	dc.fill(dcDiv, round)
	t.dc.bias[0], t.dc.mul[0], t.dc.shift[0] = dc.bias[0], dc.mul[0], dc.shift[0]
	return t
}

func (r *quantRow) fill(d int32, round bool) {
	s := uint(bits.Len32(uint32(d-1)) - 1)
	var bias uint16
	if round {
		bias = uint16(d >> 1)
	}
	mul := uint16((1<<(16+s) + uint32(d) - 1) / uint32(d))
	for i := range r.mul {
		r.bias[i], r.mul[i], r.shift[i] = bias, mul, 1<<(16-s)
	}
}

// blockCoder is encodeBlockRow's block-coding stage for one quantizer step:
// code a block against a prediction into a candidate. Its quantizer tables
// are built once, with the rung it belongs to.
type blockCoder struct {
	round, deadzone quantTable
	coef            [64]int16
}

func newBlockCoder(qstep int) blockCoder {
	return blockCoder{round: newQuantTable(qstep, true), deadzone: newQuantTable(qstep, false)}
}

// inter codes src's block at (x0,y0) against pred's block at (px,py) with
// the dead-zone quantizer.
func (c *blockCoder) inter(src *plane, x0, y0 int, pred *plane, px, py int, out *candidate) {
	fdctSSE2(blockAt(src, x0, y0), src.w, blockAt(pred, px, py), pred.w, &c.coef)
	out.bytes = quantSSE2(&c.coef, &c.deadzone, &out.nat)
}

// intra codes a block from its intra transform with the rounding quantizer.
func (c *blockCoder) intra(t *intraCoefs, out *candidate) {
	out.bytes = quantSSE2(t, &c.round, &out.nat)
}

// intraCoefs is a block's intra transform as fdctSSE2 leaves it.
type intraCoefs = [64]int16

// intraTransform writes the transform of src's block at (x0,y0) against
// flat 128 into t: the part of an intra candidate no quantizer step changes.
func intraTransform(src *plane, x0, y0 int, t *intraCoefs) {
	fdctSSE2(blockAt(src, x0, y0), src.w, &flat128[0], 0, t)
}

// candidate is one way of coding a block: its levels and their codeCost.
// The levels stay in natural order until the candidate is chosen.
type candidate struct {
	nat   [64]int16
	bytes int // codeCost of nat
	scan  [64]int32
}

func (c *candidate) cost() int { return c.bytes }

// levels returns the levels in zigzag scan order.
func (c *candidate) levels() *[64]int32 {
	zigzagScan(&c.nat, &c.scan)
	return &c.scan
}
