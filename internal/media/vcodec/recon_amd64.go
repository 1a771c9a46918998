package vcodec

// The reconstruction stage on amd64: three SSE2 leaves (recon_amd64.s) under
// the rule of sad_amd64.s, colour_amd64.s and dct_amd64.s — SSE2 is the
// GOAMD64=v1 baseline, so there is no CPU detection and no second amd64
// path. Every other target runs reconstructPortable and copyBlockPortable
// (recon_other.go), which the tests also hold these leaves to. A prediction
// is an 8×8 byte block whose rows are predStride apart, and predStride 0
// with flat128 is the intra prediction.

// copyBlockSSE2 copies the 8×8 byte block at src to dst. It reads the 8 bytes
// of each of src's 8 rows and writes those of dst's, nothing else.
//
//go:noescape
func copyBlockSSE2(dst *uint8, dstStride int, src *uint8, srcStride int)

// addFlatSSE2 stores clamp255(pred + v) at each sample of dst's 8×8 block,
// as PADDSW and then PACKUSWB. It reads the 8 bytes of each of pred's rows
// and writes dst's.
//
//go:noescape
func addFlatSSE2(dst *uint8, dstStride int, pred *uint8, predStride int, v int16)

// idctAddSSE2 stores clamp255(pred + idct(coef)) at dst. Every coefficient
// must be inIDCTRange: that is what keeps the transform's words and dwords
// from overflowing (TestIDCTMatrixBounds).
//
//go:noescape
func idctAddSSE2(dst *uint8, dstStride int, pred *uint8, predStride int, coef *[64]int32)

// idctPairs holds idctMatrix as idctAddSSE2 multiplies by it, two columns of
// a row in every dword for PMADDWD, by the butterfly's halves: rows 0 and 1
// weigh the pairs (s0, s4) and (s2, s6) — rows 2 and 3 are the same weights
// of (s0, s4) and the negated ones of (s2, s6) — and rows 0…3 weigh
// (s1, s3) and (s5, s7); row 7−n is row n with its odd terms negated. Read
// by idctAddSSE2 by name.
var idctPairs = buildIDCTPairs(idctMatrix())

func buildIDCTPairs(m [8][8]int32) (p [12][8]int16) {
	pair := func(dst *[8]int16, a, b int32) {
		for i := 0; i < 8; i += 2 {
			dst[i], dst[i+1] = int16(a), int16(b)
		}
	}
	pair(&p[0], m[0][0], m[0][4])
	pair(&p[1], m[0][2], m[0][6])
	pair(&p[2], m[1][0], m[1][4])
	pair(&p[3], m[1][2], m[1][6])
	for n := range 4 {
		pair(&p[4+n], m[n][1], m[n][3])
		pair(&p[8+n], m[n][5], m[n][7])
	}
	return p
}

// copyBlock copies the 8×8 block at (sx,sy) of src to (x0,y0) of dst.
func copyBlock(src *plane, sx, sy int, dst *plane, x0, y0 int) {
	copyBlockSSE2(blockAt(dst, x0, y0), dst.w, blockAt(src, sx, sy), src.w)
}

// reconstruct writes the 8×8 block at (x0,y0) of dst from blk and the block
// of pred at (px,py), or flat 128 when pred is nil. A block with no
// coefficients is its prediction. A block with a coefficient outside
// ±idctRange is reconstructPortable's whole. Of the rest, one with a DC
// term alone adds idct's one flat value — a word, since the DC is in range
// — and any other runs the whole transform in SSE2, a single column too,
// since idct's shortcut for one takes 1.8× as long (EXPERIMENTS.md E35).
func reconstruct(blk *coefBlock, pred *plane, px, py int, dst *plane, x0, y0 int) {
	d := blockAt(dst, x0, y0)
	p, ps := &flat128[0], 0
	if pred != nil {
		p, ps = blockAt(pred, px, py), pred.w
	}
	switch {
	case blk.cols == 0:
		copyBlockSSE2(d, dst.w, p, ps)
	case blk.outside:
		reconstructPortable(blk, pred, px, py, dst, x0, y0)
	case blk.cols == 1 && blk.acs == 0:
		addFlatSSE2(d, dst.w, p, ps, int16(flatDC(blk.coef[0])))
	default:
		idctAddSSE2(d, dst.w, p, ps, &blk.coef)
	}
}
