package vcodec

// blendRowSSE2 stores c0[k]·(4−ty) + c1[k]·ty at v[k] for the 8·steps
// samples from k = 0, eight a step. It reads c0[0:8·steps] and
// c1[0:8·steps], writes v[0:8·steps], and needs steps ≥ 1. SSE2 only, as
// sadWindowSSE2: no CPU detection and no second amd64 path.
//
//go:noescape
func blendRowSSE2(v *uint16, c0, c1 *uint8, ty, steps int)

// colourRowSSE2 converts n pixels, sixteen a step: luma y[0:n] and the
// blended chroma rows, whose first words are V[−1], into dst[0:3n]. It reads
// vcb[0:n/2+2] and vcr[0:n/2+2], writes exactly the 3n bytes, and needs n to
// be a positive multiple of 16.
//
//go:noescape
func colourRowSSE2(dst, y *uint8, vcb, vcr *uint16, n int)

// blendChroma fills vcb[1:halfW+1] and vcr[1:halfW+1] with the vertical
// blends of the Cb and the Cr row pair and replicates their ends into [0]
// and [halfW+1].
func blendChroma(vcb, vcr []uint16, cb0, cb1, cr0, cr1 []uint8, ty, halfW int) {
	blendRow(vcb, cb0, cb1, ty, halfW)
	blendRow(vcr, cr0, cr1, ty, halfW)
}

// blendRow runs the kernel over the whole padded row — a multiple of eight
// samples, so its loads end where the row does — after the bounds checks the
// assembly cannot make: the last sample of each row it reads and of the one
// it writes, and (by c0[n-1]) that there is a step at all.
func blendRow(v []uint16, c0, c1 []uint8, ty, halfW int) {
	steps := len(c0) / 8
	n := 8 * steps
	_, _, _ = c0[n-1], c1[n-1], v[n]
	blendRowSSE2(&v[1], &c0[0], &c1[0], ty, steps)
	replicateEdges(v, halfW)
}

// colourRow converts one row: luma yr and the blended chroma rows vcb and
// vcr into len(yr) RGB pixels at d. The kernel takes the whole steps of
// sixteen, after the bounds checks it cannot make itself; what is left of
// the row goes through the per-pixel loop.
func colourRow(d, yr []uint8, vcb, vcr []uint16) {
	n := len(yr) &^ 15
	if n > 0 {
		_, _, _ = d[3*n-1], vcb[n/2+1], vcr[n/2+1]
		colourRowSSE2(&d[0], &yr[0], &vcb[0], &vcr[0], n)
	}
	if n < len(yr) {
		colourRowPortable(d[3*n:], yr[n:], vcb[n/2:], vcr[n/2:])
	}
}

// fromRowsSSE2 converts n pixels, sixteen a step, of the RGB rows s0 and s1
// into luma rows y0 and y1 and the n/2 2×2 box means of Cb and Cr into cb
// and cr. It reads s0[0:3n] and s1[0:3n], writes y0[0:n], y1[0:n],
// cb[0:n/2] and cr[0:n/2], and needs n to be a positive multiple of 16.
//
//go:noescape
func fromRowsSSE2(y0, y1, cb, cr, s0, s1 *uint8, n int)

// fromRows converts the RGB row pair s0, s1 into luma rows y0 and y1, all
// len(y0) pixels, and their 2×2 box means into cb and cr. The kernel takes
// the whole steps of sixteen, after the bounds checks it cannot make itself;
// what is left of the row pair goes through the Go loop.
func fromRows(y0, y1, cb, cr, s0, s1 []uint8) {
	n := len(y0) &^ 15
	if n > 0 {
		_, _, _, _, _, _ = y0[n-1], y1[n-1], cb[n/2-1], cr[n/2-1], s0[3*n-1], s1[3*n-1]
		fromRowsSSE2(&y0[0], &y1[0], &cb[0], &cr[0], &s0[0], &s1[0], n)
	}
	if n < len(y0) {
		fromRowsPortable(y0[n:], y1[n:], cb[n/2:], cr[n/2:], s0[3*n:], s1[3*n:])
	}
}
