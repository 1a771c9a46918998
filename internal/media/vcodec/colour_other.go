//go:build !amd64

package vcodec

// blendChroma fills vcb[1:halfW+1] and vcr[1:halfW+1] with the vertical
// blends of the Cb and the Cr row pair and replicates their ends into [0]
// and [halfW+1].
func blendChroma(vcb, vcr []uint16, cb0, cb1, cr0, cr1 []uint8, ty, halfW int) {
	blendChromaPortable(vcb, vcr, cb0, cb1, cr0, cr1, ty, halfW)
}

// colourRow converts one row: luma yr and the blended chroma rows vcb and
// vcr into len(yr) RGB pixels at d.
func colourRow(d, yr []uint8, vcb, vcr []uint16) {
	colourRowPortable(d, yr, vcb, vcr)
}

// fromRows converts the RGB row pair s0, s1 into luma rows y0 and y1, all
// len(y0) pixels, and their 2×2 box means into cb and cr.
func fromRows(y0, y1, cb, cr, s0, s1 []uint8) {
	fromRowsPortable(y0, y1, cb, cr, s0, s1)
}
