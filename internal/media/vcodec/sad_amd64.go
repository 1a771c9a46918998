package vcodec

// sadWindowSSE2 fills out[0:nx·ny], row-major, with the SADs of the block
// whose eight row words are cur against the reference blocks whose top-left
// samples are pix[dy·stride+dx], 0 ≤ dx < nx and 0 ≤ dy < ny, rows stride
// apart — a whole motion-search window in one call — and returns the
// (dx, dy) of the smallest, the first in row-major order among equals. It
// reads the 8 bytes of each of the 8 rows of each candidate and nothing
// else — pix[(ny−1+7)·stride+nx−1+7] is the last — and needs nx, ny ≥ 1.
// SSE2 only: PSADBW is in the GOAMD64=v1 baseline, so there is no CPU
// detection and no second amd64 path.
//
//go:noescape
func sadWindowSSE2(cur *[blockSize]uint64, pix *uint8, stride int, out *int32, nx, ny int) (bx, by int)

// sadWindow fills out, row-major in rows of nx, with the SAD of the current
// block against the reference block at pix[dy*stride+dx:] for each of its
// entries, and returns the (dx, dy) of the smallest, the first in row-major
// order among equals; len(out) is a positive multiple of nx. The bounds
// checks the assembly cannot make are made here: that there is a candidate
// at all, and the last byte it will read.
func sadWindow(cur *packedBlock, pix []uint8, stride, nx int, out []int32) (bx, by int) {
	ny := len(out) / nx
	_ = out[nx*ny-1]
	_ = pix[(ny-1+7)*stride+nx-1+7]
	return sadWindowSSE2(&cur.rows, &pix[0], stride, &out[0], nx, ny)
}
