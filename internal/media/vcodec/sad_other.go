//go:build !amd64

package vcodec

// sadWindow fills out, row-major in rows of nx, with the SAD of the current
// block against the reference block at pix[dy*stride+dx:] for each of its
// entries, and returns the (dx, dy) of the smallest, the first in row-major
// order among equals; len(out) is a positive multiple of nx.
func sadWindow(cur *packedBlock, pix []uint8, stride, nx int, out []int32) (bx, by int) {
	return sadWindowPortable(cur, pix, stride, nx, out)
}
