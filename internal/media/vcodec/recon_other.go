//go:build !amd64

package vcodec

// reconstruct writes the 8×8 block at (x0,y0) of dst from blk and the block
// of pred at (px,py), or flat 128 when pred is nil.
func reconstruct(blk *coefBlock, pred *plane, px, py int, dst *plane, x0, y0 int) {
	reconstructPortable(blk, pred, px, py, dst, x0, y0)
}

// copyBlock copies the 8×8 block at (sx,sy) of src to (x0,y0) of dst.
func copyBlock(src *plane, sx, sy int, dst *plane, x0, y0 int) {
	copyBlockPortable(src, sx, sy, dst, x0, y0)
}
