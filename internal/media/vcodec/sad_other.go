//go:build !amd64

package vcodec

// sadCandidates fills out[i] with the SAD of the current block against the
// reference block at pix[i:], rows stride apart.
func sadCandidates(cur *packedBlock, pix []uint8, stride int, out []int32) {
	sadRunPortable(cur, pix, stride, out)
}
