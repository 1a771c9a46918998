package vcodec

// sadRun fills out[0:n] with the SADs of the block whose eight row words are
// cur against the n reference blocks whose top-left samples are pix[0:n] and
// whose rows are stride apart. It reads the 8 bytes of each of the 8 rows of
// each candidate and nothing else — pix[7*stride+n-1+7] is the last — and
// needs n ≥ 1. SSE2 only: PSADBW is in the GOAMD64=v1 baseline, so there is
// no CPU detection and no second amd64 path.
//
//go:noescape
func sadRun(cur *[blockSize]uint64, pix *uint8, stride int, out *int32, n int)

// sadCandidates fills out[i] with the SAD of the current block against the
// reference block at pix[i:], rows stride apart. The bounds checks the
// assembly cannot make are made here: the last byte it will read, and (by
// &out[0]) that there is a candidate at all.
func sadCandidates(cur *packedBlock, pix []uint8, stride int, out []int32) {
	_ = pix[7*stride+len(out)-1+7]
	sadRun(&cur.rows, &pix[0], stride, &out[0], len(out))
}
