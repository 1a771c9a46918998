//go:build unix

package vcodec

import (
	"math/rand"
	"testing"
)

// TestBlockCoderStaysInsideThePlane puts the last byte of the block's plane,
// and separately of the prediction's, on the last byte of a page whose
// successor is unreadable, and codes the blocks of the last block row: a
// load that strays past what blockCoder's bounds checks covered faults
// instead of passing unnoticed, which on the Go heap it would.
func TestBlockCoderStaysInsideThePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sz := range [][2]int{{8, 8}, {16, 8}, {24, 16}, {40, 24}} {
		w, h := sz[0], sz[1]
		src := &plane{w: w, h: h, pix: guardedBytes(t, w*h)}
		pred := &plane{w: w + 8, h: h, pix: guardedBytes(t, (w+8)*h)}
		rng.Read(src.pix)
		rng.Read(pred.pix)
		for _, qstep := range []int{1, 8, 128} {
			coder := newBlockCoder(qstep)
			y0 := h - blockSize
			for x0 := 0; x0 < w; x0 += blockSize {
				checkBlockCoder(t, &coder, qstep, src, x0, y0, pred, pred.w-blockSize, y0)
				checkBlockCoder(t, &coder, qstep, src, x0, y0, src, w-blockSize, y0)
			}
		}
	}
}
