//go:build unix

package vcodec

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestReconstructStaysInsideThePlane runs the reconstruction stage with the
// prediction's plane, and separately the destination's, ending on the last
// byte of a page whose successor is unreadable and unwritable: a load or a
// store past what blockAt's bounds checks covered faults instead of passing
// unnoticed, which on the Go heap it would. Every block of the last block
// row is written, against the prediction block that ends the plane, so the
// last row of each touches the page's end. Inside the plane a block's rows
// have neighbours, so the destination is compared whole with the Go path's:
// the canary after each row's 8 bytes is the next block's samples.
func TestReconstructStaysInsideThePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	blocks := stageBlocks(t, rng)
	for _, sz := range [][2]int{{8, 8}, {16, 8}, {24, 16}, {40, 24}} {
		w, h := sz[0], sz[1]
		guarded := func(w, h int) *plane {
			p := &plane{w: w, h: h, pix: guardedBytes(t, w*h)}
			rng.Read(p.pix)
			return p
		}
		pred, dst := guarded(w+8, h), guarded(w, h)
		base, want := newPlane(w, h), newPlane(w, h)
		copy(base.pix, dst.pix)
		px, py := pred.w-blockSize, pred.h-blockSize
		y0 := h - blockSize
		check := func(what string, goPath, stage func(dst *plane)) {
			t.Helper()
			copy(want.pix, base.pix)
			copy(dst.pix, base.pix)
			goPath(want)
			stage(dst)
			if string(dst.pix) != string(want.pix) {
				t.Fatalf("%dx%d %s: the guarded plane differs from the Go path's", w, h, what)
			}
		}
		for x0 := 0; x0 < w; x0 += blockSize {
			check(fmt.Sprintf("copy to (%d,%d)", x0, y0),
				func(d *plane) { copyBlockPortable(pred, px, py, d, x0, y0) },
				func(d *plane) { copyBlock(pred, px, py, d, x0, y0) })
			for _, nb := range blocks {
				check(fmt.Sprintf("%s, intra at (%d,%d)", nb.name, x0, y0),
					func(d *plane) { reconstructPortable(nb.blk, nil, 0, 0, d, x0, y0) },
					func(d *plane) { reconstruct(nb.blk, nil, 0, 0, d, x0, y0) })
				check(fmt.Sprintf("%s at (%d,%d)", nb.name, x0, y0),
					func(d *plane) { reconstructPortable(nb.blk, pred, px, py, d, x0, y0) },
					func(d *plane) { reconstruct(nb.blk, pred, px, py, d, x0, y0) })
			}
		}
	}
}
