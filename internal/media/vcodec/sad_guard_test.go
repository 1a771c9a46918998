//go:build unix

package vcodec

import (
	"math/rand"
	"syscall"
	"testing"
)

// TestSADRunStaysInsideThePlane puts the plane's last byte on the last byte
// of a page and makes the page after it unreadable: a load that strays past
// what sadWindow's bounds check covered faults instead of passing
// unnoticed, which on the Go heap it would.
func TestSADRunStaysInsideThePlane(t *testing.T) {
	page := syscall.Getpagesize()
	mem := guardedBytes(t, page)
	rng := rand.New(rand.NewSource(47))
	rng.Read(mem)
	var block [64]uint8
	rng.Read(block[:])
	for _, stride := range []int{8, 9, 21, 40, 160} {
		plane := mem[page-stride*blockSize : page]
		for n := 1; n <= 15 && n+blockSize-1 <= stride; n++ {
			checkSADRun(t, "guarded", &block, plane[stride-(n-1+blockSize):], stride, n)
		}
	}
}

// TestSADWindowStaysInsideThePlane searches every block of a reference plane
// that ends on the last byte of a page before an unreadable one, at every
// range: the windows of the blocks on the far edges end on that byte.
func TestSADWindowStaysInsideThePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, sz := range [][2]int{{8, 8}, {16, 8}, {21, 19}, {40, 24}} {
		w, h := sz[0], sz[1]
		src, ref := newPlane(w, h), &plane{w: w, h: h, pix: guardedBytes(t, w*h)}
		rng.Read(src.pix)
		rng.Read(ref.pix)
		for r := 0; r <= 7; r++ {
			for _, y0 := range blockOrigins(h) {
				for _, x0 := range blockOrigins(w) {
					checkSADWindow(t, "guarded", src, ref, x0, y0, r)
				}
			}
		}
	}
}
