//go:build unix

package vcodec

import (
	"math/rand"
	"syscall"
	"testing"
)

// TestSADRunStaysInsideThePlane puts the plane's last byte on the last byte
// of a page and makes the page after it unreadable: a load that strays past
// what sadCandidates' bounds check covered faults instead of passing
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
