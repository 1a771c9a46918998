//go:build unix

package vcodec

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/media/raster"
)

// guardedBytes returns n bytes whose last is the last byte of a page, with
// the page after it neither readable nor writable.
func guardedBytes(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	span := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[span-n : span : span]
}

// TestColourRowsStayInsideTheirBuffers runs the colour pass with the luma
// plane, both chroma planes, the row scratch and the destination each ending
// on the last byte of a page whose successor faults: a load or store that
// strays past what colour_amd64.go's bounds checks covered crashes the test
// instead of passing unnoticed, which on the Go heap it would. Rows are
// contiguous in the destination, so a row that overran into the next would
// be painted over; each row is therefore also converted on its own into a
// buffer with a canary after its 3·w bytes.
func TestColourRowsStayInsideTheirBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	guardedPlane := func(w, h int) *plane {
		p := &plane{w: w, h: h, pix: guardedBytes(t, w*h)}
		rng.Read(p.pix)
		return p
	}
	for _, sz := range [][2]int{{16, 1}, {16, 9}, {17, 2}, {31, 3}, {32, 8}, {33, 9}, {48, 2}, {49, 3}, {160, 120}, {161, 121}} {
		w, h := sz[0], sz[1]
		cw, ch := padUp((w+1)/2), padUp((h+1)/2)
		img := &ycbcr{y: guardedPlane(padUp(w), padUp(h)), cb: guardedPlane(cw, ch), cr: guardedPlane(cw, ch), w: w, h: h}
		words := 2 * img.colourStride()
		scratch := unsafe.Slice((*uint16)(unsafe.Pointer(&guardedBytes(t, 2*words)[0])), words)
		pix := guardedBytes(t, 3*w*h)
		got := raster.Frame{Pix: pix}
		if out := img.toFrameInto(&got, scratch); &out[0] != &scratch[0] || &got.Pix[0] != &pix[0] {
			t.Fatalf("%dx%d: the pass did not use the guarded buffers it was given", w, h)
		}
		var want raster.Frame
		img.toFrameIntoRef(&want)
		if !got.Equal(&want) {
			t.Errorf("%dx%d guarded: colour pass differs from the per-pixel formula", w, h)
		}

		const canary = 0xA5
		row := make([]uint8, 3*w+64)
		vcb, vcr := scratch[:words/2], scratch[words/2:]
		for y := 0; y < h; y++ {
			for i := range row {
				row[i] = canary
			}
			cb0, cb1, cr0, cr1, ty := img.chromaRows(y)
			blendChroma(vcb, vcr, cb0, cb1, cr0, cr1, ty, (w+1)/2)
			colourRow(row[:3*w], img.y.row(0, y, w), vcb, vcr)
			if string(row[:3*w]) != string(want.Pix[3*y*w:3*(y+1)*w]) {
				t.Errorf("%dx%d row %d: differs from the per-pixel formula", w, h, y)
			}
			for i, v := range row[3*w:] {
				if v != canary {
					t.Fatalf("%dx%d row %d: byte %d past the row's end was written", w, h, y, i)
				}
			}
		}
	}
}

// TestFromFrameStaysInsideItsBuffers runs the RGB→YCbCr conversion with the
// source frame and each of the three planes ending on the last byte of a
// page whose successor faults, then the row-pair converter alone with each
// of its six rows ending so: a load or store past what fromRows' bounds
// checks covered crashes the test instead of passing unnoticed.
func TestFromFrameStaysInsideItsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	guardedPlane := func(w, h int) *plane {
		p := &plane{w: w, h: h, pix: guardedBytes(t, w*h)}
		rng.Read(p.pix)
		return p
	}
	for _, sz := range [][2]int{{1, 1}, {15, 2}, {16, 1}, {16, 2}, {17, 3}, {31, 3}, {32, 8}, {33, 9}, {48, 2}, {160, 120}, {161, 121}} {
		w, h := sz[0], sz[1]
		src := &raster.Frame{W: w, H: h, Pix: guardedBytes(t, 3*w*h)}
		rng.Read(src.Pix)
		cw, ch := padUp((w+1)/2), padUp((h+1)/2)
		img := &ycbcr{y: guardedPlane(padUp(w), padUp(h)), cb: guardedPlane(cw, ch), cr: guardedPlane(cw, ch), w: w, h: h}
		img.fromFrame(src)
		want := toYCbCrRef(src)
		for i, pl := range [][2]*plane{{img.y, want.y}, {img.cb, want.cb}, {img.cr, want.cr}} {
			if string(pl[0].pix) != string(pl[1].pix) {
				t.Errorf("%dx%d guarded: plane %d differs from the reference", w, h, i)
			}
		}

		halfW := (w + 1) / 2
		s0, s1 := guardedBytes(t, 3*w), guardedBytes(t, 3*w)
		y0, y1 := guardedBytes(t, w), guardedBytes(t, w)
		cb, cr := guardedBytes(t, halfW), guardedBytes(t, halfW)
		for cy := range (h + 1) / 2 {
			r0 := 2 * cy
			r1 := min(r0+1, h-1)
			copy(s0, src.Pix[3*r0*w:])
			copy(s1, src.Pix[3*r1*w:])
			fromRows(y0, y1, cb, cr, s0, s1)
			if string(y0) != string(want.y.row(0, r0, w)) || string(y1) != string(want.y.row(0, r0+1, w)) ||
				string(cb) != string(want.cb.row(0, cy, halfW)) || string(cr) != string(want.cr.row(0, cy, halfW)) {
				t.Errorf("%dx%d row pair %d: differs from the reference", w, h, cy)
			}
		}
	}
}
