package vcodec

import "repro/internal/media/raster"

// plane is a single-component image with dimensions padded to multiples of
// the block size. Samples are bytes: a plane only ever holds clamped 0…255
// values (residuals, which go negative, live in the [64]int32 block arrays),
// and byte rows are what lets the motion search compare eight samples per
// 64-bit word.
type plane struct {
	w, h int // padded dimensions, multiples of blockSize
	pix  []uint8
}

func newPlane(w, h int) *plane {
	return &plane{w: w, h: h, pix: make([]uint8, w*h)}
}

func padUp(n int) int {
	return (n + blockSize - 1) / blockSize * blockSize
}

// row returns the n samples of row y starting at column x0.
func (p *plane) row(x0, y, n int) []uint8 {
	return p.pix[y*p.w+x0 : y*p.w+x0+n]
}

func clamp255(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// ycbcr holds one frame in planar YCbCr 4:2:0: full-resolution luma, chroma
// subsampled 2× in both directions. All planes are padded to block
// multiples; the true frame size travels separately.
type ycbcr struct {
	y, cb, cr *plane
	w, h      int // true (unpadded) frame dimensions
}

// newYCbCr allocates a zeroed image for a w×h frame.
func newYCbCr(w, h int) *ycbcr {
	return &ycbcr{
		y:  newPlane(padUp(w), padUp(h)),
		cb: newPlane(padUp((w+1)/2), padUp((h+1)/2)),
		cr: newPlane(padUp((w+1)/2), padUp((h+1)/2)),
		w:  w, h: h,
	}
}

// fromFrame converts an RGB frame into img (which must have been allocated
// for the same dimensions) using BT.601 integer coefficients. Padding
// replicates the edge sample so the DCT does not see an artificial cliff at
// the border. fullCb/fullCr are caller-owned full-resolution scratch of at
// least padUp(w)*padUp(h) samples, so steady-state conversion allocates
// nothing.
func (img *ycbcr) fromFrame(f *raster.Frame, fullCb, fullCr []uint8) {
	pw, ph := img.y.w, img.y.h
	// Full-resolution conversion with edge replication for padding.
	for y := 0; y < ph; y++ {
		sy := y
		if sy >= f.H {
			sy = f.H - 1
		}
		src := f.Pix[3*sy*f.W : 3*(sy+1)*f.W]
		yrow := img.y.pix[y*pw : (y+1)*pw]
		cbrow := fullCb[y*pw : (y+1)*pw]
		crrow := fullCr[y*pw : (y+1)*pw]
		for x := range yrow {
			sx := x
			if sx >= f.W {
				sx = f.W - 1
			}
			px := src[3*sx : 3*sx+3]
			r, g, b := int32(px[0]), int32(px[1]), int32(px[2])
			yrow[x] = clamp255((77*r + 150*g + 29*b) >> 8)
			cbrow[x] = clamp255(((-43*r - 85*g + 128*b) >> 8) + 128)
			crrow[x] = clamp255(((128*r - 107*g - 21*b) >> 8) + 128)
		}
	}
	// 2×2 box subsample chroma, then replicate-pad to the chroma plane.
	cw, ch := img.cb.w, img.cb.h
	halfW, halfH := (f.W+1)/2, (f.H+1)/2
	for y := 0; y < ch; y++ {
		sy := y
		if sy >= halfH {
			sy = halfH - 1
		}
		y0 := 2 * sy
		y1 := y0 + 1
		if y1 >= ph {
			y1 = y0
		}
		cb0, cb1 := fullCb[y0*pw:(y0+1)*pw], fullCb[y1*pw:(y1+1)*pw]
		cr0, cr1 := fullCr[y0*pw:(y0+1)*pw], fullCr[y1*pw:(y1+1)*pw]
		cbrow := img.cb.pix[y*cw : (y+1)*cw]
		crrow := img.cr.pix[y*cw : (y+1)*cw]
		for x := range cbrow {
			sx := x
			if sx >= halfW {
				sx = halfW - 1
			}
			x0 := 2 * sx
			x1 := x0 + 1
			if x1 >= pw {
				x1 = x0
			}
			cbrow[x] = uint8((int32(cb0[x0]) + int32(cb0[x1]) + int32(cb1[x0]) + int32(cb1[x1]) + 2) / 4)
			crrow[x] = uint8((int32(cr0[x0]) + int32(cr0[x1]) + int32(cr1[x0]) + int32(cr1[x1]) + 2) / 4)
		}
	}
}

// toYCbCr converts an RGB frame to padded planar 4:2:0, allocating the image
// and scratch. The steady-state encoder path uses fromFrame with persistent
// buffers instead; this remains for one-shot use and tests.
func toYCbCr(f *raster.Frame) *ycbcr {
	img := newYCbCr(f.W, f.H)
	pw, ph := img.y.w, img.y.h
	img.fromFrame(f, make([]uint8, pw*ph), make([]uint8, pw*ph))
	return img
}

// toFrameInto converts back to RGB into dst, reusing dst's pixel buffer when
// it is large enough. Chroma is upsampled bilinearly (nearest-neighbor
// leaves visible blockiness on saturated gradients, especially at small
// frame sizes).
func (img *ycbcr) toFrameInto(dst *raster.Frame) {
	dst.W, dst.H = img.w, img.h
	need := 3 * img.w * img.h
	if cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need)
	} else {
		dst.Pix = dst.Pix[:need]
	}
	halfW, halfH := (img.w+1)/2, (img.h+1)/2
	// Chroma sits at half resolution with a half-sample phase offset, so
	// every upsample position is an exact quarter-pixel: bilinear weights in
	// quarter units (fixed point, 2+2 fractional bits) reproduce the exact
	// interpolation with no float math.
	for y := 0; y < img.h; y++ {
		yq := 2*y - 1 // chroma row position in quarter units
		if yq < 0 {
			yq = 0
		}
		if yq > 4*(halfH-1) {
			yq = 4 * (halfH - 1)
		}
		cy0 := yq >> 2
		ty := int32(yq & 3)
		cy1 := cy0 + 1
		if cy1 >= halfH {
			cy1 = halfH - 1
		}
		cbr0, cbr1 := img.cb.row(0, cy0, halfW), img.cb.row(0, cy1, halfW)
		crr0, crr1 := img.cr.row(0, cy0, halfW), img.cr.row(0, cy1, halfW)
		yrow := img.y.row(0, y, img.w)
		drow := dst.Pix[3*y*dst.W : 3*(y+1)*dst.W]
		for x := 0; x < img.w; x++ {
			xq := 2*x - 1
			if xq < 0 {
				xq = 0
			}
			if xq > 4*(halfW-1) {
				xq = 4 * (halfW - 1)
			}
			cx0 := xq >> 2
			tx := int32(xq & 3)
			cx1 := cx0 + 1
			if cx1 >= halfW {
				cx1 = halfW - 1
			}
			cb := ((int32(cbr0[cx0])*(4-tx)+int32(cbr0[cx1])*tx)*(4-ty) +
				(int32(cbr1[cx0])*(4-tx)+int32(cbr1[cx1])*tx)*ty + 8) >> 4
			cr := ((int32(crr0[cx0])*(4-tx)+int32(crr0[cx1])*tx)*(4-ty) +
				(int32(crr1[cx0])*(4-tx)+int32(crr1[cx1])*tx)*ty + 8) >> 4
			cb -= 128
			cr -= 128
			yy := int32(yrow[x])
			r := yy + (359 * cr >> 8)
			g := yy - (88 * cb >> 8) - (183 * cr >> 8)
			b := yy + (454 * cb >> 8)
			drow[3*x] = clamp255(r)
			drow[3*x+1] = clamp255(g)
			drow[3*x+2] = clamp255(b)
		}
	}
}

// toFrame converts back to a freshly allocated RGB frame.
func (img *ycbcr) toFrame() *raster.Frame {
	f := raster.New(img.w, img.h)
	img.toFrameInto(f)
	return f
}
