package raster

// Rect is an axis-aligned rectangle with inclusive origin and exclusive
// extent, i.e. it covers x in [X, X+W) and y in [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X && y >= r.Y && x < r.X+r.W && y < r.Y+r.H
}

// Intersects reports whether r and s overlap.
func (r Rect) Intersects(s Rect) bool {
	return r.X < s.X+s.W && s.X < r.X+r.W && r.Y < s.Y+s.H && s.Y < r.Y+r.H
}

// Intersect returns the overlapping region of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	x0 := max(r.X, s.X)
	y0 := max(r.Y, s.Y)
	x1 := min(r.X+r.W, s.X+s.W)
	y1 := min(r.Y+r.H, s.Y+s.H)
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Empty reports whether r covers no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Inset returns r shrunk by n pixels on every side.
func (r Rect) Inset(n int) Rect {
	return Rect{r.X + n, r.Y + n, r.W - 2*n, r.H - 2*n}
}

// FillRect paints the rectangle r with color c, clipped to the frame: the
// clipped rectangle's first row is one span fill, and every other row a copy
// of it.
func (f *Frame) FillRect(r Rect, c RGB) {
	cl := r.Intersect(Rect{0, 0, f.W, f.H})
	if cl.Empty() {
		return
	}
	first := f.span(cl.X, cl.X+cl.W, cl.Y)
	fillSpan(first, c)
	for y := cl.Y + 1; y < cl.Y+cl.H; y++ {
		copy(f.span(cl.X, cl.X+cl.W, y), first)
	}
}

// span returns the bytes of pixels [x0, x1) of row y, which must be inside
// the frame.
func (f *Frame) span(x0, x1, y int) []uint8 {
	return f.Pix[3*(y*f.W+x0) : 3*(y*f.W+x1)]
}

// fillSpan paints every pixel of span, a whole number of pixels and at least
// one, with c: the first pixel, then copies that double what is painted, so a
// span of n pixels is log₂ n copies and no per-pixel bounds check.
func fillSpan(span []uint8, c RGB) {
	span[0], span[1], span[2] = c.R, c.G, c.B
	for n := 3; n < len(span); n *= 2 {
		copy(span[n:], span[:n])
	}
}

// DrawRect outlines the rectangle r with color c.
func (f *Frame) DrawRect(r Rect, c RGB) {
	if r.Empty() {
		return
	}
	f.HLine(r.X, r.X+r.W-1, r.Y, c)
	f.HLine(r.X, r.X+r.W-1, r.Y+r.H-1, c)
	f.VLine(r.X, r.Y, r.Y+r.H-1, c)
	f.VLine(r.X+r.W-1, r.Y, r.Y+r.H-1, c)
}

// HLine draws a horizontal line from (x0, y) to (x1, y), clipped to the
// frame, as one span fill.
func (f *Frame) HLine(x0, x1, y int, c RGB) {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	x0, x1 = max(x0, 0), min(x1, f.W-1)
	if y < 0 || y >= f.H || x0 > x1 {
		return
	}
	fillSpan(f.span(x0, x1+1, y), c)
}

// VLine draws a vertical line from (x, y0) to (x, y1).
func (f *Frame) VLine(x, y0, y1 int, c RGB) {
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		f.Set(x, y, c)
	}
}

// DrawLine draws a line from (x0, y0) to (x1, y1) using Bresenham's
// algorithm.
func (f *Frame) DrawLine(x0, y0, x1, y1 int, c RGB) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		f.Set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// FillCircle paints a filled circle centered at (cx, cy) with radius r.
func (f *Frame) FillCircle(cx, cy, r int, c RGB) {
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy <= r*r {
				f.Set(cx+dx, cy+dy, c)
			}
		}
	}
}

// DrawCircle outlines a circle centered at (cx, cy) with radius r using the
// midpoint circle algorithm.
func (f *Frame) DrawCircle(cx, cy, r int, c RGB) {
	x, y := r, 0
	err := 1 - r
	for x >= y {
		f.Set(cx+x, cy+y, c)
		f.Set(cx-x, cy+y, c)
		f.Set(cx+x, cy-y, c)
		f.Set(cx-x, cy-y, c)
		f.Set(cx+y, cy+x, c)
		f.Set(cx-y, cy+x, c)
		f.Set(cx+y, cy-x, c)
		f.Set(cx-y, cy-x, c)
		y++
		if err < 0 {
			err += 2*y + 1
		} else {
			x--
			err += 2*(y-x) + 1
		}
	}
}

// Blit copies src onto f with its top-left corner at (dx, dy), clipping to
// the destination.
func (f *Frame) Blit(src *Frame, dx, dy int) {
	for y := 0; y < src.H; y++ {
		ty := dy + y
		if ty < 0 || ty >= f.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			tx := dx + x
			if tx < 0 || tx >= f.W {
				continue
			}
			si := 3 * (y*src.W + x)
			di := 3 * (ty*f.W + tx)
			f.Pix[di], f.Pix[di+1], f.Pix[di+2] = src.Pix[si], src.Pix[si+1], src.Pix[si+2]
		}
	}
}

// BlitKeyed copies src onto f at (dx, dy), skipping pixels equal to the
// color key. This is how sprite and object images with "white background"
// (the paper's Figure 2 umbrella) are mounted on a video frame.
func (f *Frame) BlitKeyed(src *Frame, dx, dy int, key RGB) {
	for y := 0; y < src.H; y++ {
		ty := dy + y
		if ty < 0 || ty >= f.H {
			continue
		}
		for x := 0; x < src.W; x++ {
			tx := dx + x
			if tx < 0 || tx >= f.W {
				continue
			}
			si := 3 * (y*src.W + x)
			if src.Pix[si] == key.R && src.Pix[si+1] == key.G && src.Pix[si+2] == key.B {
				continue
			}
			di := 3 * (ty*f.W + tx)
			f.Pix[di], f.Pix[di+1], f.Pix[di+2] = src.Pix[si], src.Pix[si+1], src.Pix[si+2]
		}
	}
}

// Shade multiplies every pixel inside r by factor (used for hover and
// pressed widget states).
func (f *Frame) Shade(r Rect, factor float64) {
	cl := r.Intersect(Rect{0, 0, f.W, f.H})
	for y := cl.Y; y < cl.Y+cl.H; y++ {
		for x := cl.X; x < cl.X+cl.W; x++ {
			f.Set(x, y, f.At(x, y).Scale(factor))
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
