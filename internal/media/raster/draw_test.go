package raster

import (
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := Rect{2, 3, 4, 5}
	cases := []struct {
		x, y int
		want bool
	}{
		{2, 3, true}, {5, 7, true}, {6, 3, false}, {2, 8, false},
		{1, 3, false}, {2, 2, false}, {4, 5, true},
	}
	for _, c := range cases {
		if got := r.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	got := a.Intersect(b)
	if got != (Rect{5, 5, 5, 5}) {
		t.Errorf("Intersect = %+v, want {5 5 5 5}", got)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects should be symmetric and true here")
	}
	c := Rect{20, 20, 3, 3}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestRectInset(t *testing.T) {
	r := Rect{1, 1, 10, 8}.Inset(2)
	if r != (Rect{3, 3, 6, 4}) {
		t.Errorf("Inset = %+v", r)
	}
	if !(Rect{0, 0, 3, 3}).Inset(2).Empty() {
		t.Error("over-inset rect must be empty")
	}
}

func TestQuickIntersectWithinBoth(t *testing.T) {
	err := quick.Check(func(ax, ay int8, aw, ah uint8, bx, by int8, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(aw), int(ah)}
		b := Rect{int(bx), int(by), int(bw), int(bh)}
		in := a.Intersect(b)
		if in.Empty() {
			return true
		}
		// Every corner of the intersection must lie in both rects.
		for _, p := range [][2]int{{in.X, in.Y}, {in.X + in.W - 1, in.Y + in.H - 1}} {
			if !a.Contains(p[0], p[1]) || !b.Contains(p[0], p[1]) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFillRectClipped(t *testing.T) {
	f := New(8, 8)
	f.FillRect(Rect{-4, -4, 8, 8}, Red) // half off-screen
	if f.At(0, 0) != Red || f.At(3, 3) != Red {
		t.Error("in-bounds portion not filled")
	}
	if f.At(4, 4) != Black {
		t.Error("fill overflowed clip region")
	}
}

func TestDrawRectOutline(t *testing.T) {
	f := New(10, 10)
	r := Rect{2, 2, 5, 4}
	f.DrawRect(r, Yellow)
	// corners on, interior off
	for _, p := range [][2]int{{2, 2}, {6, 2}, {2, 5}, {6, 5}} {
		if f.At(p[0], p[1]) != Yellow {
			t.Errorf("corner (%d,%d) not drawn", p[0], p[1])
		}
	}
	if f.At(4, 3) != Black {
		t.Error("interior should be untouched")
	}
}

func TestDrawLineEndpointsAndDiagonal(t *testing.T) {
	f := New(16, 16)
	f.DrawLine(0, 0, 15, 15, Green)
	for i := 0; i < 16; i++ {
		if f.At(i, i) != Green {
			t.Fatalf("diagonal pixel (%d,%d) missing", i, i)
		}
	}
	g := New(16, 16)
	g.DrawLine(12, 3, 2, 9, Red)
	if g.At(12, 3) != Red || g.At(2, 9) != Red {
		t.Error("line endpoints not drawn")
	}
}

func TestFillCircleSymmetry(t *testing.T) {
	f := New(21, 21)
	f.FillCircle(10, 10, 6, Blue)
	if f.At(10, 10) != Blue || f.At(10, 4) != Blue || f.At(16, 10) != Blue {
		t.Error("circle missing expected pixels")
	}
	if f.At(16, 16) != Black {
		t.Error("circle leaked outside radius")
	}
	// 4-fold symmetry
	for dy := -6; dy <= 6; dy++ {
		for dx := -6; dx <= 6; dx++ {
			a := f.At(10+dx, 10+dy)
			b := f.At(10-dx, 10+dy)
			if a != b {
				t.Fatalf("asymmetry at (%d,%d)", dx, dy)
			}
		}
	}
}

func TestDrawCircleOnPerimeter(t *testing.T) {
	f := New(21, 21)
	f.DrawCircle(10, 10, 5, White)
	for _, p := range [][2]int{{15, 10}, {5, 10}, {10, 15}, {10, 5}} {
		if f.At(p[0], p[1]) != White {
			t.Errorf("perimeter point (%d,%d) missing", p[0], p[1])
		}
	}
	if f.At(10, 10) != Black {
		t.Error("circle outline filled center")
	}
}

func TestBlitClipping(t *testing.T) {
	dst := New(8, 8)
	src := New(4, 4)
	src.Fill(Magenta)
	dst.Blit(src, 6, 6) // only 2x2 lands inside
	if dst.At(6, 6) != Magenta || dst.At(7, 7) != Magenta {
		t.Error("visible blit region missing")
	}
	if dst.At(5, 5) != Black {
		t.Error("blit wrote outside destination offset")
	}
	dst2 := New(8, 8)
	dst2.Blit(src, -2, -2)
	if dst2.At(0, 0) != Magenta || dst2.At(1, 1) != Magenta {
		t.Error("negative-offset blit clipped wrong")
	}
	if dst2.At(2, 2) != Black {
		t.Error("blit exceeded source bounds")
	}
}

func TestBlitKeyedTransparency(t *testing.T) {
	dst := New(6, 6)
	dst.Fill(Blue)
	spr := New(3, 3)
	spr.Fill(White) // white is the key: "image object with white background"
	spr.Set(1, 1, Red)
	dst.BlitKeyed(spr, 1, 1, White)
	if dst.At(2, 2) != Red {
		t.Error("opaque sprite pixel not copied")
	}
	if dst.At(1, 1) != Blue {
		t.Error("keyed (background) pixel should not be copied")
	}
}

func TestShadeDarkens(t *testing.T) {
	f := New(4, 4)
	f.Fill(RGB{100, 100, 100})
	f.Shade(Rect{0, 0, 2, 2}, 0.5)
	if f.At(0, 0) != (RGB{50, 50, 50}) {
		t.Errorf("shaded pixel = %v, want {50 50 50}", f.At(0, 0))
	}
	if f.At(3, 3) != (RGB{100, 100, 100}) {
		t.Error("shade leaked outside rect")
	}
}

func TestHVLineSwappedEndpoints(t *testing.T) {
	f := New(8, 8)
	f.HLine(6, 2, 4, Red)
	f.VLine(1, 6, 2, Green)
	for x := 2; x <= 6; x++ {
		if f.At(x, 4) != Red {
			t.Fatalf("HLine missing pixel %d", x)
		}
	}
	for y := 2; y <= 6; y++ {
		if f.At(1, y) != Green {
			t.Fatalf("VLine missing pixel %d", y)
		}
	}
}

// hLineSet and fillRectSet are HLine and FillRect as a Set per pixel, which
// clips each pixel on its own: the definitions the span fills must equal.
func hLineSet(f *Frame, x0, x1, y int, c RGB) {
	for x := min(x0, x1); x <= max(x0, x1); x++ {
		f.Set(x, y, c)
	}
}

func fillRectSet(f *Frame, r Rect, c RGB) {
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			f.Set(x, y, c)
		}
	}
}

// TestSpanFillsMatchSet holds HLine and FillRect to a per-pixel Set on
// spans inside the frame, reversed, clipped on either side or both,
// entirely off the frame to the left, right, above and below (negative y
// included), one pixel wide, and on frames one pixel wide and 1×1; the
// frames start from a pattern, so a byte written outside the span shows.
func TestSpanFillsMatchSet(t *testing.T) {
	c := RGB{R: 11, G: 22, B: 33}
	for _, size := range [][2]int{{13, 7}, {1, 5}, {1, 1}, {64, 3}} {
		w, h := size[0], size[1]
		base := New(w, h)
		for i := range base.Pix {
			base.Pix[i] = uint8(i*7 + 1)
		}
		edges := []int{-100, -2, -1, 0, 1, w / 2, w - 2, w - 1, w, w + 1, w + 100}
		for _, y := range []int{-50, -1, 0, h / 2, h - 1, h, h + 3} {
			for _, x0 := range edges {
				for _, x1 := range edges {
					got, want := base.Clone(), base.Clone()
					got.HLine(x0, x1, y, c)
					hLineSet(want, x0, x1, y, c)
					if !got.Equal(want) {
						t.Fatalf("%dx%d: HLine(%d, %d, %d) differs from a Set per pixel", w, h, x0, x1, y)
					}
				}
			}
		}
		for _, x := range edges {
			for _, y := range []int{-50, -3, -1, 0, 1, h - 1, h, h + 3} {
				for _, rw := range []int{-1, 0, 1, 2, 5, w, w + 200} {
					for _, rh := range []int{-1, 0, 1, 3, h + 60} {
						r := Rect{x, y, rw, rh}
						got, want := base.Clone(), base.Clone()
						got.FillRect(r, c)
						fillRectSet(want, r, c)
						if !got.Equal(want) {
							t.Fatalf("%dx%d: FillRect(%+v) differs from a Set per pixel", w, h, r)
						}
					}
				}
			}
		}
	}
}
