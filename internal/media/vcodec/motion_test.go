package vcodec

import (
	"math/rand"
	"testing"
)

// motionSearchRef is the scalar motion search the word-wide one replaced,
// kept as the oracle: 64 abs-diffs per candidate, row-major scan from
// (−r,−r), −4 bias on the zero vector, strict < to replace the best, early
// exit once a candidate is no better than the best so far.
func motionSearchRef(src, ref *plane, x0, y0, r int) (int, int) {
	if r == 0 {
		return 0, 0
	}
	best, bx, by := int32(1<<30), 0, 0
	for dy := -r; dy <= r; dy++ {
		ry := y0 + dy
		if ry < 0 || ry+blockSize > ref.h {
			continue
		}
		for dx := -r; dx <= r; dx++ {
			rx := x0 + dx
			if rx < 0 || rx+blockSize > ref.w {
				continue
			}
			var sad int32
			if dx == 0 && dy == 0 {
				sad = -4
			}
			for row := 0; row < blockSize && sad < best; row++ {
				rrow := ref.row(rx, ry+row, blockSize)
				crow := src.row(x0, y0+row, blockSize)
				for k, c := range crow {
					d := int32(c) - int32(rrow[k])
					if d < 0 {
						d = -d
					}
					sad += d
				}
			}
			if sad < best {
				best, bx, by = sad, dx, dy
			}
		}
	}
	return bx, by
}

// sadAt is the SAD of src's block at (x0,y0) against ref's block at
// (x0+dx, y0+dy), 64 abs-diffs: what the searches return beside their
// vector, for the encoder's dead-zone exit.
func sadAt(src, ref *plane, x0, y0, dx, dy int) int32 {
	var sad int32
	for row := 0; row < blockSize; row++ {
		rrow := ref.row(x0+dx, y0+dy+row, blockSize)
		for k, c := range src.row(x0, y0+row, blockSize) {
			sad += max(int32(c)-int32(rrow[k]), int32(rrow[k])-int32(c))
		}
	}
	return sad
}

// blockOrigins lists the block positions along a plane side of n samples:
// the aligned ones that fit, plus the last position that fits when n is not
// a block multiple (so odd strides meet an unaligned block on the far edge).
func blockOrigins(n int) []int {
	var at []int
	for o := 0; o+blockSize <= n; o += blockSize {
		at = append(at, o)
	}
	if n%blockSize != 0 {
		at = append(at, n-blockSize)
	}
	return at
}

// checkMotionSearch compares the two searches on every block of the plane
// pair, for every search range the format allows.
func checkMotionSearch(t *testing.T, name string, src, ref *plane) {
	t.Helper()
	var packed packedBlock
	for r := 0; r <= 7; r++ {
		for _, y0 := range blockOrigins(src.h) {
			for _, x0 := range blockOrigins(src.w) {
				packed.load(src, x0, y0)
				gx, gy, gs := motionSearch(&packed, ref, x0, y0, r)
				wx, wy := motionSearchRef(src, ref, x0, y0, r)
				if gx != wx || gy != wy {
					t.Fatalf("%s: block (%d,%d) range %d: mv (%d,%d), reference search says (%d,%d)",
						name, x0, y0, r, gx, gy, wx, wy)
				}
				if ws := sadAt(src, ref, x0, y0, gx, gy); gs != ws {
					t.Fatalf("%s: block (%d,%d) range %d: mv (%d,%d) with SAD %d, its SAD is %d",
						name, x0, y0, r, gx, gy, gs, ws)
				}
			}
		}
	}
}

func TestMotionSearchMatchesReference(t *testing.T) {
	fill := func(w, h int, f func(x, y int) uint8) *plane {
		p := newPlane(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p.pix[y*w+x] = f(x, y)
			}
		}
		return p
	}
	checker := func(phase int) func(x, y int) uint8 {
		return func(x, y int) uint8 {
			if (x+y+phase)%2 == 0 {
				return 255
			}
			return 0
		}
	}
	rng := rand.New(rand.NewSource(41))
	noise := func(int, int) uint8 { return uint8(rng.Intn(256)) }

	// Every block of these planes touches at least one border for the
	// larger ranges, so clipped candidate sets are covered throughout. The
	// codec only builds block-multiple planes; 21×19 and 37×11 are here so
	// the row stride is odd and nothing may lean on alignment.
	for _, size := range [][2]int{{8, 8}, {16, 8}, {24, 16}, {40, 24}, {21, 19}, {37, 11}} {
		w, h := size[0], size[1]

		// All-equal planes: every candidate ties at SAD 0, so the zero
		// vector must win through its bias.
		flat := fill(w, h, func(int, int) uint8 { return 77 })
		checkMotionSearch(t, "flat", flat, flat)
		var packed packedBlock
		packed.load(flat, 0, 0)
		if mx, my, _ := motionSearch(&packed, flat, 0, 0, 3); mx != 0 || my != 0 {
			t.Fatalf("flat %dx%d: mv (%d,%d), want the zero vector", w, h, mx, my)
		}

		// Ties among non-zero candidates only: the reference is flat except
		// for the co-located block, so the zero vector is the worst match
		// and the first candidate in scan order must win.
		spoiled := fill(w, h, func(x, y int) uint8 {
			if x/blockSize == 1 && y/blockSize == 0 {
				return 255
			}
			return 77
		})
		checkMotionSearch(t, "spoiled", flat, spoiled)

		// 0/255 checkerboards: every lane at its extreme, both signs.
		checkMotionSearch(t, "checker", fill(w, h, checker(0)), fill(w, h, checker(1)))
		checkMotionSearch(t, "checker-same", fill(w, h, checker(0)), fill(w, h, checker(0)))
		checkMotionSearch(t, "white-black", fill(w, h, func(int, int) uint8 { return 255 }), fill(w, h, func(int, int) uint8 { return 0 }))

		// Seeded random planes, and a shifted noisy copy (a real motion
		// field with near-ties, like the footage).
		for trial := 0; trial < 8; trial++ {
			src := fill(w, h, noise)
			checkMotionSearch(t, "random", src, fill(w, h, noise))
			sx, sy := rng.Intn(7)-3, rng.Intn(7)-3
			shifted := fill(w, h, func(x, y int) uint8 {
				xx, yy := (x+sx+w)%w, (y+sy+h)%h
				v := int(src.pix[yy*w+xx]) + rng.Intn(5) - 2
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				return uint8(v)
			})
			checkMotionSearch(t, "shifted", src, shifted)
		}
	}
}

// TestMotionSearchBiasTies runs the search on planes of two grey levels one
// apart, where candidates' SADs are small and often exactly 4 from the zero
// vector's: the −4 bias then makes a tie, which the candidate first in the
// scan wins, whether that is the zero vector or one before it.
func TestMotionSearchBiasTies(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		src, ref := newPlane(24, 24), newPlane(24, 24)
		for i := range src.pix {
			src.pix[i] = uint8(100 + rng.Intn(2))
			ref.pix[i] = uint8(100 + rng.Intn(2))
		}
		checkMotionSearch(t, "two-levels", src, ref)
	}
}

// motionRefineRef is a lower rung's motion search by definition: every
// candidate of its set — the 3×3 window around the lead's vector (lx,ly),
// inside ±r and the plane, and the zero vector — visited row-major from
// (−r,−r), 64 abs-diffs each, −4 on the zero vector, and the first strictly
// smaller cost wins.
func motionRefineRef(src, ref *plane, x0, y0, r, lx, ly int) (int, int) {
	if r == 0 {
		return 0, 0
	}
	best, bx, by := int32(1<<30), 0, 0
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			rx, ry := x0+dx, y0+dy
			near := dx >= lx-1 && dx <= lx+1 && dy >= ly-1 && dy <= ly+1
			if !near && (dx != 0 || dy != 0) || rx < 0 || ry < 0 || rx+blockSize > ref.w || ry+blockSize > ref.h {
				continue
			}
			var sad int32
			if dx == 0 && dy == 0 {
				sad = -4
			}
			for row := 0; row < blockSize; row++ {
				rrow := ref.row(rx, ry+row, blockSize)
				for k, c := range src.row(x0, y0+row, blockSize) {
					sad += max(int32(c)-int32(rrow[k]), int32(rrow[k])-int32(c))
				}
			}
			if sad < best {
				best, bx, by = sad, dx, dy
			}
		}
	}
	return bx, by
}

// checkMotionRefine compares motionRefine with its definition on every block
// of the plane pair, for every search range the format allows and every lead
// vector the full search could have lent the block: the corners and edges of
// the window, and windows clipped by the plane's borders.
func checkMotionRefine(t *testing.T, name string, src, ref *plane) {
	t.Helper()
	var packed packedBlock
	for r := 0; r <= 7; r++ {
		for _, y0 := range blockOrigins(src.h) {
			for _, x0 := range blockOrigins(src.w) {
				packed.load(src, x0, y0)
				dx0, dy0, nx, ny := searchWindow(ref, x0, y0, r)
				for ly := dy0; ly < dy0+ny; ly++ {
					for lx := dx0; lx < dx0+nx; lx++ {
						gx, gy, gs := motionRefine(&packed, ref, x0, y0, r, lx, ly)
						wx, wy := motionRefineRef(src, ref, x0, y0, r, lx, ly)
						if gx != wx || gy != wy {
							t.Fatalf("%s: block (%d,%d) range %d lead (%d,%d): mv (%d,%d), the definition says (%d,%d)",
								name, x0, y0, r, lx, ly, gx, gy, wx, wy)
						}
						if ws := sadAt(src, ref, x0, y0, gx, gy); gs != ws {
							t.Fatalf("%s: block (%d,%d) range %d lead (%d,%d): mv (%d,%d) with SAD %d, its SAD is %d",
								name, x0, y0, r, lx, ly, gx, gy, gs, ws)
						}
					}
				}
			}
		}
	}
}

// TestMotionRefineMatchesReference holds a lower rung's search to a brute
// force over its candidate set: on random planes and a shifted noisy copy (a
// motion field with near-ties), on flat planes where every candidate ties and
// the zero vector must win through its bias, and on two grey levels one apart,
// where the biased zero vector often ties a candidate of the window and the
// one first in the scan must win. Odd sizes put blocks on unaligned far edges.
func TestMotionRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fill := func(w, h int, f func(i int) uint8) *plane {
		p := newPlane(w, h)
		for i := range p.pix {
			p.pix[i] = f(i)
		}
		return p
	}
	noise := func(int) uint8 { return uint8(rng.Intn(256)) }
	twoLevels := func(int) uint8 { return uint8(100 + rng.Intn(2)) }
	flat := func(int) uint8 { return 77 }
	for _, size := range [][2]int{{8, 8}, {16, 8}, {24, 16}, {40, 24}, {21, 19}, {37, 11}} {
		w, h := size[0], size[1]
		checkMotionRefine(t, "flat", fill(w, h, flat), fill(w, h, flat))
		for trial := 0; trial < 4; trial++ {
			src := fill(w, h, noise)
			checkMotionRefine(t, "random", src, fill(w, h, noise))
			sx, sy := rng.Intn(7)-3, rng.Intn(7)-3
			checkMotionRefine(t, "shifted", src, fill(w, h, func(i int) uint8 {
				x, y := (i%w+sx+w)%w, (i/w+sy+h)%h
				return uint8(min(max(int(src.pix[y*w+x])+rng.Intn(5)-2, 0), 255))
			}))
			checkMotionRefine(t, "two-levels", fill(w, h, twoLevels), fill(w, h, twoLevels))
		}
	}
}

// TestSADRowKernelExhaustive checks the lane arithmetic against Σ|a−b| for
// every pair of byte values in every one of the eight sample positions, with
// the other seven positions at both extremes so a borrow or carry leaking
// between lanes would show.
func TestSADRowKernelExhaustive(t *testing.T) {
	backgrounds := [][2]uint8{{0, 0}, {255, 255}, {0, 255}, {255, 0}}
	for pos := 0; pos < 8; pos++ {
		for _, bg := range backgrounds {
			var others int32
			if bg[0] != bg[1] {
				others = 7 * 255
			}
			for a := 0; a < 256; a++ {
				for b := 0; b < 256; b++ {
					var cur, ref uint64
					for k := 0; k < 8; k++ {
						ca, cb := bg[0], bg[1]
						if k == pos {
							ca, cb = uint8(a), uint8(b)
						}
						cur |= uint64(ca) << (8 * k)
						ref |= uint64(cb) << (8 * k)
					}
					want := others + int32(a-b)
					if a < b {
						want = others + int32(b-a)
					}
					even, odd := packRow(cur)
					if got := foldLanes(sadRow(even, odd, ref)); got != want {
						t.Fatalf("position %d, background %v: |%d−%d| row sum = %d, want %d", pos, bg, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestSADBlockWorstCase pins the lane-overflow margin foldLanes documents:
// a whole block at maximum difference still sums exactly.
func TestSADBlockWorstCase(t *testing.T) {
	white, black := newPlane(8, 8), newPlane(8, 8)
	for i := range white.pix {
		white.pix[i] = 255
	}
	var packed packedBlock
	var got [1]int32
	packed.load(white, 0, 0)
	if sadRunPortable(&packed, black.pix, black.w, got[:]); got[0] != 64*255 {
		t.Fatalf("sadBlock(white, black) = %d, want %d", got[0], 64*255)
	}
	packed.load(black, 0, 0)
	if sadRunPortable(&packed, white.pix, white.w, got[:]); got[0] != 64*255 {
		t.Fatalf("sadBlock(black, white) = %d, want %d", got[0], 64*255)
	}
}

// sadScalar is the definition: Σ|a−b| over the 64 samples, one at a time.
func sadScalar(cur *[64]uint8, pix []uint8, stride int) int32 {
	var sad int32
	for r := 0; r < blockSize; r++ {
		for k := 0; k < blockSize; k++ {
			d := int32(cur[r*blockSize+k]) - int32(pix[r*stride+k])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// checkSADRun holds sadWindow — the assembly where there is one — to the
// portable loop, and that to the scalar definition, for the one-row window
// of n candidates starting at pix[0], and checks nothing is written past
// out[n−1].
func checkSADRun(t *testing.T, name string, block *[64]uint8, pix []uint8, stride, n int) {
	t.Helper()
	cur := newPlane(blockSize, blockSize)
	copy(cur.pix, block[:])
	var packed packedBlock
	packed.load(cur, 0, 0)
	const sentinel = -12345
	var got, want [16]int32
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	sadWindow(&packed, pix, stride, n, got[:n])
	sadRunPortable(&packed, pix, stride, want[:n])
	if got != want {
		t.Fatalf("%s, stride %d, n %d: sadWindow %v, portable loop %v", name, stride, n, got, want)
	}
	for i := 0; i < n; i++ {
		if s := sadScalar(block, pix[i:], stride); want[i] != s {
			t.Fatalf("%s, stride %d, candidate %d: portable SAD %d, scalar %d", name, stride, i, want[i], s)
		}
	}
}

// TestSADRunMatchesPortable runs on every platform: on amd64 it is the
// assembly against the Go loop, elsewhere the loop against itself and the
// scalar sum. Every run length the search can ask for, every stride from one
// block to past the widest plane the demos build, at the plane's first byte
// and ending on its last row and last byte.
func TestSADRunMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	solid := func(v uint8) func(int) uint8 { return func(int) uint8 { return v } }
	stripes := func(phase int) func(int) uint8 {
		return func(i int) uint8 { return uint8(255 * ((i + phase) % 2)) }
	}
	random := func(int) uint8 { return uint8(rng.Intn(256)) }
	patterns := []struct {
		name       string
		block, ref func(i int) uint8
	}{
		{"random", random, random},
		{"black-on-white", solid(0), solid(255)},
		{"white-on-black", solid(255), solid(0)},
		{"equal", solid(200), solid(200)},
		{"alternating", stripes(0), stripes(1)},
		{"alternating-on-random", stripes(0), random},
	}
	const rows = blockSize + 1
	for stride := blockSize; stride <= 328; stride++ {
		for _, p := range patterns {
			var block [64]uint8
			for i := range block {
				block[i] = p.block(i)
			}
			pix := make([]uint8, stride*rows)
			for i := range pix {
				pix[i] = p.ref(i)
			}
			for n := 1; n <= 15 && n+blockSize-1 <= stride; n++ {
				checkSADRun(t, p.name+" first", &block, pix, stride, n)
				// The run whose last candidate's last row ends the slice.
				last := len(pix) - (7*stride + n - 1 + blockSize)
				checkSADRun(t, p.name+" last", &block, pix[last:], stride, n)
			}
		}
	}
}

// checkSADWindow holds sadWindow — the assembly where there is one — to the
// portable window, and that to the scalar definition, on the window
// motionSearch searches for the block of src at (x0,y0) at range r: every
// entry the SAD of its candidate, the winner the first smallest in row-major
// order, and nothing written past the window's last entry.
func checkSADWindow(t *testing.T, name string, src, ref *plane, x0, y0, r int) {
	t.Helper()
	var packed packedBlock
	packed.load(src, x0, y0)
	var block [64]uint8
	for row := 0; row < blockSize; row++ {
		copy(block[row*blockSize:], src.row(x0, y0+row, blockSize))
	}
	dx0, dy0, nx, ny := searchWindow(ref, x0, y0, r)
	pix := ref.pix[(y0+dy0)*ref.w+x0+dx0:]
	const sentinel = -12345
	var got, want sadGrid
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	gx, gy := sadWindow(&packed, pix, ref.w, nx, got[:nx*ny])
	wx, wy := sadWindowPortable(&packed, pix, ref.w, nx, want[:nx*ny])
	if got != want || gx != wx || gy != wy {
		shown := min(nx*ny+1, len(got)) // the window and the entry after it
		t.Fatalf("%s: block (%d,%d) range %d, %d×%d window: sadWindow %v best (%d,%d), portable %v best (%d,%d)",
			name, x0, y0, r, nx, ny, got[:shown], gx, gy, want[:shown], wx, wy)
	}
	first := 0
	for i := range nx * ny {
		if s := sadScalar(&block, pix[i/nx*ref.w+i%nx:], ref.w); want[i] != s {
			t.Fatalf("%s: block (%d,%d) range %d, candidate (%d,%d): portable SAD %d, scalar %d",
				name, x0, y0, r, i%nx, i/nx, want[i], s)
		}
		if want[i] < want[first] {
			first = i
		}
	}
	if wx != first%nx || wy != first/nx {
		t.Fatalf("%s: block (%d,%d) range %d: best (%d,%d), the first smallest is (%d,%d)",
			name, x0, y0, r, wx, wy, first%nx, first/nx)
	}
}

// TestSADWindowMatchesPortable runs every window the search can ask for —
// each block origin of planes with odd and even strides, every range 0…7,
// clipped at the plane's edges — on random blocks, on planes where every
// candidate ties (flat) or nearly every one does (two grey levels), and on
// 0/255 extremes.
func TestSADWindowMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	fills := []struct {
		name string
		fill func(p *plane)
	}{
		{"random", func(p *plane) { rng.Read(p.pix) }},
		{"flat", func(p *plane) {
			for i := range p.pix {
				p.pix[i] = 77
			}
		}},
		{"two-levels", func(p *plane) {
			for i := range p.pix {
				p.pix[i] = uint8(100 + rng.Intn(2))
			}
		}},
		{"extremes", func(p *plane) {
			for i := range p.pix {
				p.pix[i] = uint8(255 * rng.Intn(2))
			}
		}},
	}
	for _, size := range [][2]int{{8, 8}, {16, 8}, {24, 16}, {40, 24}, {21, 19}, {37, 11}} {
		w, h := size[0], size[1]
		for _, f := range fills {
			src, ref := newPlane(w, h), newPlane(w, h)
			f.fill(src)
			f.fill(ref)
			for r := 0; r <= 7; r++ {
				for _, y0 := range blockOrigins(h) {
					for _, x0 := range blockOrigins(w) {
						checkSADWindow(t, f.name, src, ref, x0, y0, r)
					}
				}
			}
		}
	}
}
