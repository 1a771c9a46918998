package vcodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/media/raster"
)

// The decode kernels against their oracles (oracle_test.go). Each shortcut
// the kernels take is argued exact in its doc comment; these tests are the
// other half of the argument.

// blockOf builds the coefBlock the fused reader would build for the given
// natural-order coefficients: a mask bit wherever a coefficient is non-zero.
func blockOf(coefs *[64]int32) *coefBlock {
	b := &coefBlock{coef: *coefs}
	for pos, v := range coefs {
		if v == 0 {
			continue
		}
		b.cols |= 1 << (pos & 7)
		if pos >= blockSize {
			b.acs |= 1 << (pos & 7)
		}
	}
	return b
}

// checkIDCT holds the sparse transform to the dense one on coefs, with exact
// masks and with every way of overstating them that the reader can produce
// (a coefficient whose product wrapped to zero still sets its bits).
func checkIDCT(t *testing.T, name string, coefs *[64]int32) {
	t.Helper()
	var want, got [64]int32
	idct8x8(coefs, &want)
	exact := blockOf(coefs)
	for _, m := range [][2]uint8{
		{exact.cols, exact.acs},
		{exact.cols | 1, exact.acs},
		{exact.cols | 0x0F, exact.acs | 0x05},
		{0xFF, exact.acs},
		{0xFF, 0xFF},
	} {
		b := &coefBlock{coef: *coefs, cols: m[0], acs: m[1]}
		for i := range got {
			got[i] = math.MinInt32 // idct must write every sample
		}
		b.idct(&got)
		if got != want {
			t.Fatalf("%s (cols %08b acs %08b): sparse idct differs from idct8x8\n got %v\nwant %v", name, m[0], m[1], got, want)
		}
	}
}

// maxLevelQ1 returns, per natural position, the largest level magnitude the
// encoder can emit at q=1: the level of the ±255 residual block shaped like
// that position's basis function.
func maxLevelQ1(t *testing.T) [64]int32 {
	t.Helper()
	var inv [64]int // natural position → zigzag index
	for i, p := range zigzag {
		inv[p] = i
	}
	var out [64]int32
	for pos := range out {
		var unit, shape, res, coefs, levels [64]int32
		unit[pos] = 1 << 12
		idct8x8(&unit, &shape)
		for i, v := range shape {
			res[i] = 255
			if v < 0 {
				res[i] = -255
			}
		}
		fdct8x8(&res, &coefs)
		quantize(&coefs, 1, &levels)
		out[pos] = levels[inv[pos]]
		if out[pos] < 1000 {
			t.Fatalf("position %d: extreme block quantized to level %d, expected four digits", pos, out[pos])
		}
	}
	return out
}

func TestSparseIDCTMatchesDense(t *testing.T) {
	var coefs [64]int32
	checkIDCT(t, "all-zero", &coefs)

	dcDiv, acDiv := quantDivisors(1)
	maxLevel := maxLevelQ1(t)
	for pos := 0; pos < 64; pos++ {
		div := acDiv
		if pos == 0 {
			div = dcDiv
		}
		for _, v := range []int32{
			1, -1, div, -div,
			maxLevel[pos] * div, -maxLevel[pos] * div,
			math.MaxInt32, math.MinInt32, math.MinInt32 + 1,
		} {
			coefs = [64]int32{}
			coefs[pos] = v
			checkIDCT(t, "single coefficient", &coefs)
		}
	}

	// DC plus one AC term, at every position and so in every column, with the
	// DC both dominant and negligible.
	for pos := 1; pos < 64; pos++ {
		for _, dc := range []int32{8, -8 * 2040, math.MaxInt32} {
			for _, ac := range []int32{-8, 8 * 300, math.MinInt32} {
				coefs = [64]int32{}
				coefs[0], coefs[pos] = dc, ac
				checkIDCT(t, "DC plus one AC", &coefs)
			}
		}
	}

	// Seeded random sparse patterns: 1…12 coefficients, low frequencies
	// favoured the way real blocks are, magnitudes from tiny to int32-wide.
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 10000; trial++ {
		coefs = [64]int32{}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			idx := rng.Intn(64)
			if rng.Intn(2) == 0 {
				idx = rng.Intn(10)
			}
			v := int32(rng.Intn(1<<uint(1+rng.Intn(16)))) - int32(rng.Intn(1<<uint(1+rng.Intn(16))))
			if rng.Intn(50) == 0 {
				v = int32(rng.Uint32())
			}
			coefs[zigzag[idx]] = v
		}
		checkIDCT(t, "random sparse", &coefs)
	}
}

// checkFusedRead runs the fused reader and the readLevels + dequantize pair
// over one stream and requires the same verdict, the same bytes consumed,
// the same coefficients, and masks that cover every non-zero coefficient and
// are empty exactly when the block has no pairs.
func checkFusedRead(t *testing.T, stream []byte, qstep int) {
	t.Helper()
	var levels, want [64]int32
	ro := &byteReader{buf: stream}
	errO := readLevels(ro, &levels)
	dcDiv, acDiv := quantDivisors(qstep)
	b := &coefBlock{cols: 0xAA, acs: 0x55}
	for i := range b.coef {
		b.coef[i] = int32(i) - 7 // stale contents must not leak through
	}
	rf := &byteReader{buf: stream}
	errF := b.read(rf, dcDiv, acDiv)
	if (errO == nil) != (errF == nil) {
		t.Fatalf("stream %x: readLevels err %v, fused reader err %v", stream, errO, errF)
	}
	if errO != nil {
		return
	}
	if ro.pos != rf.pos {
		t.Fatalf("stream %x: readLevels consumed %d bytes, fused reader %d", stream, ro.pos, rf.pos)
	}
	dequantize(&levels, qstep, &want)
	if n, _ := binary.Uvarint(stream); n == 0 {
		if b.cols != 0 || b.acs != 0 {
			t.Fatalf("empty block: masks %08b/%08b, want none", b.cols, b.acs)
		}
		return // coef is unspecified when cols is 0
	}
	if b.coef != want {
		t.Fatalf("stream %x q%d: coefficients differ\n got %v\nwant %v", stream, qstep, b.coef, want)
	}
	exact := blockOf(&want)
	if b.cols&exact.cols != exact.cols || b.acs&exact.acs != exact.acs || b.acs&^b.cols != 0 || b.cols == 0 {
		t.Fatalf("stream %x: masks %08b/%08b do not cover %08b/%08b", stream, b.cols, b.acs, exact.cols, exact.acs)
	}
}

func TestFusedReaderMatchesReadLevelsDequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qsteps := []int{1, 2, 4, 5, 10, 24, 64, 128}
	// What the encoder writes: any level set through writeLevels.
	for trial := 0; trial < 5000; trial++ {
		var levels [64]int32
		for n := rng.Intn(20); n > 0; n-- {
			v := int32(rng.Intn(129) - 64)
			switch rng.Intn(20) {
			case 0:
				v = int32(rng.Uint32())
			case 1:
				v = []int32{math.MaxInt32, math.MinInt32, 1 << 28, -1 << 29}[rng.Intn(4)]
			}
			levels[rng.Intn(64)] = v
		}
		if trial%100 == 0 {
			for i := range levels {
				levels[i] = int32(rng.Intn(5) - 2)
			}
		}
		var w byteWriter
		writeLevels(&w, &levels)
		w.bytes([]byte{0xEE, 0xEE}) // the next block's bytes must be left alone
		checkFusedRead(t, w.buf, qsteps[rng.Intn(len(qsteps))])
	}
	// What only an outsider writes: levels beyond int32 (truncated on read,
	// possibly to zero) and multi-byte encodings of small runs.
	wide := []int64{1 << 32, 1<<32 + 5, -1 << 32, 1<<40 - 3, math.MaxInt64, math.MinInt64, 1 << 31, -1<<31 - 1}
	for _, lvl := range wide {
		for _, run := range []uint64{0, 1, 9, 63} {
			s := []byte{2}
			s = binary.AppendUvarint(s, run)
			s = binary.AppendVarint(s, lvl)
			s = append(s, 0x80, 0x00) // run 0 in two bytes
			s = binary.AppendVarint(s, -lvl/3+1)
			for _, q := range qsteps {
				checkFusedRead(t, s, q)
			}
		}
	}
	// Arbitrary bytes: whatever the oracle accepts or rejects, so does the
	// fused reader.
	for trial := 0; trial < 20000; trial++ {
		s := make([]byte, 1+rng.Intn(24))
		for i := range s {
			s[i] = uint8(rng.Intn(256))
			if rng.Intn(3) > 0 {
				s[i] &= 0x0F
			}
		}
		checkFusedRead(t, s, qsteps[rng.Intn(len(qsteps))])
	}
}

func TestFusedReaderRejectsCorrupt(t *testing.T) {
	for i, c := range corruptLevelStreams() {
		var b coefBlock
		if err := b.read(&byteReader{buf: c}, 8, 16); err == nil {
			t.Errorf("case %d: corrupt stream accepted", i)
		}
		checkFusedRead(t, c, 2)
	}
}

// noisePlane returns a w×h plane of seeded random samples.
func noisePlane(rng *rand.Rand, w, h int) *plane {
	p := newPlane(w, h)
	for i := range p.pix {
		p.pix[i] = uint8(rng.Intn(256))
	}
	return p
}

// TestReconstructMatchesOracle holds the one block reconstruction to the
// dense routines it replaced. The zero-residual case — the prediction copied
// with no transform at all — is checked at every legal motion vector of
// every border block of a 24×16 plane, the rest on random level sets.
func TestReconstructMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := noisePlane(rng, 24, 16)
	var zero [64]int32
	empty := &coefBlock{}
	for i := range empty.coef {
		empty.coef[i] = int32(rng.Uint32()) // stale, and cols == 0 says ignore it
	}
	vectors := 0
	for y0 := 0; y0 < ref.h; y0 += blockSize {
		for x0 := 0; x0 < ref.w; x0 += blockSize {
			for mvy := -8; mvy <= 7; mvy++ {
				for mvx := -8; mvx <= 7; mvx++ {
					if x0+mvx < 0 || x0+mvx+blockSize > ref.w || y0+mvy < 0 || y0+mvy+blockSize > ref.h {
						continue
					}
					want, got := noisePlane(rng, ref.w, ref.h), newPlane(ref.w, ref.h)
					copy(got.pix, want.pix)
					reconstructMCRef(ref, want, x0, y0, mvx, mvy, 10, &zero)
					reconstruct(empty, ref, x0+mvx, y0+mvy, got, x0, y0)
					if string(got.pix) != string(want.pix) {
						t.Fatalf("block (%d,%d) mv (%d,%d): zero-residual copy differs from reconstructMC", x0, y0, mvx, mvy)
					}
					vectors++
				}
			}
		}
	}
	if want := (8 + 16 + 9) * (8 + 9); vectors != want { // per block column × per block row
		t.Fatalf("%d legal vectors visited, want %d", vectors, want)
	}

	for trial := 0; trial < 3000; trial++ {
		var levels [64]int32
		for n := rng.Intn(8); n > 0; n-- {
			levels[rng.Intn(1+rng.Intn(64))] = int32(rng.Intn(61) - 30)
		}
		if trial%7 == 0 {
			levels = [64]int32{int32(rng.Intn(400) - 200)} // DC alone
		}
		qstep := 1 + rng.Intn(64)
		var w byteWriter
		var blk coefBlock
		codeLevels(&w, &levels, qstep, &blk)
		x0, y0 := blockSize*rng.Intn(3), blockSize*rng.Intn(2)
		want, got := noisePlane(rng, ref.w, ref.h), newPlane(ref.w, ref.h)
		copy(got.pix, want.pix)
		if trial%3 == 0 {
			reconstructIntraRef(want, x0, y0, qstep, &levels)
			reconstruct(&blk, nil, 0, 0, got, x0, y0)
		} else {
			px, py := rng.Intn(ref.w-blockSize+1), rng.Intn(ref.h-blockSize+1)
			reconstructMCRef(ref, want, x0, y0, px-x0, py-y0, qstep, &levels)
			reconstruct(&blk, ref, px, py, got, x0, y0)
		}
		if string(got.pix) != string(want.pix) {
			t.Fatalf("trial %d (q%d, levels %v): reconstruction differs from the dense oracle", trial, qstep, levels)
		}
	}
}

// TestColourTablesExhaustive checks the table conversion against the BT.601
// arithmetic on every (luma, Cb, Cr) triple.
func TestColourTablesExhaustive(t *testing.T) {
	for cb := int32(0); cb < 256; cb++ {
		for cr := int32(0); cr < 256; cr++ {
			s := uint32(cb)<<4 | uint32(cr)<<20 // 16× each sample, as the upsampler delivers it
			for yy := int32(0); yy < 256; yy++ {
				var got [3]uint8
				colour.putRGB(got[:], colour.channels(uint8(yy), s))
				want := [3]uint8{
					clamp255(yy + (359 * (cr - 128) >> 8)),
					clamp255(yy - (88 * (cb - 128) >> 8) - (183 * (cr - 128) >> 8)),
					clamp255(yy + (454 * (cb - 128) >> 8)),
				}
				if got != want {
					t.Fatalf("Y %d Cb %d Cr %d: tables give %v, arithmetic %v", yy, cb, cr, got, want)
				}
			}
		}
	}
}

// colourFills are the plane contents the colour-pass tests run over.
func colourFills(rng *rand.Rand) map[string]func(p *plane, seed int) {
	return map[string]func(p *plane, seed int){
		"random": func(p *plane, _ int) {
			for i := range p.pix {
				p.pix[i] = uint8(rng.Intn(256))
			}
		},
		"smooth": func(p *plane, seed int) {
			for y := 0; y < p.h; y++ {
				for x := 0; x < p.w; x++ {
					p.pix[y*p.w+x] = uint8(seed*40 + 3*x + 5*y)
				}
			}
		},
		"extremes": func(p *plane, _ int) { // hard 0/255 edges: the widest blends and both clamps
			for i := range p.pix {
				p.pix[i] = uint8(255 * rng.Intn(2))
			}
		},
		"all-0": func(p *plane, _ int) {
			for i := range p.pix {
				p.pix[i] = 0
			}
		},
		"all-255": func(p *plane, _ int) {
			for i := range p.pix {
				p.pix[i] = 255
			}
		},
	}
}

func TestColourPassMatchesPerPixel(t *testing.T) {
	fills := colourFills(rand.New(rand.NewSource(11)))
	var blend []uint16 // carried across sizes, as a Decoder carries it
	got := raster.New(200, 200)
	for _, sz := range [][2]int{{1, 1}, {2, 2}, {3, 5}, {15, 33}, {16, 16}, {161, 121}, {2, 1}, {1, 2}, {4, 3}} {
		for name, fill := range fills {
			img := newYCbCr(sz[0], sz[1])
			fill(img.y, 0)
			fill(img.cb, 1)
			fill(img.cr, 2)
			var want raster.Frame
			img.toFrameIntoRef(&want)
			for i := range got.Pix[:cap(got.Pix)] {
				got.Pix[:cap(got.Pix)][i] = 0x5A
			}
			blend = img.toFrameInto(got, blend)
			if !got.Equal(&want) {
				t.Errorf("%dx%d %s planes: colour pass differs from the per-pixel formula", sz[0], sz[1], name)
			}
		}
	}
}

// TestColourRowsMatchPortable holds the dispatching colour pass — SSE2 rows
// with a Go tail on amd64 — to its two oracles, the per-pixel formula and the
// portable row loop every other target runs, on every width that puts a
// different number of pixels through the kernel and the tail (none, one
// step, three steps and a tail), on heights that take every vertical weight
// and both replicated rows, and on the frame sizes the courses use. The
// scratch and the frames are carried across sizes, as a Decoder carries
// them, so a stale edge sample or a row left over from a wider frame shows.
func TestColourRowsMatchPortable(t *testing.T) {
	fills := colourFills(rand.New(rand.NewSource(23)))
	var sizes [][2]int
	for w := 1; w <= 49; w++ {
		for _, h := range []int{1, 2, 3, 8, 9} {
			sizes = append(sizes, [2]int{w, h})
		}
	}
	sizes = append(sizes, [2]int{160, 120}, [2]int{161, 121}, [2]int{320, 240})
	var scratch, portableScratch []uint16
	var got, portable, want raster.Frame
	for _, sz := range sizes {
		for name, fill := range fills {
			img := newYCbCr(sz[0], sz[1])
			fill(img.y, 0)
			fill(img.cb, 1)
			fill(img.cr, 2)
			img.toFrameIntoRef(&want)
			portableScratch = img.toFrameIntoPortable(&portable, portableScratch)
			scratch = img.toFrameInto(&got, scratch)
			if !portable.Equal(&want) {
				t.Errorf("%dx%d %s planes: portable rows differ from the per-pixel formula", sz[0], sz[1], name)
			}
			if !got.Equal(&want) {
				t.Errorf("%dx%d %s planes: colour pass differs from the per-pixel formula", sz[0], sz[1], name)
			}
		}
	}
}

// TestDecodeSteadyStateAllocs is the decode twin of
// TestEncodeSteadyStateAllocs: once a decoder has seen a GOP, neither
// presenting a frame nor rolling past one allocates.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	film := testFilm(t)
	enc, err := NewEncoder(encCfg(96, 64))
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	for i := 0; i < 16; i++ {
		p, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p.Data)
	}
	dec := NewDecoder()
	var frame raster.Frame
	i := 0
	next := func() []byte { i++; return pkts[(i-1)%len(pkts)] }
	for range pkts { // warm both image buffers, the row tables and the frame
		if err := dec.DecodeInto(&frame, next()); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(64, func() {
		if err := dec.DecodeInto(&frame, next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto allocates %.1f objects/frame, want 0", n)
	}
	if n := testing.AllocsPerRun(64, func() {
		if err := dec.Advance(next()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Advance allocates %.1f objects/frame, want 0", n)
	}
}

// TestQuantizeMatchesDivision holds the reciprocal multiply to the division
// it stands for, at every quantizer step the format allows and every
// numerator in ±2¹⁷ — four times past the largest coefficient fdct8x8 can
// produce. The kernel is checked on both divisors for every numerator; the
// two quantizers themselves are then run over blocks of consecutive
// numerators, which puts every one of them on an AC position and every 63rd
// on the DC.
func TestQuantizeMatchesDivision(t *testing.T) {
	const span = 1 << 17
	for qstep := 1; qstep <= 128; qstep++ {
		dcDiv, acDiv := quantDivisors(qstep)
		for _, d := range []int32{dcDiv, acDiv} {
			m := reciprocal(d)
			for v := int32(-span); v <= span; v++ {
				if got, want := divSigned(v, 0, m), v/d; got != want {
					t.Fatalf("qstep %d: %d / %d = %d, reciprocal says %d", qstep, v, d, want, got)
				}
				if got, want := divSigned(v, d>>1, m), roundDiv(v, d); got != want {
					t.Fatalf("qstep %d: roundDiv(%d, %d) = %d, reciprocal says %d", qstep, v, d, want, got)
				}
			}
		}
		var coefs, rounded, truncated [64]int32
		for base := int32(-span - 1); base < span; base += 63 {
			for i := range coefs {
				coefs[zigzag[i]] = base + int32(i)
			}
			quantize(&coefs, qstep, &rounded)
			quantizeDeadzone(&coefs, qstep, &truncated)
			for i := range coefs {
				v, d := base+int32(i), acDiv
				if i == 0 {
					d = dcDiv
				}
				if rounded[i] != roundDiv(v, d) || truncated[i] != v/d {
					t.Fatalf("qstep %d, scan position %d, coefficient %d: quantize %d (want %d), quantizeDeadzone %d (want %d)",
						qstep, i, v, rounded[i], roundDiv(v, d), truncated[i], v/d)
				}
			}
		}
	}
}

// TestFDCTMatrixBounds is the overflow proof of the SSE2 transform
// (dct_amd64.s), rebuilt from the Go butterfly on every run: a changed
// constant, pass1Bits or residual range fails here instead of wrapping
// silently in the kernel. The kernel keeps samples, row outputs and the
// butterfly's sums in 16-bit words, multiplies words by fdctMatrix entries
// with 32-bit sums (PMADDWD) and descales in 32 bits; the odd rows and rows
// 0, 2, 4, 6 take the butterfly's sums and differences as their inputs.
func TestFDCTMatrixBounds(t *testing.T) {
	const maxResidual = 255 // cur − pred of two bytes
	m := fdctMatrix()

	// The same matrix is read off the column pass: an impulse down column 0.
	for n := 0; n < blockSize; n++ {
		var src, dst [64]int32
		src[n*blockSize] = 1 << constBits
		fdct8x8(&src, &dst)
		for k := 0; k < blockSize; k++ {
			if dst[k*blockSize] != m[k][n] {
				t.Fatalf("column pass weighs input %d of output %d by %d, the row pass by %d", n, k, dst[k*blockSize], m[k][n])
			}
		}
	}
	// The structure the kernel's pairs rely on (buildFDCTPairs).
	for k := 0; k < blockSize; k++ {
		for n := 0; n < blockSize/2; n++ {
			if even := k%2 == 0; (even && m[k][n] != m[k][7-n]) || (!even && m[k][n] != -m[k][7-n]) {
				t.Fatalf("row %d is not %s: m[%d][%d] = %d, m[%d][%d] = %d", k, map[bool]string{true: "symmetric", false: "antisymmetric"}[even], k, n, m[k][n], k, 7-n, m[k][7-n])
			}
		}
	}
	for _, k := range []int{0, 4} { // weighs t10 = a0+a3 and t11 = a1+a2
		if m[k][0] != m[k][3] || m[k][1] != m[k][2] {
			t.Fatalf("row %d is not a weighing of (t10, t11): %v", k, m[k])
		}
	}
	for _, k := range []int{2, 6} { // weighs t13 = a0−a3 and t12 = a1−a2
		if m[k][0] != -m[k][3] || m[k][1] != -m[k][2] {
			t.Fatalf("row %d is not a weighing of (t13, t12): %v", k, m[k])
		}
	}

	var maxC, rowSum, colSum int64 // rowSum, colSum: the largest Σₙ|m[k][n]|
	for k := range m {
		var s int64
		for _, c := range m[k] {
			a := int64(c)
			if a < 0 {
				a = -a
			}
			maxC = max(maxC, a)
			s += a
		}
		rowSum = max(rowSum, s)
	}
	colSum = rowSum
	rowOut := (rowSum*maxResidual + 1<<(constBits-pass1Bits-1)) >> (constBits - pass1Bits)
	colAcc := colSum*rowOut + 1<<(constBits+pass1Bits-1)
	coefOut := colAcc >> (constBits + pass1Bits)
	t.Logf("max |m| %d; row outputs ≤ %d; column sums ≤ %d (%.0f%% of 2³¹); outputs ≤ %d", maxC, rowOut, colAcc, 100*float64(colAcc)/(1<<31), coefOut)
	if maxC > math.MaxInt16 {
		t.Errorf("a matrix entry of %d does not fit a PMADDWD word", maxC)
	}
	if rowOut > 8160 {
		t.Errorf("row outputs reach %d, above the 8160 the column pass's word sums are sized for", rowOut)
	}
	if 4*rowOut > math.MaxInt16 { // t10 and t13 add four row outputs in a word
		t.Errorf("the column pass's butterfly sums reach %d, past a word", 4*rowOut)
	}
	if colAcc > math.MaxInt32 {
		t.Errorf("column sums reach %d with rounding, past a dword", colAcc)
	}
	if coefOut > math.MaxInt16 || coefOut > 64*maxResidual {
		t.Errorf("coefficients reach %d, past the 64·255 the quantizer is sized for", coefOut)
	}
	if _, acDiv := quantDivisors(128); coefOut+int64(acDiv/2) >= 1<<15 {
		t.Errorf("a quantizer numerator reaches %d, past 2¹⁵", coefOut+int64(acDiv/2))
	}
}

// rangedBlock is blockOf with outside set where the reader would set it.
func rangedBlock(coefs *[64]int32) *coefBlock {
	b := blockOf(coefs)
	for _, c := range coefs {
		b.outside = b.outside || !inIDCTRange(c)
	}
	return b
}

// readBlock writes levels with writeLevels and reads them back at qstep,
// requiring outside to say whether a coefficient left ±idctRange.
func readBlock(t *testing.T, levels *[64]int32, qstep int) *coefBlock {
	t.Helper()
	var w byteWriter
	writeLevels(&w, levels)
	dcDiv, acDiv := quantDivisors(qstep)
	b := &coefBlock{outside: true}
	if err := b.read(&byteReader{buf: w.buf}, dcDiv, acDiv); err != nil {
		t.Fatal(err)
	}
	var outside bool
	for _, c := range b.coef {
		outside = outside || !inIDCTRange(c)
	}
	if b.cols != 0 && b.outside != outside {
		t.Fatalf("levels %v at q%d: outside %v, coefficients %v", levels, qstep, b.outside, b.coef)
	}
	return b
}

// namedBlock is a coefficient block the stage tests run, and whether every
// legal motion vector is swept with it (one block of each kind is).
type namedBlock struct {
	name  string
	blk   *coefBlock
	sweep bool
}

// stageBlocks returns the blocks the reconstruction stage is held to its Go
// path on: no coefficients (with stale ones behind cols = 0); a DC term
// alone, from tiny to int32-wide; one column; a few terms and every term in
// range; each output's extreme block — every coefficient ±idctRange with
// the signs of that output's basis function, which drives both passes' sums
// to their bound — and the same at ±(idctRange+1); one coefficient just
// past the range; levels at the range's edge and one whose dequantizing
// product wraps, through the reader; and random int32 coefficients.
func stageBlocks(t *testing.T, rng *rand.Rand) []namedBlock {
	var out []namedBlock
	add := func(name string, b *coefBlock, sweep bool) { out = append(out, namedBlock{name, b, sweep}) }
	stale := &coefBlock{}
	for i := range stale.coef {
		stale.coef[i] = int32(rng.Uint32())
	}
	add("empty", stale, true)
	for i, dc := range []int32{8, -8, 8 * 300, idctRange, -idctRange, idctRange + 1, -idctRange - 1, math.MaxInt32, math.MinInt32} {
		add(fmt.Sprintf("dc %d", dc), rangedBlock(&[64]int32{dc}), i == 0)
	}
	const b = idctRange
	var coefs [64]int32
	for i, col := range [][8]int32{{800, -96, 0, 48}, {b, -b, b, -b, b, -b, b, -b}, {-b, b, b, b, -b, -b, b, -b}} {
		coefs = [64]int32{}
		for k, v := range col {
			coefs[k*blockSize] = v
		}
		add(fmt.Sprintf("one column %d", i), rangedBlock(&coefs), i == 0)
	}
	for trial := 0; trial < 40; trial++ {
		coefs = [64]int32{}
		n := 2 + rng.Intn(10)
		if trial%4 == 0 {
			n = 64
		}
		for ; n > 0; n-- {
			coefs[rng.Intn(64)] = rng.Int31n(2*b+1) - b
		}
		add(fmt.Sprintf("dense %d", trial), rangedBlock(&coefs), trial < 2)
	}
	m := idctMatrix()
	for _, mag := range []int32{b, b + 1} {
		for out := 0; out < 64; out++ {
			u, v := out/blockSize, out%blockSize
			for _, sign := range []int32{1, -1} {
				for i := range coefs {
					coefs[i] = sign * mag
					if m[u][i/blockSize]*m[v][i%blockSize] < 0 {
						coefs[i] = -coefs[i]
					}
				}
				add(fmt.Sprintf("extreme %d (%d,%d)·%d", mag, u, v, sign), rangedBlock(&coefs), out == 0 && sign == 1)
			}
		}
	}
	for pos := 0; pos < 64; pos++ {
		coefs = [64]int32{}
		coefs[0], coefs[9] = 300, -200
		coefs[pos] = b + 1
		if pos%2 == 1 {
			coefs[pos] = -b - 1
		}
		add(fmt.Sprintf("one past the range at %d", pos), rangedBlock(&coefs), pos == 63)
	}
	// q1 divides by 8: level 1088 is idctRange, 1089 the first past it, and
	// 2²⁸+1 wraps to −2³¹+8.
	for _, lvl := range []int32{1088, -1088, 1089, -1089, 1<<28 + 1, -1<<28 - 1} {
		add(fmt.Sprintf("level %d at q1", lvl), readBlock(t, &[64]int32{40, lvl, -3, 0, 7}, 1), true)
		add(fmt.Sprintf("level %d at q1, DC", lvl), readBlock(t, &[64]int32{lvl, 0, 5}, 1), false)
	}
	for trial := 0; trial < 20; trial++ {
		coefs = [64]int32{}
		for n := 1 + rng.Intn(64); n > 0; n-- {
			coefs[rng.Intn(64)] = int32(rng.Uint32())
		}
		add(fmt.Sprintf("int32 %d", trial), rangedBlock(&coefs), false)
	}
	return out
}

// TestReconstructMatchesGo holds the dispatching reconstruction stage —
// SSE2 on amd64 — to reconstructPortable and copyBlockPortable, plane for
// plane, so a byte written beside the block fails too: every stageBlocks
// block as an intra block at every block position and as a motion-
// compensated one (at every legal vector for one block of each kind, three
// random ones for the rest), and the block copy at every legal vector, on
// planes three and five blocks wide.
func TestReconstructMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	blocks := stageBlocks(t, rng)
	for _, sz := range [][2]int{{24, 16}, {40, 24}} {
		w, h := sz[0], sz[1]
		ref, base := noisePlane(rng, w, h), noisePlane(rng, w, h)
		want, got := newPlane(w, h), newPlane(w, h)
		check := func(what string, goPath, stage func(dst *plane)) {
			t.Helper()
			copy(want.pix, base.pix)
			copy(got.pix, base.pix)
			goPath(want)
			stage(got)
			if string(got.pix) != string(want.pix) {
				for i := range got.pix {
					if got.pix[i] != want.pix[i] {
						t.Fatalf("%dx%d %s: sample (%d,%d) is %d, the Go path's %d", w, h, what, i%w, i/w, got.pix[i], want.pix[i])
					}
				}
			}
		}
		for y0 := 0; y0 < h; y0 += blockSize {
			for x0 := 0; x0 < w; x0 += blockSize {
				var vectors [][2]int
				for py := max(0, y0-8); py <= min(h-blockSize, y0+7); py++ {
					for px := max(0, x0-8); px <= min(w-blockSize, x0+7); px++ {
						vectors = append(vectors, [2]int{px, py})
					}
				}
				for _, v := range vectors {
					check(fmt.Sprintf("copy (%d,%d) → (%d,%d)", v[0], v[1], x0, y0),
						func(dst *plane) { copyBlockPortable(ref, v[0], v[1], dst, x0, y0) },
						func(dst *plane) { copyBlock(ref, v[0], v[1], dst, x0, y0) })
				}
				for _, nb := range blocks {
					check(fmt.Sprintf("%s, intra at (%d,%d)", nb.name, x0, y0),
						func(dst *plane) { reconstructPortable(nb.blk, nil, 0, 0, dst, x0, y0) },
						func(dst *plane) { reconstruct(nb.blk, nil, 0, 0, dst, x0, y0) })
					mc := vectors
					if !nb.sweep {
						mc = [][2]int{vectors[rng.Intn(len(vectors))], vectors[0], vectors[len(vectors)-1]}
					}
					for _, v := range mc {
						check(fmt.Sprintf("%s, (%d,%d) predicted from (%d,%d)", nb.name, x0, y0, v[0], v[1]),
							func(dst *plane) { reconstructPortable(nb.blk, ref, v[0], v[1], dst, x0, y0) },
							func(dst *plane) { reconstruct(nb.blk, ref, v[0], v[1], dst, x0, y0) })
					}
				}
			}
		}
	}
}

// TestIDCTMatrixBounds is the overflow proof of the SSE2 transform
// (recon_amd64.s), rebuilt from idctLine on every run: a changed constant,
// shift or idctRange fails here instead of wrapping silently in the kernel.
// The kernel packs coefficients to 16-bit words, multiplies words by
// idctMatrix entries with 32-bit sums (PMADDWD), descales in 32 bits, packs
// the column pass's outputs to words for the row pass, and adds the row
// pass's outputs to prediction bytes in words (PADDSW). Every sum it forms
// is the whole of one output's sum or a part of it, so the bound on
// Σₖ|m[n][k]|·|x| covers them all.
func TestIDCTMatrixBounds(t *testing.T) {
	m := idctMatrix()

	// The matrix is idctLine, on inputs as wide as an int32.
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10000; trial++ {
		var s [blockSize]int64
		for k := range s {
			s[k] = int64(int32(rng.Uint32())) >> rng.Intn(32)
		}
		d0, d1, d2, d3, d4, d5, d6, d7 := idctLine(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		for n, d := range [blockSize]int64{d0, d1, d2, d3, d4, d5, d6, d7} {
			var sum int64
			for k := range s {
				sum += int64(m[n][k]) * s[k]
			}
			if sum != d {
				t.Fatalf("idctMatrix row %d gives %d on %v, idctLine %d", n, sum, s, d)
			}
		}
	}
	// The structure idctPairs and the kernel's passes rely on: output 7−n is
	// output n with the odd terms negated, and rows 3 and 2 weigh (s0, s4)
	// like rows 0 and 1 and (s2, s6) negated.
	for n := 0; n < blockSize/2; n++ {
		for k := range blockSize {
			if want := m[n][k] * int32(1-2*(k%2)); m[7-n][k] != want {
				t.Fatalf("m[%d][%d] = %d, want %d (row %d with its odd terms negated)", 7-n, k, m[7-n][k], want, n)
			}
		}
	}
	for _, p := range [][2]int{{0, 3}, {1, 2}} {
		a, b := m[p[0]], m[p[1]]
		if b[0] != a[0] || b[4] != a[4] || b[2] != -a[2] || b[6] != -a[6] {
			t.Fatalf("rows %d and %d do not share their even weights: %v, %v", p[0], p[1], a, b)
		}
	}

	var maxC, rowSum int64 // rowSum: the largest Σₖ|m[n][k]|
	for n := range m {
		var s int64
		for _, c := range m[n] {
			a := int64(c)
			if a < 0 {
				a = -a
			}
			maxC = max(maxC, a)
			s += a
		}
		rowSum = max(rowSum, s)
	}
	// bounds returns, for coefficients in ±b: the column pass's largest
	// dword sum with rounding, its largest output, the row pass's largest
	// dword sum with rounding and its largest output.
	bounds := func(b int64) (colAcc, colOut, rowAcc, out int64) {
		colAcc = rowSum*b + 1<<(idctColShift-1)
		colOut = colAcc >> idctColShift
		rowAcc = rowSum*colOut + 1<<(idctRowShift-1)
		return colAcc, colOut, rowAcc, rowAcc >> idctRowShift
	}
	colAcc, colOut, rowAcc, out := bounds(idctRange)
	t.Logf("max |m| %d, Σ|m| ≤ %d; coefficients in ±%d: column sums ≤ %d (%.0f%% of 2³¹), column outputs ≤ %d, row sums ≤ %d (%.0f%% of 2³¹), outputs ≤ %d",
		maxC, rowSum, idctRange, colAcc, 100*float64(colAcc)/(1<<31), colOut, rowAcc, 100*float64(rowAcc)/(1<<31), out)
	if maxC > math.MaxInt16 {
		t.Errorf("a matrix entry of %d does not fit a PMADDWD word", maxC)
	}
	if idctRange > math.MaxInt16 {
		t.Errorf("idctRange %d does not fit the word a coefficient is packed to", idctRange)
	}
	if colAcc > math.MaxInt32 {
		t.Errorf("column sums reach %d with rounding, past a dword", colAcc)
	}
	if colOut > math.MaxInt16 {
		t.Errorf("column outputs reach %d, past the row pass's words", colOut)
	}
	if rowAcc > math.MaxInt32 {
		t.Errorf("row sums reach %d with rounding, past a dword", rowAcc)
	}
	if out+255 > math.MaxInt16 {
		t.Errorf("outputs reach %d: plus a prediction byte, past the PADDSW word", out)
	}
	// A DC-only block in range adds flatDC's value as one word.
	for _, dc := range []int32{idctRange, -idctRange} {
		if v := flatDC(dc); v < math.MinInt16 || v > math.MaxInt16 {
			t.Errorf("flatDC(%d) = %d does not fit addFlatSSE2's word", dc, v)
		}
	}
	// The range a motion-compensated residual's coefficients span, for the
	// record: the column outputs leave a word and the row sums a dword, so
	// the kernel would need each output split in two and twice the
	// multiplies (EXPERIMENTS.md E35).
	mcAcc, mcOut, mcRow, _ := bounds(64*255 + 512)
	t.Logf("coefficients in ±%d would give column sums ≤ %d, column outputs ≤ %d, row sums ≤ %d (%.2f× 2³¹)",
		64*255+512, mcAcc, mcOut, mcRow, float64(mcRow)/(1<<31))

	// idctRange holds every coefficient of an intra block: the ±128 residual
	// shaped like each position's basis function, both signs, quantized at
	// every step and dequantized.
	var widest int32
	for pos := 0; pos < 64; pos++ {
		var unit, shape [64]int32
		unit[pos] = 1 << 12
		idct8x8(&unit, &shape)
		for _, sign := range []int32{1, -1} {
			var res, coefs, levels, deq [64]int32
			for i, v := range shape {
				if v*sign >= 0 {
					res[i] = 127
				} else {
					res[i] = -128
				}
			}
			fdct8x8(&res, &coefs)
			for qstep := 1; qstep <= 128; qstep++ {
				quantize(&coefs, qstep, &levels)
				dequantize(&levels, qstep, &deq)
				for _, c := range deq {
					if c < 0 {
						c = -c
					}
					widest = max(widest, c)
				}
			}
		}
	}
	t.Logf("widest intra coefficient %d, idctRange %d", widest, idctRange)
	if widest > idctRange {
		t.Errorf("an intra block dequantizes to %d, past idctRange %d", widest, idctRange)
	}
}

// checkBlockCoder codes the block of src at (x0,y0) through blockCoder, as
// an inter candidate against pred at (px,py) and as an intra one, and
// requires the Go functions' levels and codeCost of each.
func checkBlockCoder(t *testing.T, coder *blockCoder, qstep int, src *plane, x0, y0 int, pred *plane, px, py int) {
	t.Helper()
	var cur, res, coefs, wantMC, wantIn [64]int32
	loadBlock(src, x0, y0, &cur)
	loadBlock(pred, px, py, &res)
	for i := range res {
		res[i] = cur[i] - res[i]
	}
	fdct8x8(&res, &coefs)
	quantizeDeadzone(&coefs, qstep, &wantMC)
	for i := range res {
		res[i] = cur[i] - 128
	}
	fdct8x8(&res, &coefs)
	quantize(&coefs, qstep, &wantIn)

	var mc, in candidate
	var intra intraCoefs
	coder.inter(src, x0, y0, pred, px, py, &mc)
	intraTransform(src, x0, y0, &intra)
	coder.intra(&intra, &in)
	if mc.cost() != codeCost(&wantMC) || *mc.levels() != wantMC {
		t.Fatalf("q%d block (%d,%d) against (%d,%d): inter levels %v cost %d, want %v cost %d",
			qstep, x0, y0, px, py, *mc.levels(), mc.cost(), wantMC, codeCost(&wantMC))
	}
	if in.cost() != codeCost(&wantIn) || *in.levels() != wantIn {
		t.Fatalf("q%d block (%d,%d): intra levels %v cost %d, want %v cost %d",
			qstep, x0, y0, *in.levels(), in.cost(), wantIn, codeCost(&wantIn))
	}
	if (mc.cost() == emptyCost) != allZero(&wantMC) {
		t.Fatalf("q%d block (%d,%d): inter cost %d but allZero %v", qstep, x0, y0, mc.cost(), allZero(&wantMC))
	}
}

// TestBlockCoderMatchesGo holds the block-coding stage — SSE2 on amd64 — to
// loadBlock, fdct8x8, quantize/quantizeDeadzone and codeCost at every
// quantizer step, on noise, on 0/255 extremes (±255 residuals, every level
// at its largest), and on blocks identical to their prediction, at every
// block of a 40×24 plane against predictions at other offsets and strides.
func TestBlockCoderMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fills := map[string]func(p *plane){
		"noise": func(p *plane) { rng.Read(p.pix) },
		"extremes": func(p *plane) {
			for i := range p.pix {
				p.pix[i] = uint8(255 * rng.Intn(2))
			}
		},
	}
	for name, fill := range fills {
		t.Run(name, func(t *testing.T) {
			src, pred := newPlane(40, 24), newPlane(48, 16)
			fill(src)
			fill(pred)
			same := newPlane(40, 24)
			copy(same.pix, src.pix)
			for qstep := 1; qstep <= 128; qstep++ {
				coder := newBlockCoder(qstep)
				for y0 := 0; y0 < src.h; y0 += blockSize {
					for x0 := 0; x0 < src.w; x0 += blockSize {
						px, py := rng.Intn(pred.w-blockSize+1), rng.Intn(pred.h-blockSize+1)
						checkBlockCoder(t, &coder, qstep, src, x0, y0, pred, px, py)
						checkBlockCoder(t, &coder, qstep, src, x0, y0, same, x0, y0)
					}
				}
			}
		})
	}
}

// The encode side's kernels against their references (oracle_test.go).

// TestWriteLevelsMatchesReference holds the nonzero-mask writer to the
// pair-array one, byte for byte: the all-zero and the all-nonzero block,
// every lone level (the one at index 63 included) at one- and two-byte
// varint magnitudes and the int32 extremes, and random blocks of every
// density whose levels reach past ±64.
func TestWriteLevelsMatchesReference(t *testing.T) {
	var full [64]int32
	for i := range full {
		full[i] = int32(i-32) | 1
	}
	if got := nonzeroMask(&full); got != math.MaxUint64 {
		t.Fatalf("all 64 levels nonzero: mask %#x", got)
	}
	blocks := [][64]int32{{}, full}
	for i := range 64 {
		for _, v := range []int32{1, -1, 63, -64, 64, -65, 8191, math.MaxInt32, math.MinInt32} {
			var b [64]int32
			b[i] = v
			blocks = append(blocks, b)
		}
	}
	rng := rand.New(rand.NewSource(71))
	for range 20000 {
		var b [64]int32
		density := rng.Intn(65)
		for i := range b {
			if rng.Intn(64) >= density {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				b[i] = int32(rng.Intn(3)) - 1
			case 1:
				b[i] = int32(rng.Intn(127)) - 63 // one-byte varints
			case 2:
				b[i] = int32(rng.Intn(4096)) - 2048
			default:
				b[i] = int32(rng.Uint32())
			}
		}
		blocks = append(blocks, b)
	}
	var got, want byteWriter
	for _, b := range blocks {
		// Both append: start each behind a byte already written.
		got.buf, want.buf = append(got.buf[:0], 0xEE), append(want.buf[:0], 0xEE)
		writeLevels(&got, &b)
		writeLevelsRef(&want, &b)
		if string(got.buf) != string(want.buf) {
			t.Fatalf("levels %v:\nwrote     % x\nreference % x", b, got.buf, want.buf)
		}
	}
}

// fromFrameFills are the frame contents the fromFrame tests run over:
// uniform noise, and every channel at 0 or 255, where a clamp would act if
// one were needed.
func fromFrameFills(rng *rand.Rand) map[string]func(pix []uint8) {
	return map[string]func(pix []uint8){
		"noise": func(pix []uint8) { rng.Read(pix) },
		"extremes": func(pix []uint8) {
			for i := range pix {
				pix[i] = uint8(-(rng.Intn(2))) // 0 or 255
			}
		},
	}
}

// TestFromFrameMatchesReference holds fromFrame to the two-pass conversion
// it replaced on whole padded planes, over stale planes, at sizes that are
// one pixel, odd both ways, whole steps of sixteen and one past; and then
// every RGB triple through the row-pair converter and its Go twin.
func TestFromFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, sz := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {7, 9}, {16, 16}, {17, 2}, {33, 3}, {160, 120}, {161, 121}} {
		w, h := sz[0], sz[1]
		for name, fill := range fromFrameFills(rng) {
			f := raster.New(w, h)
			fill(f.Pix)
			got := newYCbCr(w, h)
			for _, p := range []*plane{got.y, got.cb, got.cr} {
				rng.Read(p.pix)
			}
			got.fromFrame(f)
			want := toYCbCrRef(f)
			for i, pl := range [][2]*plane{{got.y, want.y}, {got.cb, want.cb}, {got.cr, want.cr}} {
				if string(pl[0].pix) != string(pl[1].pix) {
					t.Errorf("%dx%d %s: plane %d differs from the reference", w, h, name, i)
				}
			}
		}
	}

	// A row of the 256 blues, each pixel twice, at every red and green, the
	// same row twice: each 2×2 box is one colour, so its mean is that
	// colour's chroma.
	const n = 512
	s := make([]uint8, 3*n)
	y0, y1 := make([]uint8, n), make([]uint8, n)
	cb, cr := make([]uint8, n/2), make([]uint8, n/2)
	wantY, wantCb, wantCr := make([]uint8, n), make([]uint8, n/2), make([]uint8, n/2)
	convs := []struct {
		name string
		rows func(y0, y1, cb, cr, s0, s1 []uint8)
	}{{"fromRows", fromRows}, {"fromRowsPortable", fromRowsPortable}}
	for r := int32(0); r < 256; r++ {
		for g := int32(0); g < 256; g++ {
			for b := range int32(n / 2) {
				s[6*b], s[6*b+1], s[6*b+2] = uint8(r), uint8(g), uint8(b)
				s[6*b+3], s[6*b+4], s[6*b+5] = uint8(r), uint8(g), uint8(b)
				// The clamped per-pixel formulas fromFrameRef computes.
				wantY[2*b] = clamp255((77*r + 150*g + 29*b) >> 8)
				wantY[2*b+1] = wantY[2*b]
				wantCb[b] = clamp255(((-43*r - 85*g + 128*b) >> 8) + 128)
				wantCr[b] = clamp255(((128*r - 107*g - 21*b) >> 8) + 128)
			}
			for _, conv := range convs {
				conv.rows(y0, y1, cb, cr, s, s)
				if string(y0) != string(wantY) || string(y1) != string(wantY) ||
					string(cb) != string(wantCb) || string(cr) != string(wantCr) {
					for b := range n / 2 {
						got := [4]uint8{y0[2*b], y1[2*b+1], cb[b], cr[b]}
						if want := [4]uint8{wantY[2*b], wantY[2*b], wantCb[b], wantCr[b]}; got != want {
							t.Fatalf("%s: RGB %d %d %d gives Y Y Cb Cr %v, want %v", conv.name, r, g, b, got, want)
						}
					}
					t.Fatalf("%s: red %d green %d: rows differ from the formulas", conv.name, r, g)
				}
			}
		}
	}
}
