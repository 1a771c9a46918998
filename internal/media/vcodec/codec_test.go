package vcodec

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/media/raster"
	"repro/internal/media/synth"
)

func testFilm(t testing.TB) *synth.Film {
	t.Helper()
	return synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 12,
		Shots: 3, MinShotFrames: 8, MaxShotFrames: 12,
		NoiseAmp: 1, Seed: 99,
	})
}

func encCfg(w, h int) Config {
	return Config{Width: w, Height: h, QStep: 4, GOP: 8, SearchRange: 3}
}

func TestDCTRoundTrip(t *testing.T) {
	// The fixed-point butterfly is not exact like the old float64 basis
	// transform, but a full-range round trip must stay within ±1 — the same
	// order as the quantizer's own rounding at qstep 1.
	var src, freq, back [64]int32
	for i := range src {
		src[i] = int32((i*37)%256) - 128
	}
	fdct8x8(&src, &freq)
	idct8x8(&freq, &back)
	for i := range src {
		if d := src[i] - back[i]; d > 1 || d < -1 {
			t.Fatalf("DCT round trip error at %d: %d vs %d", i, src[i], back[i])
		}
	}
}

func TestDCTRoundTripResidualRange(t *testing.T) {
	// Residual blocks span ±255, twice the intra range; the integer
	// transform must not overflow or lose accuracy there.
	var src, freq, back [64]int32
	for i := range src {
		if i%2 == 0 {
			src[i] = 255 - int32(i)
		} else {
			src[i] = -255 + int32(3*i)%200
		}
	}
	fdct8x8(&src, &freq)
	idct8x8(&freq, &back)
	for i := range src {
		if d := src[i] - back[i]; d > 1 || d < -1 {
			t.Fatalf("residual round trip error at %d: %d vs %d", i, src[i], back[i])
		}
	}
}

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	var src, freq [64]int32
	for i := range src {
		src[i] = 42
	}
	fdct8x8(&src, &freq)
	// Coefficients are 8× the orthonormal DCT: DC = 8 * (42*8) = 2688.
	if freq[0] != 42*8<<coefScaleBits {
		t.Errorf("DC = %d, want %d", freq[0], 42*8<<coefScaleBits)
	}
	for i := 1; i < 64; i++ {
		if freq[i] != 0 {
			t.Fatalf("AC coefficient %d = %d, want 0", i, freq[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := [64]bool{}
	for _, p := range zigzag {
		if p < 0 || p >= 64 || seen[p] {
			t.Fatalf("zigzag invalid at position %d", p)
		}
		seen[p] = true
	}
	// Starts at DC, ends at the highest frequency.
	if zigzag[0] != 0 || zigzag[63] != 63 {
		t.Errorf("zigzag endpoints %d..%d", zigzag[0], zigzag[63])
	}
	if zigzag[1] != 1 || zigzag[2] != 8 {
		t.Errorf("zigzag start order wrong: %v", zigzag[:4])
	}
}

func TestQuantizeRoundTripLowQ(t *testing.T) {
	// Coefficients carry coefScaleBits fractional bits, so a qstep-1 round
	// trip may be off by at most half a true unit (half of 1<<coefScaleBits).
	var coefs [64]int32
	for i := range coefs {
		coefs[i] = int32(i*7-200) << coefScaleBits
	}
	var levels [64]int32
	quantize(&coefs, 1, &levels)
	var back [64]int32
	dequantize(&levels, 1, &back)
	for i := range coefs {
		d := coefs[i] - back[i]
		if d < 0 {
			d = -d
		}
		if d > 1<<(coefScaleBits-1) {
			t.Fatalf("q=1 round trip error %d at %d", coefs[i]-back[i], i)
		}
	}
}

func TestQuantizeHalfStepDCExact(t *testing.T) {
	// The DC quantizer step is qstep/2; with odd qsteps that is a half-unit
	// value the fixed-point coefficient scale must represent exactly.
	dcDiv, acDiv := quantDivisors(5)
	if dcDiv != 5<<coefScaleBits/2 {
		t.Errorf("dc divisor = %d, want %d", dcDiv, 5<<coefScaleBits/2)
	}
	if acDiv != 5<<coefScaleBits {
		t.Errorf("ac divisor = %d, want %d", acDiv, 5<<coefScaleBits)
	}
	// qstep 1 clamps the DC step up to one full unit.
	dcDiv, _ = quantDivisors(1)
	if dcDiv != 1<<coefScaleBits {
		t.Errorf("q=1 dc divisor = %d, want %d", dcDiv, 1<<coefScaleBits)
	}
}

func TestLevelsCodingRoundTrip(t *testing.T) {
	err := quick.Check(func(vals [8]int16, positions [8]uint8) bool {
		var levels [64]int32
		for i := range vals {
			levels[positions[i]%64] = int32(vals[i])
		}
		var w byteWriter
		writeLevels(&w, &levels)
		var got [64]int32
		r := &byteReader{buf: w.buf}
		if err := readLevels(r, &got); err != nil {
			return false
		}
		return got == levels && r.remaining() == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevelsAllZeroIsOneByte(t *testing.T) {
	var levels [64]int32
	var w byteWriter
	writeLevels(&w, &levels)
	if len(w.buf) != 1 {
		t.Errorf("all-zero block coded in %d bytes, want 1", len(w.buf))
	}
}

// corruptLevelStreams lists level streams every reader must reject.
func corruptLevelStreams() [][]byte {
	// One pair whose zero-run uvarint is 1<<63: int(run) would wrap negative
	// without the explicit run bound.
	hugeRun := append([]byte{1}, binary.AppendUvarint(nil, 1<<63)...)
	hugeRun = append(hugeRun, 2)
	return [][]byte{
		{},               // empty
		{200},            // pair count > 64
		{1},              // missing pair
		{1, 70, 2},       // run beyond block
		{2, 0, 2, 63, 2}, // second pair out of range
		{1, 0, 0},        // explicit zero level
		hugeRun,          // 64-bit run overflows int32 index
		{1, 0},           // level missing
		{1, 0, 0x80},     // level truncated mid-varint
		{3, 0, 2, 1, 4},  // third pair missing
	}
}

func TestReadLevelsRejectsCorrupt(t *testing.T) {
	for i, c := range corruptLevelStreams() {
		var levels [64]int32
		if err := readLevels(&byteReader{buf: c}, &levels); err == nil {
			t.Errorf("case %d: corrupt stream accepted", i)
		}
	}
}

func TestYCbCrRoundTripApprox(t *testing.T) {
	f := raster.New(33, 17) // odd size exercises padding + subsampling
	f.FillVGradient(raster.RGB{R: 200, G: 60, B: 40}, raster.RGB{R: 20, G: 80, B: 180})
	g := toYCbCr(f).toFrame()
	if g.W != f.W || g.H != f.H {
		t.Fatalf("size changed: %dx%d", g.W, g.H)
	}
	// 4:2:0 is lossy in chroma; luma should survive well. Allow moderate MAD.
	if mad := raster.MAD(f, g); mad > 12 {
		t.Errorf("YCbCr 4:2:0 round trip MAD = %f, too lossy", mad)
	}
}

func TestEncodeDecodeIntraQuality(t *testing.T) {
	film := testFilm(t)
	src := film.Render(0)
	enc, err := NewEncoder(Config{Width: src.W, Height: src.H, QStep: 2, GOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := enc.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != IFrame {
		t.Fatalf("first frame type = %v, want I", pkt.Type)
	}
	dec := NewDecoder()
	got, err := dec.Decode(pkt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if p := raster.PSNR(src, got); p < 30 {
		t.Errorf("I-frame PSNR = %.1f dB at q=2, want >= 30", p)
	}
}

func TestGOPPattern(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	for i := 0; i < 20; i++ {
		pkt, err := enc.Encode(film.Render(i % film.FrameCount()))
		if err != nil {
			t.Fatal(err)
		}
		wantI := i%8 == 0
		if (pkt.Type == IFrame) != wantI {
			t.Fatalf("frame %d type = %v, want I=%v", i, pkt.Type, wantI)
		}
		if pkt.Index != i {
			t.Fatalf("packet index = %d, want %d", pkt.Index, i)
		}
	}
}

func TestPFramesSmallerOnStaticContent(t *testing.T) {
	// A static scene: P-frames should collapse to mostly skip blocks.
	f := raster.New(96, 64)
	f.FillVGradient(raster.Blue, raster.Black)
	enc, _ := NewEncoder(encCfg(96, 64))
	i0, _ := enc.Encode(f)
	p1, _ := enc.Encode(f)
	if len(p1.Data) >= len(i0.Data)/4 {
		t.Errorf("static P-frame %dB vs I-frame %dB: P should be <25%%", len(p1.Data), len(i0.Data))
	}
}

func TestDecodeSequenceMatchesEncoderReference(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	dec := NewDecoder()
	for i := 0; i < 16; i++ {
		src := film.Render(i)
		pkt, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := raster.PSNR(src, got); p < 24 {
			t.Errorf("frame %d PSNR %.1f dB too low (drift?)", i, p)
		}
	}
}

func TestPFrameWithoutReferenceFails(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	enc.Encode(film.Render(0))           // I
	pkt, _ := enc.Encode(film.Render(1)) // P
	dec := NewDecoder()
	if _, err := dec.Decode(pkt.Data); err == nil {
		t.Fatal("decoding P-frame without reference should fail")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	dec := NewDecoder()
	for _, data := range [][]byte{
		nil,
		[]byte("X"),
		[]byte("JUNKJUNKJUNK"),
		[]byte("TKV2\x07morejunk"), // bad frame type
	} {
		if _, err := dec.Decode(data); err == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	pkt, _ := enc.Encode(film.Render(0))
	for _, n := range []int{5, 10, len(pkt.Data) / 2, len(pkt.Data) - 1} {
		dec := NewDecoder()
		if _, err := dec.Decode(pkt.Data[:n]); err == nil {
			t.Errorf("truncated packet (%d bytes) accepted", n)
		}
	}
}

func TestHigherQLowerQualitySmallerSize(t *testing.T) {
	film := testFilm(t)
	src := film.Render(4)
	var prevSize = 1 << 30
	var prevPSNR = math.Inf(1)
	for _, q := range []int{2, 6, 16} {
		enc, _ := NewEncoder(Config{Width: src.W, Height: src.H, QStep: q, GOP: 1})
		pkt, _ := enc.Encode(src)
		dec := NewDecoder()
		rec, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		p := raster.PSNR(src, rec)
		if len(pkt.Data) >= prevSize {
			t.Errorf("q=%d size %d not smaller than previous %d", q, len(pkt.Data), prevSize)
		}
		if p >= prevPSNR {
			t.Errorf("q=%d PSNR %.1f not lower than previous %.1f", q, p, prevPSNR)
		}
		prevSize, prevPSNR = len(pkt.Data), p
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 10, QStep: 4, GOP: 5},
		{Width: 10, Height: 10, QStep: 0, GOP: 5},
		{Width: 10, Height: 10, QStep: 400, GOP: 5},
		{Width: 10, Height: 10, QStep: 4, GOP: 0},
		{Width: 10, Height: 10, QStep: 4, GOP: 5, SearchRange: 9},
		{Width: maxDim + 8, Height: 10, QStep: 4, GOP: 5}, // decoder would reject its own stream
		{Width: 10, Height: maxDim + 8, QStep: 4, GOP: 5},
	}
	for i, c := range bad {
		if _, err := NewEncoder(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestDecodeIntoRecyclesBuffer(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	dec := NewDecoder()
	var f raster.Frame
	var firstPix []uint8
	for i := 0; i < 6; i++ {
		pkt, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeInto(&f, pkt.Data); err != nil {
			t.Fatal(err)
		}
		if f.W != 96 || f.H != 64 {
			t.Fatalf("frame %d size %dx%d", i, f.W, f.H)
		}
		if i == 0 {
			firstPix = f.Pix[:1]
		} else if &firstPix[0] != &f.Pix[0] {
			t.Fatal("DecodeInto reallocated the pixel buffer")
		}
	}
}

func TestDecodeRejectsHugeFrameTinyPayload(t *testing.T) {
	// A few header bytes claiming a 16384×16384 frame must be rejected
	// before the decoder allocates gigabytes for the image planes.
	var w byteWriter
	w.bytes([]byte(magic))
	w.u8(uint8(IFrame))
	w.uvarint(16384)
	w.uvarint(16384)
	w.uvarint(4) // qstep
	w.u8(0)      // search range
	w.uvarint(2048)
	if _, err := NewDecoder().Decode(w.buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tiny huge-frame packet: err = %v, want ErrCorrupt", err)
	}
}

func TestResetRecyclesImageBuffers(t *testing.T) {
	// Seek-heavy playback calls Reset before every backward jump; with the
	// two-slot free list, steady-state Reset+decode performs no image
	// allocations.
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	pkt, err := enc.Encode(film.Render(0)) // I-frame
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	for i := 0; i < 3; i++ { // warm up ref + free list
		if err := dec.Advance(pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		dec.Reset()
		if err := dec.Advance(pkt.Data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Errorf("Reset+Advance allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAdvanceMatchesDecode(t *testing.T) {
	// Advancing through P-frames then decoding must land on the same pixels
	// as decoding every frame.
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	var pkts []Packet
	for i := 0; i < 8; i++ {
		p, err := enc.Encode(film.Render(i))
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	full := NewDecoder()
	var want *raster.Frame
	for _, p := range pkts {
		f, err := full.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		want = f
	}
	skip := NewDecoder()
	for _, p := range pkts[:len(pkts)-1] {
		if err := skip.Advance(p.Data); err != nil {
			t.Fatal(err)
		}
	}
	got, err := skip.Decode(pkts[len(pkts)-1].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("Advance path diverged from Decode path")
	}
}

func TestEncodeWrongSizeFrame(t *testing.T) {
	enc, _ := NewEncoder(encCfg(96, 64))
	if _, err := enc.Encode(raster.New(32, 32)); err == nil {
		t.Fatal("wrong-size frame accepted")
	}
}

func TestEncoderReset(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	enc.Encode(film.Render(0))
	enc.Encode(film.Render(1))
	enc.Reset()
	pkt, _ := enc.Encode(film.Render(2))
	if pkt.Type != IFrame || pkt.Index != 0 {
		t.Fatalf("after Reset got %v index %d, want I index 0", pkt.Type, pkt.Index)
	}
}

func TestParseHeader(t *testing.T) {
	film := testFilm(t)
	enc, _ := NewEncoder(encCfg(96, 64))
	i0, _ := enc.Encode(film.Render(0))
	p1, _ := enc.Encode(film.Render(1))
	if ft, err := ParseHeader(i0.Data); err != nil || ft != IFrame {
		t.Errorf("ParseHeader(I) = %v, %v", ft, err)
	}
	if ft, err := ParseHeader(p1.Data); err != nil || ft != PFrame {
		t.Errorf("ParseHeader(P) = %v, %v", ft, err)
	}
	if _, err := ParseHeader([]byte("nope")); err == nil {
		t.Error("ParseHeader accepted garbage")
	}
}

func TestMVPacking(t *testing.T) {
	for dx := -8; dx <= 7; dx++ {
		for dy := -8; dy <= 7; dy++ {
			gx, gy := unpackMV(packMV(dx, dy))
			if gx != dx || gy != dy {
				t.Fatalf("MV (%d,%d) round-tripped to (%d,%d)", dx, dy, gx, gy)
			}
		}
	}
}

func TestOddSizeFrames(t *testing.T) {
	// Non-multiple-of-8 and non-multiple-of-16 dimensions must round trip.
	for _, dims := range [][2]int{{37, 23}, {8, 8}, {9, 9}, {100, 50}} {
		w, h := dims[0], dims[1]
		src := raster.New(w, h)
		src.FillVGradient(raster.Green, raster.Magenta)
		src.FillCircle(w/2, h/2, min(w, h)/3, raster.Yellow)
		enc, err := NewEncoder(Config{Width: w, Height: h, QStep: 2, GOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := enc.Encode(src)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		rec, err := NewDecoder().Decode(pkt.Data)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if rec.W != w || rec.H != h {
			t.Fatalf("%dx%d: decoded size %dx%d", w, h, rec.W, rec.H)
		}
		// On this maximally saturated pattern the 4:2:0 chroma subsampling
		// dominates the loss; the right bar is "within 1.5 dB of the pure
		// colorspace round trip", not an absolute PSNR.
		bound := raster.PSNR(src, toYCbCr(src).toFrame())
		if p := raster.PSNR(src, rec); p < bound-1.5 {
			t.Errorf("%dx%d: PSNR %.1f dB, want within 1.5 dB of 4:2:0 bound %.1f", w, h, p, bound)
		}
	}
}

func TestLadderEncoderValidation(t *testing.T) {
	cfg := encCfg(32, 16)
	if _, err := NewLadderEncoder(cfg, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewLadderEncoder(cfg, []int{4, 999}); err == nil {
		t.Error("out-of-range rung quantizer accepted")
	}
	cfg.QStep = 0 // ignored: every rung carries its own
	enc, err := NewLadderEncoder(cfg, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(raster.New(32, 16), make([]Packet, 1)); err == nil {
		t.Error("one packet slot accepted for a two-rung ladder")
	}
	if err := enc.Encode(raster.New(16, 16), make([]Packet, 2)); err == nil {
		t.Error("wrong-size frame accepted")
	}
}

// TestLadderRungsMatchSeparateEncoders: the lead rung (the smallest
// quantizer step) searches motion in full and every other rung refines its
// vectors, so the lead's packets equal a one-rung encoder's at that step, and
// every rung's packets are the same whatever order the steps are listed in:
// sharing the source image, the row buffers and the lead's vectors couples
// the rungs through the lead alone. Recycling the payload buffers must not
// change a byte.
func TestLadderRungsMatchSeparateEncoders(t *testing.T) {
	film := testFilm(t)
	cfg := encCfg(96, 64)
	orders := [][]int{{4, 10, 64}, {64, 10, 4}, {10, 64, 4}}
	ladders := make([]*LadderEncoder, len(orders))
	pkts := make([][]Packet, len(orders))
	for i, qsteps := range orders {
		var err error
		if ladders[i], err = NewLadderEncoder(cfg, qsteps); err != nil {
			t.Fatal(err)
		}
		pkts[i] = make([]Packet, len(qsteps))
	}
	lead := cfg
	lead.QStep = 4
	single, err := NewEncoder(lead)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		src := film.Render(i)
		byStep := map[int]Packet{}
		for o, qsteps := range orders {
			if err := ladders[o].Encode(src, pkts[o]); err != nil {
				t.Fatal(err)
			}
			for k, q := range qsteps {
				got := pkts[o][k]
				want, ok := byStep[q]
				if !ok {
					byStep[q] = Packet{Type: got.Type, Index: got.Index, Data: append([]byte(nil), got.Data...)}
					continue
				}
				if got.Type != want.Type || got.Index != want.Index || string(got.Data) != string(want.Data) {
					t.Fatalf("frame %d rung q=%d: the ladder %v codes it otherwise than the ladder %v", i, q, qsteps, orders[0])
				}
			}
		}
		want, err := single.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := byStep[4]; got.Type != want.Type || got.Index != want.Index || string(got.Data) != string(want.Data) {
			t.Fatalf("frame %d: the lead rung's packet differs from a separate encoder's", i)
		}
	}
}

func TestEncodeSteadyStateAllocs(t *testing.T) {
	film := testFilm(t)
	frames := make([]*raster.Frame, 16)
	for i := range frames {
		frames[i] = film.Render(i)
	}
	cfg := encCfg(96, 64)
	ladder, err := NewLadderEncoder(cfg, []int{4, 10, 24, 64})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]Packet, 4)
	i := 0
	next := func() *raster.Frame { i++; return frames[i%len(frames)] }
	for range frames { // warm the payload buffers through a whole GOP cycle
		if err := ladder.Encode(next(), pkts); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(32, func() {
		if err := ladder.Encode(next(), pkts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ladder Encode with recycled packets allocates %.1f objects/frame, want 0", n)
	}
	if n := testing.AllocsPerRun(32, func() {
		if _, err := single.Encode(next()); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Encoder.Encode allocates %.1f objects/frame, want 1 (the returned payload)", n)
	}
}
