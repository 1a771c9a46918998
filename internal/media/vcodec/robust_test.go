package vcodec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/media/raster"
)

// TestDecodeNeverPanicsOnRandomInput feeds arbitrary bytes to the decoder:
// it must reject or decode, never panic. (The paper's runtime loads packages
// from the network; a corrupt stream must not crash the player.)
func TestDecodeNeverPanicsOnRandomInput(t *testing.T) {
	err := quick.Check(func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		dec := NewDecoder()
		dec.Decode(data)
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// overflowingRowLengthPacket is a 30-byte packet with a valid 8×8 I-frame
// header, a luma row count of 1, and a block-row length of 1<<63 − 1. Added to
// the read position that length wraps negative, which a `pos+n > len` bound
// check lets through to a slice expression that panics.
func overflowingRowLengthPacket() []byte {
	pkt := append([]byte(magic), uint8(IFrame), 8, 8, 4, 0) // w, h, qstep, search range
	pkt = append(pkt, 1)                                    // luma block rows
	pkt = binary.AppendUvarint(pkt, math.MaxInt64)          // row 0 length
	return append(pkt, make([]byte, 30-len(pkt))...)
}

// TestDecodeRejectsOverflowingRowLength: a row length near 1<<63 must be
// rejected as corrupt, not panic the player. (The container's parser reads
// its varints through intv, which refuses anything above 1<<31, so its
// slice arithmetic cannot wrap; only this reader took a full 64-bit length.)
func TestDecodeRejectsOverflowingRowLength(t *testing.T) {
	pkt := overflowingRowLengthPacket()
	if len(pkt) != 30 {
		t.Fatalf("packet is %d bytes, want 30", len(pkt))
	}
	frame, err := NewDecoder().Decode(pkt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if frame != nil {
		t.Fatal("frame returned alongside error")
	}
	// The same length in every later position a length can take.
	r := &byteReader{buf: pkt, pos: 19}
	for _, n := range []int{math.MaxInt, math.MaxInt - 18, 12, -1, math.MinInt} {
		if _, err := r.slice(n); err == nil {
			t.Errorf("slice(%d) with 11 bytes left succeeded", n)
		}
	}
	if b, err := r.slice(11); err != nil || len(b) != 11 {
		t.Errorf("slice(11) with 11 bytes left: %d bytes, err %v", len(b), err)
	}
}

// TestDecodeNeverPanicsOnBitFlips corrupts real packets at random positions.
func TestDecodeNeverPanicsOnBitFlips(t *testing.T) {
	src := raster.New(64, 48)
	src.FillVGradient(raster.Red, raster.Blue)
	enc, _ := NewEncoder(Config{Width: 64, Height: 48, QStep: 4, GOP: 4, SearchRange: 2})
	var pkts [][]byte
	for i := 0; i < 6; i++ {
		p, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p.Data)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		orig := pkts[rng.Intn(len(pkts))]
		data := append([]byte(nil), orig...)
		// Flip 1-3 random bits.
		for k := 0; k <= rng.Intn(3); k++ {
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bit-flipped packet (trial %d): %v", trial, r)
				}
			}()
			dec := NewDecoder()
			// A flipped P-frame may need a reference; give it one.
			if i0, err := NewDecoderReference(dec, pkts[0]); err == nil {
				_ = i0
			}
			dec.Decode(data)
		}()
	}
}

// NewDecoderReference primes a decoder with an I-frame (helper for the
// corruption test).
func NewDecoderReference(d *Decoder, iframe []byte) (*raster.Frame, error) {
	return d.Decode(iframe)
}

// TestQuickIntraRoundTripQuality: arbitrary small frames encoded intra at
// q=1 must come back within the 4:2:0 bound plus a small margin.
func TestQuickIntraRoundTripQuality(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 16 + rng.Intn(48)
		h := 16 + rng.Intn(32)
		f := raster.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = uint8(rng.Intn(256))
		}
		enc, err := NewEncoder(Config{Width: w, Height: h, QStep: 1, GOP: 1})
		if err != nil {
			return false
		}
		pkt, err := enc.Encode(f)
		if err != nil {
			return false
		}
		rec, err := NewDecoder().Decode(pkt.Data)
		if err != nil {
			return false
		}
		bound := raster.PSNR(f, toYCbCr(f).toFrame())
		return raster.PSNR(f, rec) >= bound-2.0
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLongGOPNoDrift: P-frame chains must not accumulate visible drift,
// because prediction uses the reconstructed (not source) reference.
func TestLongGOPNoDrift(t *testing.T) {
	src := raster.New(96, 64)
	src.FillVGradient(raster.RGB{R: 50, G: 90, B: 130}, raster.RGB{R: 200, G: 180, B: 120})
	enc, _ := NewEncoder(Config{Width: 96, Height: 64, QStep: 6, GOP: 1000, SearchRange: 2})
	dec := NewDecoder()
	var first, last float64
	for i := 0; i < 100; i++ {
		pkt, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := dec.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		p := raster.PSNR(src, rec)
		if i == 0 {
			first = p
		}
		last = p
	}
	if last < first-1.0 {
		t.Fatalf("drift over 100 P-frames: %.1f dB -> %.1f dB", first, last)
	}
}

// flatIFrame is an 8×8 flat grey I-frame written by hand: three rows of one
// intra block with no levels, 2 bytes each (its mode map, its pair count).
// Its bytes after the magic are also a well-formed first-version packet, in
// which a row held the block's mode byte and its pair count.
func flatIFrame() []byte {
	return []byte(magic + "\x00\x08\x08\x04\x00\x01\x02\x01\x00\x01\x02\x01\x00\x01\x02\x01\x00")
}

// tkv1Packets are packets of the format's first version, which coded a
// block's mode as a byte of its own: flatIFrame's, and the 24×16 I-frame
// fuzzSeeds encoded to before the mode map.
func tkv1Packets() [][]byte {
	encoded, err := hex.DecodeString("544b563100181004020221210104009702011006020a020104009702011006020a020104009702011006020a020104008903011006020a020104008903011006020a020104008903011006020a020118010500680171060b0a030e01010500680171060b0a030e01011c0105008401018601060e0a040e020105008401018601060e0a040e02")
	if err != nil {
		panic(err)
	}
	return [][]byte{
		append([]byte("TKV1"), flatIFrame()[len(magic):]...),
		encoded,
		[]byte("TKV1"),
		[]byte("TKV1\x00\x18\x10\x04\x02"),
		[]byte("TKV1\x07junkjunk"),
	}
}

// TestTKV1Refused: a packet of the first version is corrupt to Decode and
// to ParseHeader, so a container holding one fails to open. The flat frame
// decodes under the current magic, so it is the version that is refused,
// not the blocks.
func TestTKV1Refused(t *testing.T) {
	for i, pkt := range tkv1Packets() {
		if _, err := ParseHeader(pkt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("packet %d: ParseHeader err = %v, want ErrCorrupt", i, err)
		}
		if f, err := NewDecoder().Decode(pkt); !errors.Is(err, ErrCorrupt) || f != nil {
			t.Errorf("packet %d: Decode err = %v, want ErrCorrupt and no frame", i, err)
		}
	}
	if _, err := NewDecoder().Decode(flatIFrame()); err != nil {
		t.Fatalf("the flat frame under the current magic: %v", err)
	}
}

// firstLumaRow returns the offset of the first luma block row's chunk in a
// packet: its mode map's first byte.
func firstLumaRow(t *testing.T, pkt []byte) int {
	t.Helper()
	r := &byteReader{buf: pkt, pos: len(magic) + 1}
	for range 3 { // width, height, qstep
		if _, err := r.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	r.pos++ // search range
	rows, err := r.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	for range rows {
		if _, err := r.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	return r.pos
}

// TestModeMapPaddingRefused sets, one at a time, each bit past the last
// block of a three-block row's mode map — the bits the encoder leaves
// clear — and both decoders must refuse the packet: one picture, one
// packet.
func TestModeMapPaddingRefused(t *testing.T) {
	pkt := fuzzSeeds()[0] // 24×16: three luma blocks a row, bits 6 and 7 of its map are padding
	at := firstLumaRow(t, pkt)
	if _, err := NewDecoder().Decode(pkt); err != nil {
		t.Fatalf("the packet as encoded: %v", err)
	}
	for bit := 6; bit < 8; bit++ {
		bad := append([]byte(nil), pkt...)
		bad[at] |= 1 << bit
		if _, err := NewDecoder().Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("padding bit %d set: Decode err = %v, want ErrCorrupt", bit, err)
		}
		if _, err := new(refDecoder).decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("padding bit %d set: oracle err = %v, want ErrCorrupt", bit, err)
		}
	}
}

// vectorOnlyPacket is an 8×8 packet of frame type ft whose three one-block
// rows each hold one vector-only block with vector (0,0).
func vectorOnlyPacket(ft FrameType) []byte {
	pkt := append([]byte(magic), uint8(ft), 8, 8, 4, 0)
	for range 3 {
		pkt = append(pkt, 1, 2, modeVector, packMV(0, 0)) // one row of 2 bytes: map, vector
	}
	return pkt
}

// TestVectorOnlyInIFrameRefused: a vector-only block needs a reference, so
// an I-frame carrying one is corrupt.
func TestVectorOnlyInIFrameRefused(t *testing.T) {
	if _, err := NewDecoder().Decode(vectorOnlyPacket(IFrame)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("vector-only I-frame: err = %v, want ErrCorrupt", err)
	}
	if _, err := new(refDecoder).decode(vectorOnlyPacket(IFrame)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("vector-only I-frame: oracle err = %v, want ErrCorrupt", err)
	}
}

// mcNoResidualPacket is an 8×8 P-frame whose three one-block rows each
// hold a motion-compensated block with vector (0,0) and no coefficient
// pair.
func mcNoResidualPacket() []byte {
	pkt := append([]byte(magic), uint8(PFrame), 8, 8, 4, 0)
	for range 3 {
		pkt = append(pkt, 1, 3, modeMC, packMV(0, 0), 0) // one row of 3 bytes: map, vector, pair count
	}
	return pkt
}

// TestNonCanonicalInterBlocksRefused: a block that decodes to what a
// shorter mode makes is refused by both decoders, so a picture has one
// packet. A vector-only block with vector (0,0) is a skip; a
// motion-compensated block with no coefficient pair is a vector-only
// block (here also a skip). The encoder writes neither.
func TestNonCanonicalInterBlocksRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkt  []byte
	}{
		{"vector-only (0,0)", vectorOnlyPacket(PFrame)},
		{"motion-compensated without residual", mcNoResidualPacket()},
	} {
		dec := NewDecoder()
		if _, err := dec.Decode(flatIFrame()); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(tc.pkt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", tc.name, err)
		}
		oracle := new(refDecoder)
		if _, err := oracle.decode(flatIFrame()); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.decode(tc.pkt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: oracle err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
