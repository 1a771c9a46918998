package vcodec

import (
	"encoding/binary"
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
