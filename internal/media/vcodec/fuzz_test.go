package vcodec

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/media/raster"
)

// fuzzSeeds builds one real I-frame and one real P-frame packet to seed the
// corpus (and to prime decoders so fuzzed P-frames reach the block layer).
var fuzzSeeds = sync.OnceValue(func() (pkts [2][]byte) {
	f := raster.New(24, 16)
	f.FillVGradient(raster.RGB{R: 200, G: 60, B: 40}, raster.RGB{R: 20, G: 80, B: 180})
	enc, err := NewEncoder(Config{Width: 24, Height: 16, QStep: 4, GOP: 8, SearchRange: 2})
	if err != nil {
		panic(err)
	}
	i0, err := enc.Encode(f)
	if err != nil {
		panic(err)
	}
	f.FillCircle(12, 8, 5, raster.Yellow)
	p1, err := enc.Encode(f)
	if err != nil {
		panic(err)
	}
	return [2][]byte{i0.Data, p1.Data}
})

// levelPacket is a w×h packet at qstep whose every luma block carries
// levels — intra in an I-frame, predicted with vector (0,0) in a P-frame —
// and whose chroma blocks are empty intra blocks or skips.
func levelPacket(ft FrameType, w, h, qstep int, levels *[64]int32) []byte {
	p := byteWriter{buf: []byte(magic)}
	p.u8(uint8(ft))
	p.uvarint(uint64(w))
	p.uvarint(uint64(h))
	p.uvarint(uint64(qstep))
	p.u8(0)
	for i, sz := range [3][2]int{{w, h}, {(w + 1) / 2, (h + 1) / 2}, {(w + 1) / 2, (h + 1) / 2}} {
		cols, rows := padUp(sz[0])/blockSize, padUp(sz[1])/blockSize
		mode, blockLevels := uint8(modeSkip), (*[64]int32)(nil)
		switch {
		case i == 0 && ft == IFrame:
			mode, blockLevels = modeIntra, levels
		case i == 0:
			mode, blockLevels = modeMC, levels
		case ft == IFrame:
			mode, blockLevels = modeIntra, &[64]int32{}
		}
		row := byteWriter{buf: make([]byte, modeMapBytes(cols))}
		for bx := range cols {
			row.buf[bx/4] |= mode << (2 * (bx % 4))
			if mode == modeMC {
				row.u8(packMV(0, 0))
			}
			if blockLevels != nil {
				writeLevels(&row, blockLevels)
			}
		}
		p.uvarint(uint64(rows))
		for range rows {
			p.uvarint(uint64(len(row.buf)))
		}
		for range rows {
			p.bytes(row.buf)
		}
	}
	return p.buf
}

// rangeEdgePackets are the seeds at the SSE2 transform's edge, at q1 where
// a level is an eighth of its coefficient: a block whose coefficients sit
// at ±idctRange (the SSE2 transform), one past it (the Go transform), and
// one whose level wraps on dequantization — each as an I-frame and as a
// P-frame against fuzzSeeds' reference.
func rangeEdgePackets() [][]byte {
	var pkts [][]byte
	for _, lvl := range []int32{idctRange / 8, idctRange/8 + 1, 1<<28 + 1} {
		levels := [64]int32{lvl, -lvl, 90, -lvl, 0, 0, 7, lvl, 0, -1}
		pkts = append(pkts, levelPacket(IFrame, 8, 8, 1, &levels), levelPacket(PFrame, 24, 16, 1, &levels))
	}
	return pkts
}

// FuzzDecode feeds arbitrary packets to the decoder, both cold and primed
// with a real reference frame, with the oracle decoder (the dense kernels the
// sparse ones replaced, oracle_test.go) fed the same packets beside it. The
// invariants: Decode never panics; every rejection is an ErrCorrupt (so
// callers can rely on errors.Is to separate bad data from programming
// errors); the two decoders accept the same packets and decode them to the
// same pixels; and a rejected packet leaves the reference usable. The
// rangeEdgePackets seeds put the search on both sides of the edge between
// the amd64 SSE2 transform and the Go one; the tkv1Packets seeds, packets of
// the format's first version, must be refused by both decoders and by
// ParseHeader, and so must every input that starts with their magic.
func FuzzDecode(f *testing.F) {
	seeds := fuzzSeeds()
	f.Add(seeds[0])
	f.Add(seeds[1])
	f.Add([]byte{})
	f.Add([]byte("TKV2"))
	f.Add([]byte("TKV2\x00\x18\x10\x04\x02"))
	f.Add([]byte("TKV2\x07junkjunk"))
	for _, p := range tkv1Packets() {
		f.Add(p)
	}
	f.Add(overflowingRowLengthPacket())
	trunc := append([]byte(nil), seeds[0]...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte(nil), seeds[1]...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	for _, p := range rangeEdgePackets() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		differential := func(leg string, dec *Decoder, oracle *refDecoder) error {
			frame, err := dec.Decode(data)
			want, errO := oracle.decode(data)
			if (err == nil) != (errO == nil) {
				t.Fatalf("%s: decoder err %v, oracle err %v", leg, err, errO)
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s decode error does not wrap ErrCorrupt: %v", leg, err)
				}
				if frame != nil {
					t.Fatalf("%s decode returned frame alongside error", leg)
				}
				return err
			}
			if !frame.Equal(want) {
				t.Fatalf("%s: decoded pixels differ from the oracle decoder's", leg)
			}
			return nil
		}
		// The first version of the format is refused whole, by every
		// reader, before its block layer is read.
		tkv1 := bytes.HasPrefix(data, []byte("TKV1"))
		if _, err := ParseHeader(data); err == nil && tkv1 {
			t.Fatal("ParseHeader accepted a TKV1 packet")
		}
		if differential("cold", NewDecoder(), &refDecoder{}) == nil && tkv1 {
			t.Fatal("a TKV1 packet decoded cold")
		}

		primed, oracle := NewDecoder(), &refDecoder{}
		if _, err := primed.Decode(seeds[0]); err != nil {
			t.Fatalf("seed I-frame rejected: %v", err)
		}
		if _, err := oracle.decode(seeds[0]); err != nil {
			t.Fatalf("oracle rejected seed I-frame: %v", err)
		}
		if err := differential("primed", primed, oracle); err == nil && tkv1 {
			t.Fatal("a TKV1 packet decoded primed")
		} else if err != nil {
			// A failed decode must not poison the reference: the real
			// P-frame must still decode against it.
			if _, err := primed.Decode(seeds[1]); err != nil {
				t.Fatalf("reference lost after rejected packet: %v", err)
			}
		}
	})
}
