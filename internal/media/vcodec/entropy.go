package vcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrCorrupt is returned when a TKV2 payload fails to parse, a packet of
// another version included.
var ErrCorrupt = errors.New("vcodec: corrupt bitstream")

// byteWriter accumulates the encoded bitstream. It is an append-only buffer
// with varint helpers; methods never fail.
type byteWriter struct {
	buf []byte
}

func (w *byteWriter) u8(v uint8)       { w.buf = append(w.buf, v) }
func (w *byteWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *byteWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *byteWriter) bytes(b []byte)   { w.buf = append(w.buf, b...) }

// reset empties the writer, keeping its capacity for reuse.
func (w *byteWriter) reset() { w.buf = w.buf[:0] }

// byteReader consumes an encoded bitstream with bounds checking.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) u8() (uint8, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrCorrupt
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

// uvarint takes the one-byte case — pair counts, zero runs and levels under
// 64 in magnitude, nearly every varint in a stream — without the general
// decoder's loop.
func (r *byteReader) uvarint() (uint64, error) {
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		r.pos++
		return uint64(r.buf[r.pos-1]), nil
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	ux, err := r.uvarint() // binary.Varint is this zigzag fold over Uvarint
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// slice compares n against the bytes remaining, not pos+n against the length:
// n comes straight from a 64-bit varint and pos+n can wrap negative.
func (r *byteReader) slice(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.pos {
		return nil, ErrCorrupt
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *byteReader) remaining() int { return len(r.buf) - r.pos }

// writeLevels codes 64 quantized levels in zigzag order as a count of
// (zero-run, level) pairs, then the pairs: uvarint count, then count ×
// (uvarint run, varint level), with no end-of-block marker. An all-zero
// block is a single 0 byte — the dominant case for P-frame residuals, which
// is what makes P-frames small.
//
// The pairs are the set bits of the block's nonzero mask, lowest first
// (nonzeroMask: SSE2 on amd64, dct_amd64.s; a Go loop elsewhere). The count
// is at most 64 and a run at most 63, so both are always one byte; only a
// level of magnitude 64 or more takes the general varint writer.
func writeLevels(w *byteWriter, levels *[64]int32) {
	nz := nonzeroMask(levels)
	b := append(w.buf, uint8(bits.OnesCount64(nz)))
	next := 0 // the index after the previous pair's level
	for ; nz != 0; nz &= nz - 1 {
		i := bits.TrailingZeros64(nz)
		l := int64(levels[i&63])
		if z := uint64(l<<1 ^ l>>63); z < 0x80 { // the zigzag fold varint writes
			b = append(b, uint8(i-next), uint8(z))
		} else {
			b = binary.AppendUvarint(append(b, uint8(i-next)), z)
		}
		next = i + 1
	}
	w.buf = b
}

// read reverses writeLevels straight into b: each (run, level) pair becomes
// the dequantized coefficient at its natural position — the level truncated
// to int32, times the DC or AC divisor, wrapping in int32 — and is recorded
// in the column masks, and one outside ±idctRange in outside. Levels never
// exist as an array on the decode side.
func (b *coefBlock) read(r *byteReader, dcDiv, acDiv int32) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > 64 {
		return fmt.Errorf("%w: %d coefficient pairs in one block", ErrCorrupt, n)
	}
	b.cols, b.acs, b.outside = 0, 0, false
	if n == 0 {
		return nil // coef is stale, which idct never looks at when cols is 0
	}
	b.coef = [64]int32{}
	idx, div := 0, dcDiv
	for p := uint64(0); p < n; p++ {
		run, err := r.uvarint()
		if err != nil {
			return err
		}
		// Bound the run before converting: a 64-bit run would wrap int(run)
		// negative and walk off the front of the block.
		if run > 63 {
			return fmt.Errorf("%w: zero run %d out of range", ErrCorrupt, run)
		}
		lvl, err := r.varint()
		if err != nil {
			return err
		}
		idx += int(run)
		if idx >= 64 {
			return fmt.Errorf("%w: zigzag index %d out of range", ErrCorrupt, idx)
		}
		if lvl == 0 {
			return fmt.Errorf("%w: explicit zero level", ErrCorrupt)
		}
		if idx > 0 {
			div = acDiv
		}
		pos := zigzag[idx]
		c := int32(lvl) * div
		b.coef[pos] = c
		if !inIDCTRange(c) {
			b.outside = true
		}
		col := uint8(1) << (pos & 7)
		b.cols |= col
		if pos >= blockSize {
			b.acs |= col
		}
		idx++
	}
	return nil
}
