// Package tagrec is the one codec for the repository's tagged-record
// containers:
//
//	magic | uvarint version | (uvarint tag, uvarint length, payload)* | CRC32
//
// The CRC is IEEE, big-endian, over everything before it. Five formats share
// the shape — the runtime snapshot (VSNP), the play service's session
// envelope (VSNE), act and reply frames (VACT, VRPL) and the watch-chunk
// header (VWCH). Each keeps its own tag table, field semantics and error
// sentinel; the container, the record walk and the bounded payload cursor
// live here and nowhere else, so the hostile-input bar (no length trusted
// before it is checked against the bytes that remain, no allocation sized by
// the input) is met once.
//
// Readers skip tags they do not know, which is what lets a writer add a
// record without stranding older readers. Errors carry no sentinel of their
// own: callers wrap them in theirs.
//
// The positional formats (TKGP, TKMF, TKVC, the vcodec bitstream) are a
// different shape and do not belong here.
package tagrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// --- writing -----------------------------------------------------------------

// Begin appends a container header to b. Finish wants the length b had
// before this call.
func Begin(b []byte, magic string, version uint64) []byte {
	return binary.AppendUvarint(append(b, magic...), version)
}

// Finish appends the checksum of b[start:], the container Begin opened at
// offset start.
func Finish(b []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// Append appends one record whose payload is already in hand.
func Append[P ~[]byte | ~string](b []byte, tag uint64, payload P) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// AppendUint appends a record whose payload is one uvarint.
func AppendUint(b []byte, tag, v uint64) []byte {
	b, mark := BeginRecord(b, tag)
	return EndRecord(binary.AppendUvarint(b, v), mark)
}

// BeginRecord opens a record whose payload the caller appends to b directly
// (no scratch buffer, no allocation); EndRecord, given the same mark, writes
// the length in.
func BeginRecord(b []byte, tag uint64) (out []byte, mark int) {
	b = binary.AppendUvarint(b, tag)
	return append(b, 0), len(b)
}

// EndRecord closes the record BeginRecord opened at mark. One byte was
// reserved for the length; a payload of 128 bytes or more is shifted up to
// make room for the rest of its varint.
func EndRecord(b []byte, mark int) []byte {
	n := len(b) - mark - 1
	if n < 0x80 {
		b[mark] = byte(n)
		return b
	}
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	b = append(b, l[:k-1]...)
	copy(b[mark+k:], b[mark+1:mark+1+n])
	copy(b[mark:], l[:k])
	return b
}

// AppendStr, AppendZigzag and AppendBool append the values Reader.Str,
// Reader.Zigzag and Reader.Bool read back.
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func AppendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- reading -----------------------------------------------------------------

// Scanner walks a container's records:
//
//	sc := tagrec.Open(data, magic, minVersion, maxVersion, maxField)
//	for sc.Next() {
//		switch sc.Tag { … sc.Payload … }
//	}
//	if err := sc.Err(); err != nil { … }
//
// Payload aliases data.
type Scanner struct {
	Tag     uint64
	Payload []byte

	rest     []byte
	maxField uint64
	err      error
}

// Open checks a container's magic, version (minVersion…maxVersion) and
// checksum — the only place they are checked — and positions a Scanner
// before its first record. No record may claim more than maxField bytes.
func Open(data []byte, magic string, minVersion, maxVersion uint64, maxField int) Scanner {
	sc := Peek(data, magic, minVersion, maxVersion, maxField)
	if sc.err == nil {
		body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
		if crc32.ChecksumIEEE(body) != sum {
			sc.err = errors.New("checksum mismatch")
		}
	}
	return sc
}

// Peek is Open WITHOUT the checksum: the prefix parse a router does on a
// body it forwards unopened to whoever will verify it. The scan stops
// short of the checksum's four bytes, so it never reads them as a record;
// the caller reads the records it routes on and stops.
func Peek(data []byte, magic string, minVersion, maxVersion uint64, maxField int) Scanner {
	sc := Scanner{maxField: uint64(maxField)}
	if len(data) < len(magic)+1+4 {
		sc.err = fmt.Errorf("truncated (%d bytes)", len(data))
		return sc
	}
	sc.rest, sc.err = header(data[:len(data)-4], magic, minVersion, maxVersion)
	return sc
}

func header(data []byte, magic string, minVersion, maxVersion uint64) (rest []byte, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, errors.New("bad magic")
	}
	version, n := binary.Uvarint(data[len(magic):])
	if n <= 0 {
		return nil, errors.New("malformed version")
	}
	if version < minVersion || version > maxVersion {
		return nil, fmt.Errorf("unsupported version %d (want %d…%d)", version, minVersion, maxVersion)
	}
	return data[len(magic)+n:], nil
}

func next(rest []byte, maxField uint64) (tag uint64, payload, tail []byte, err error) {
	tag, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, errors.New("malformed record tag")
	}
	rest = rest[n:]
	size, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, errors.New("malformed record length")
	}
	rest = rest[n:]
	if size > maxField || size > uint64(len(rest)) {
		return 0, nil, nil, fmt.Errorf("record %d claims %d bytes, %d remain", tag, size, len(rest))
	}
	return tag, rest[:size], rest[size:], nil
}

// Next advances to the next record, reporting false at the end of the
// container or at the first malformed record (see Err).
func (sc *Scanner) Next() bool {
	if sc.err != nil || len(sc.rest) == 0 {
		return false
	}
	sc.Tag, sc.Payload, sc.rest, sc.err = next(sc.rest, sc.maxField)
	return sc.err == nil
}

// Err is what stopped the scan short of the container's end, if anything.
func (sc *Scanner) Err() error { return sc.err }

// Uint reads back AppendUint's payload: one uvarint no larger than limit and
// nothing after it.
func Uint(payload []byte, limit uint64) (uint64, error) {
	r := Reader{B: payload}
	v, err := r.Uvarint()
	switch {
	case err != nil:
		return 0, err
	case !r.Empty():
		return 0, errors.New("bytes after the varint")
	case v > limit:
		return 0, fmt.Errorf("value %d out of range", v)
	}
	return v, nil
}

// Reader is a bounded cursor over one record's payload. Every length and
// count it returns has been checked against the bytes that remain.
type Reader struct{ B []byte }

func (r *Reader) Empty() bool { return len(r.B) == 0 }

func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		return 0, errors.New("malformed varint")
	}
	r.B = r.B[n:]
	return v, nil
}

// Count reads a non-negative int bounded by both limit and the bytes that
// remain (each counted element needs at least one byte), so a hostile count
// cannot drive a large allocation.
func (r *Reader) Count(limit int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) || v > uint64(len(r.B)) {
		return 0, fmt.Errorf("count %d exceeds bounds", v)
	}
	return int(v), nil
}

// Int reads an unsigned value that fits an int32.
func (r *Reader) Int() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("value %d out of range", v)
	}
	return int(v), nil
}

// Zigzag reads a signed value that fits an int32.
func (r *Reader) Zigzag() (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	dec := int64(v>>1) ^ -int64(v&1)
	if dec > math.MaxInt32 || dec < math.MinInt32 {
		return 0, fmt.Errorf("integer %d out of range", dec)
	}
	return int(dec), nil
}

func (r *Reader) Str() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.B)) {
		return "", fmt.Errorf("string claims %d bytes, %d remain", n, len(r.B))
	}
	s := string(r.B[:n])
	r.B = r.B[n:]
	return s, nil
}

func (r *Reader) Bool() (bool, error) {
	if len(r.B) == 0 {
		return false, errors.New("truncated bool")
	}
	v := r.B[0] != 0
	r.B = r.B[1:]
	return v, nil
}
