// Package container implements TKVC, the seekable file format that carries
// TKV2 video inside IVGBL game packages.
//
// A TKVC blob has four sections:
//
//	header   — magic, version, video metadata (size, fps, frame count, GOP)
//	chapters — named frame ranges; the authoring tool stores scenario
//	           segments here, which is what makes "switch to segment X"
//	           a constant-time operation at play time (paper §2.1)
//	index    — per-frame (type, offset, size) records
//	data     — concatenated TKV2 packets, CRC-32 protected
//
// The index is the load-bearing piece: the paper's interactive jumps between
// video scenarios require random access, and experiment E2 measures exactly
// the gap between this index and the linear-scan baseline.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/media/vcodec"
)

const (
	magic   = "TKVC"
	version = 1
)

// ErrBadContainer is returned when a blob fails structural validation.
var ErrBadContainer = errors.New("container: malformed TKVC data")

// ErrTruncated reports that the input ended before the structure did. For
// prefix parsing (ParseHead) it means "fetch more bytes and retry", which is
// how the streaming client sizes its header request.
var ErrTruncated = errors.New("container: truncated input")

// Meta is the global video metadata of a container.
type Meta struct {
	Width, Height int
	FPS           int
	FrameCount    int
	GOP           int
}

// Chapter is a named frame range [Start, End). The authoring tool maps one
// scenario to one chapter.
type Chapter struct {
	Name  string
	Start int // first frame
	End   int // one past the last frame
}

// frameRecord locates one packet inside the data section.
type frameRecord struct {
	typ    vcodec.FrameType
	offset int
	size   int
}

// Muxer assembles a TKVC blob. Packets must be added in encode order.
//
// A packet's bytes are moved twice and never more: AddPacket copies them
// into the muxer's data blocks, which are fixed in size and never regrown,
// and Finalize copies the blocks into the blob, allocated at its exact size.
type Muxer struct {
	meta        Meta
	chapters    []Chapter
	records     []frameRecord
	first, last *dataBlock // the data section so far; nil before the first packet
	size        int        // bytes in the blocks
}

// dataBlock is a run of the data section, full before the next is made.
// With its link and its fill a block is one 32 KiB allocation.
type dataBlock struct {
	next *dataBlock
	n    int
	buf  [32<<10 - 16]byte
}

// NewMuxer starts a container with the given metadata. FrameCount in meta is
// how many packets the caller means to add, if it knows: it sizes the index
// up front (0 grows it as packets come). The count written is always that
// of the packets actually added.
func NewMuxer(meta Meta) (*Muxer, error) {
	if meta.Width <= 0 || meta.Height <= 0 || meta.FPS <= 0 || meta.GOP < 1 {
		return nil, fmt.Errorf("container: invalid metadata %+v", meta)
	}
	return &Muxer{meta: meta, records: make([]frameRecord, 0, max(meta.FrameCount, 0))}, nil
}

// AddPacket appends the next encoded frame. Packet indices must be
// sequential from zero and the first packet must be an I-frame.
func (m *Muxer) AddPacket(p vcodec.Packet) error {
	if p.Index != len(m.records) {
		return fmt.Errorf("container: packet index %d, want %d", p.Index, len(m.records))
	}
	if len(m.records) == 0 && p.Type != vcodec.IFrame {
		return errors.New("container: first packet must be an I-frame")
	}
	if len(p.Data) == 0 {
		return errors.New("container: empty packet")
	}
	m.records = append(m.records, frameRecord{typ: p.Type, offset: m.size, size: len(p.Data)})
	for data := p.Data; len(data) > 0; {
		if m.last == nil || m.last.n == len(m.last.buf) {
			b := new(dataBlock)
			if m.last == nil {
				m.first = b
			} else {
				m.last.next = b
			}
			m.last = b
		}
		n := copy(m.last.buf[m.last.n:], data)
		m.last.n += n
		data = data[n:]
	}
	m.size += len(p.Data)
	return nil
}

// AddChapter registers a named segment. Ranges may be added in any order but
// must be non-empty, within the eventual frame count (validated at
// Finalize), and names must be unique and non-empty.
func (m *Muxer) AddChapter(ch Chapter) error {
	if ch.Name == "" {
		return errors.New("container: chapter needs a name")
	}
	if ch.End <= ch.Start || ch.Start < 0 {
		return fmt.Errorf("container: chapter %q has empty range [%d,%d)", ch.Name, ch.Start, ch.End)
	}
	for _, c := range m.chapters {
		if c.Name == ch.Name {
			return fmt.Errorf("container: duplicate chapter %q", ch.Name)
		}
	}
	m.chapters = append(m.chapters, ch)
	return nil
}

// Finalize validates and serializes the container.
func (m *Muxer) Finalize() ([]byte, error) {
	if len(m.records) == 0 {
		return nil, errors.New("container: no packets")
	}
	for _, ch := range m.chapters {
		if ch.End > len(m.records) {
			return nil, fmt.Errorf("container: chapter %q ends at %d beyond %d frames", ch.Name, ch.End, len(m.records))
		}
	}
	chapters := append([]Chapter(nil), m.chapters...)
	sort.Slice(chapters, func(i, j int) bool { return chapters[i].Start < chapters[j].Start })

	var buf []byte
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.AppendUvarint(buf, uint64(m.meta.Width))
	buf = binary.AppendUvarint(buf, uint64(m.meta.Height))
	buf = binary.AppendUvarint(buf, uint64(m.meta.FPS))
	buf = binary.AppendUvarint(buf, uint64(len(m.records)))
	buf = binary.AppendUvarint(buf, uint64(m.meta.GOP))
	// Chapters.
	buf = binary.AppendUvarint(buf, uint64(len(chapters)))
	for _, ch := range chapters {
		buf = binary.AppendUvarint(buf, uint64(ch.Start))
		buf = binary.AppendUvarint(buf, uint64(ch.End))
		buf = binary.AppendUvarint(buf, uint64(len(ch.Name)))
		buf = append(buf, ch.Name...)
	}
	// Index.
	for _, r := range m.records {
		buf = append(buf, byte(r.typ))
		buf = binary.AppendUvarint(buf, uint64(r.size))
	}
	// Data with checksum.
	buf = binary.AppendUvarint(buf, uint64(m.size))
	var crc uint32
	for b := m.first; b != nil; b = b.next {
		crc = crc32.Update(crc, crc32.IEEETable, b.buf[:b.n])
	}
	buf = binary.BigEndian.AppendUint32(buf, crc)
	blob := make([]byte, len(buf)+m.size)
	n := copy(blob, buf)
	for b := m.first; b != nil; b = b.next {
		n += copy(blob[n:], b.buf[:b.n])
	}
	return blob, nil
}

// WithChapters rebuilds a container blob with a replacement chapter table,
// leaving packets untouched. The authoring tool's segment edits (split,
// merge, rename) go through this.
func WithChapters(blob []byte, chapters []Chapter) ([]byte, error) {
	r, err := Open(blob)
	if err != nil {
		return nil, err
	}
	mux, err := NewMuxer(r.meta)
	if err != nil {
		return nil, err
	}
	for i, rec := range r.records {
		if err := mux.AddPacket(vcodec.Packet{
			Type:  rec.typ,
			Index: i,
			Data:  r.data[rec.offset : rec.offset+rec.size],
		}); err != nil {
			return nil, err
		}
	}
	for _, ch := range chapters {
		if err := mux.AddChapter(ch); err != nil {
			return nil, err
		}
	}
	return mux.Finalize()
}

// Reader provides random access into a finalized TKVC blob.
type Reader struct {
	meta     Meta
	chapters []Chapter
	records  []frameRecord
	data     []byte // data section only
}

// Head is the parsed metadata/chapters/index portion of a container — every
// structural fact about the file except the packet payloads. It can be
// parsed from a prefix of the blob, which is what lets the streaming client
// plan ranged fetches before downloading any video data.
type Head struct {
	meta      Meta
	chapters  []Chapter
	records   []frameRecord
	dataStart int // absolute offset of the data section within the blob
	dataLen   int
	crc       uint32
}

// ParseHead parses the container header, chapter table, frame index and
// data-section descriptor from a blob prefix. If the prefix ends before the
// head does, the error wraps ErrTruncated — fetch more bytes and retry.
func ParseHead(prefix []byte) (*Head, error) {
	p := &parser{buf: prefix}
	mg, err := p.slice(4)
	if err != nil {
		return nil, err
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadContainer)
	}
	ver, err := p.u8()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadContainer, ver)
	}
	var h Head
	if h.meta.Width, err = p.intv(); err != nil {
		return nil, err
	}
	if h.meta.Height, err = p.intv(); err != nil {
		return nil, err
	}
	if h.meta.FPS, err = p.intv(); err != nil {
		return nil, err
	}
	if h.meta.FrameCount, err = p.intv(); err != nil {
		return nil, err
	}
	if h.meta.GOP, err = p.intv(); err != nil {
		return nil, err
	}
	if h.meta.Width <= 0 || h.meta.Height <= 0 || h.meta.FPS <= 0 ||
		h.meta.FrameCount <= 0 || h.meta.GOP < 1 || h.meta.FrameCount > 1<<26 {
		return nil, fmt.Errorf("%w: implausible metadata %+v", ErrBadContainer, h.meta)
	}
	nch, err := p.intv()
	if err != nil {
		return nil, err
	}
	if nch < 0 || nch > h.meta.FrameCount {
		return nil, fmt.Errorf("%w: %d chapters", ErrBadContainer, nch)
	}
	for i := 0; i < nch; i++ {
		var ch Chapter
		if ch.Start, err = p.intv(); err != nil {
			return nil, err
		}
		if ch.End, err = p.intv(); err != nil {
			return nil, err
		}
		nameLen, err := p.intv()
		if err != nil {
			return nil, err
		}
		if nameLen > 1<<12 {
			return nil, fmt.Errorf("%w: chapter name of %d bytes", ErrBadContainer, nameLen)
		}
		nb, err := p.slice(nameLen)
		if err != nil {
			return nil, err
		}
		ch.Name = string(nb)
		if ch.End <= ch.Start || ch.End > h.meta.FrameCount {
			return nil, fmt.Errorf("%w: chapter %q range [%d,%d)", ErrBadContainer, ch.Name, ch.Start, ch.End)
		}
		h.chapters = append(h.chapters, ch)
	}
	h.records = make([]frameRecord, h.meta.FrameCount)
	offset := 0
	for i := range h.records {
		tb, err := p.u8()
		if err != nil {
			return nil, err
		}
		ft := vcodec.FrameType(tb)
		if ft != vcodec.IFrame && ft != vcodec.PFrame {
			return nil, fmt.Errorf("%w: frame %d has type %d", ErrBadContainer, i, tb)
		}
		size, err := p.intv()
		if err != nil {
			return nil, err
		}
		if size <= 0 {
			return nil, fmt.Errorf("%w: frame %d has size %d", ErrBadContainer, i, size)
		}
		h.records[i] = frameRecord{typ: ft, offset: offset, size: size}
		offset += size
	}
	if len(h.records) > 0 && h.records[0].typ != vcodec.IFrame {
		return nil, fmt.Errorf("%w: first frame is not an I-frame", ErrBadContainer)
	}
	dataLen, err := p.intv()
	if err != nil {
		return nil, err
	}
	if dataLen != offset {
		return nil, fmt.Errorf("%w: data length %d, index implies %d", ErrBadContainer, dataLen, offset)
	}
	crcb, err := p.slice(4)
	if err != nil {
		return nil, err
	}
	h.dataLen = dataLen
	h.crc = binary.BigEndian.Uint32(crcb)
	h.dataStart = p.pos
	return &h, nil
}

// Meta returns the video metadata.
func (h *Head) Meta() Meta { return h.meta }

// Chapters returns a copy of the chapter table.
func (h *Head) Chapters() []Chapter {
	return append([]Chapter(nil), h.chapters...)
}

// ChapterByName looks a chapter up by name.
func (h *Head) ChapterByName(name string) (Chapter, bool) {
	for _, ch := range h.chapters {
		if ch.Name == name {
			return ch, true
		}
	}
	return Chapter{}, false
}

// FrameType returns the coded type of frame i.
func (h *Head) FrameType(i int) (vcodec.FrameType, error) {
	if i < 0 || i >= len(h.records) {
		return 0, fmt.Errorf("container: frame %d out of range [0,%d)", i, len(h.records))
	}
	return h.records[i].typ, nil
}

// KeyframeAtOrBefore returns the nearest I-frame at or before frame i.
func (h *Head) KeyframeAtOrBefore(i int) (int, error) {
	if i < 0 || i >= len(h.records) {
		return 0, fmt.Errorf("container: frame %d out of range [0,%d)", i, len(h.records))
	}
	for k := i; k >= 0; k-- {
		if h.records[k].typ == vcodec.IFrame {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: no keyframe before %d", ErrBadContainer, i)
}

// ByteRange returns the absolute [start, end) byte range within the blob
// that holds packets [from, to).
func (h *Head) ByteRange(from, to int) (int, int, error) {
	if from < 0 || to > len(h.records) || to <= from {
		return 0, 0, fmt.Errorf("container: packet range [%d,%d) invalid", from, to)
	}
	start := h.dataStart + h.records[from].offset
	last := h.records[to-1]
	return start, h.dataStart + last.offset + last.size, nil
}

// PacketFromChunk extracts packet i from a byte chunk previously fetched via
// ByteRange(from, to). The caller promises chunk covers that range.
func (h *Head) PacketFromChunk(chunk []byte, chunkFrom, i int) ([]byte, error) {
	if i < chunkFrom || i >= len(h.records) {
		return nil, fmt.Errorf("container: packet %d not in chunk starting at %d", i, chunkFrom)
	}
	base := h.records[chunkFrom].offset
	rec := h.records[i]
	lo := rec.offset - base
	hi := lo + rec.size
	if lo < 0 || hi > len(chunk) {
		return nil, fmt.Errorf("%w: chunk too small for packet %d", ErrTruncated, i)
	}
	return chunk[lo:hi], nil
}

// TotalSize returns the full container size in bytes implied by the head.
func (h *Head) TotalSize() int { return h.dataStart + h.dataLen }

// Open parses a TKVC blob. The data section checksum is verified.
func Open(blob []byte) (*Reader, error) {
	h, err := ParseHead(blob)
	if err != nil {
		return nil, err
	}
	if h.TotalSize() > len(blob) {
		return nil, fmt.Errorf("%w: data section", ErrTruncated)
	}
	if h.TotalSize() < len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadContainer, len(blob)-h.TotalSize())
	}
	data := blob[h.dataStart:]
	if crc32.ChecksumIEEE(data) != h.crc {
		return nil, fmt.Errorf("%w: data checksum mismatch", ErrBadContainer)
	}
	return &Reader{meta: h.meta, chapters: h.chapters, records: h.records, data: data}, nil
}

// Meta returns the container's video metadata.
func (r *Reader) Meta() Meta { return r.meta }

// Chapters returns the chapter table sorted by start frame.
func (r *Reader) Chapters() []Chapter {
	return append([]Chapter(nil), r.chapters...)
}

// ChapterByName looks a chapter up by its name.
func (r *Reader) ChapterByName(name string) (Chapter, bool) {
	for _, ch := range r.chapters {
		if ch.Name == name {
			return ch, true
		}
	}
	return Chapter{}, false
}

// PacketAt returns the encoded packet for frame i and its type.
// The returned slice aliases the container's buffer; callers must not
// modify it.
func (r *Reader) PacketAt(i int) ([]byte, vcodec.FrameType, error) {
	if i < 0 || i >= len(r.records) {
		return nil, 0, fmt.Errorf("container: frame %d out of range [0,%d)", i, len(r.records))
	}
	rec := r.records[i]
	return r.data[rec.offset : rec.offset+rec.size], rec.typ, nil
}

// KeyframeAtOrBefore returns the index of the nearest I-frame at or before
// frame i — the decode entry point for a seek. It is O(distance to the
// previous keyframe), bounded by the GOP length.
func (r *Reader) KeyframeAtOrBefore(i int) (int, error) {
	if i < 0 || i >= len(r.records) {
		return 0, fmt.Errorf("container: frame %d out of range [0,%d)", i, len(r.records))
	}
	for k := i; k >= 0; k-- {
		if r.records[k].typ == vcodec.IFrame {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: no keyframe before %d", ErrBadContainer, i)
}

// DataSize returns the size in bytes of the video data section.
func (r *Reader) DataSize() int { return len(r.data) }

// parser is a bounds-checked cursor over the container blob.
type parser struct {
	buf []byte
	pos int
}

func (p *parser) u8() (uint8, error) {
	if p.pos >= len(p.buf) {
		return 0, fmt.Errorf("%w: header", ErrTruncated)
	}
	v := p.buf[p.pos]
	p.pos++
	return v, nil
}

func (p *parser) intv() (int, error) {
	v, n := binary.Uvarint(p.buf[p.pos:])
	if n == 0 {
		return 0, fmt.Errorf("%w: varint", ErrTruncated)
	}
	if n < 0 || v > 1<<31 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadContainer)
	}
	p.pos += n
	return int(v), nil
}

func (p *parser) slice(n int) ([]byte, error) {
	if n < 0 || p.pos+n > len(p.buf) {
		return nil, fmt.Errorf("%w: need %d bytes", ErrTruncated, n)
	}
	b := p.buf[p.pos : p.pos+n]
	p.pos += n
	return b, nil
}
