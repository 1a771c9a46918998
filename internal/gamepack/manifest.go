// Manifest: the chunk-level description of a package. A manifest lists,
// per section and in payload order, the content addresses (SHA-256) and
// sizes of the chunks the section's bytes are made of. Video-section
// chunks are cut at segment (chapter keyframe) boundaries, so two courses
// sharing synthesized footage produce byte-identical segment chunks and a
// content-addressed store keeps one copy; a course edit changes only the
// chunks whose bytes changed, which is what makes delta sync cheap.
//
// The manifest is itself a section of the package (SectionManifest),
// listed in the manifest as a placeholder entry with no chunks: assembly
// substitutes the manifest's own encoding there, which keeps the format
// self-describing without the circularity of a manifest hashing itself.
package gamepack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/blobstore"
	"repro/internal/media/container"
)

const (
	manifestMagic   = "TKMF"
	manifestVersion = 1

	// maxManifestSections/maxSectionChunks/maxManifestPayload bound
	// hostile manifests before any allocation is sized from their claims
	// (maxManifestPayload matches the format's 1<<31 section bound, so a
	// small lying manifest cannot make a client attempt a huge
	// AssembleSection allocation).
	maxManifestSections       = 64
	maxSectionChunks          = 1 << 20
	maxManifestPayload  int64 = 1 << 31
)

// DefaultChunkSize caps a single chunk. Segment-aligned cuts come first;
// oversized regions are split at this size so one huge segment does not
// defeat range reuse.
const DefaultChunkSize = 64 << 10

// ErrBadManifest reports a malformed manifest blob. Every ParseManifest
// rejection wraps it (mirroring container.ParseHead's typed errors).
var ErrBadManifest = errors.New("gamepack: malformed manifest")

// ErrNoManifest refuses a package without a manifest section: such a
// package cannot be deposited or served.
var ErrNoManifest = errors.New("gamepack: package has no manifest section")

// ChunkRef addresses one chunk of a section payload.
type ChunkRef struct {
	Hash blobstore.Hash
	Size int
}

// SectionChunks is one section's ordered chunk list. Chunks concatenated
// in order reproduce the section payload exactly. The manifest section
// itself appears with an empty chunk list (see package comment).
type SectionChunks struct {
	Name   string
	Chunks []ChunkRef
}

// PayloadSize sums the section's chunk sizes.
func (sc *SectionChunks) PayloadSize() int {
	n := 0
	for _, c := range sc.Chunks {
		n += c.Size
	}
	return n
}

// Manifest describes a whole package as ordered, content-addressed
// chunks, in blob section order.
type Manifest struct {
	Sections []SectionChunks
}

// Section finds a section's chunk list, or nil.
func (m *Manifest) Section(name string) *SectionChunks {
	for i := range m.Sections {
		if m.Sections[i].Name == name {
			return &m.Sections[i]
		}
	}
	return nil
}

// Encode serializes the manifest:
//
//	magic "TKMF" | version | section count
//	per section: name len | name | chunk count | per chunk: size | 32-byte hash
func (m *Manifest) Encode() []byte {
	var buf []byte
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Sections)))
	for _, sc := range m.Sections {
		buf = binary.AppendUvarint(buf, uint64(len(sc.Name)))
		buf = append(buf, sc.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(sc.Chunks)))
		for _, c := range sc.Chunks {
			buf = binary.AppendUvarint(buf, uint64(c.Size))
			buf = append(buf, c.Hash[:]...)
		}
	}
	return buf
}

// ParseManifest decodes and validates a manifest blob. All rejections
// wrap ErrBadManifest.
func ParseManifest(data []byte) (*Manifest, error) {
	pos := 0
	uv := func(what string) (int, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 || v > min(1<<31, math.MaxInt) { // an int on every target
			return 0, fmt.Errorf("%w: bad %s varint", ErrBadManifest, what)
		}
		pos += n
		return int(v), nil
	}
	if len(data) < 5 || string(data[:4]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	if data[4] != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, data[4])
	}
	pos = 5
	nsec, err := uv("section count")
	if err != nil {
		return nil, err
	}
	if nsec == 0 || nsec > maxManifestSections {
		return nil, fmt.Errorf("%w: %d sections", ErrBadManifest, nsec)
	}
	m := &Manifest{}
	seen := map[string]bool{}
	var claimed int64 // summed wider than a chunk size, so it cannot wrap on 32-bit targets
	for i := 0; i < nsec; i++ {
		nameLen, err := uv("name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > 256 {
			return nil, fmt.Errorf("%w: section name of %d bytes", ErrBadManifest, nameLen)
		}
		if pos+nameLen > len(data) {
			return nil, fmt.Errorf("%w: truncated section name", ErrBadManifest)
		}
		sc := SectionChunks{Name: string(data[pos : pos+nameLen])}
		pos += nameLen
		if seen[sc.Name] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrBadManifest, sc.Name)
		}
		seen[sc.Name] = true
		nchunks, err := uv("chunk count")
		if err != nil {
			return nil, err
		}
		if nchunks > maxSectionChunks {
			return nil, fmt.Errorf("%w: %d chunks", ErrBadManifest, nchunks)
		}
		for j := 0; j < nchunks; j++ {
			size, err := uv("chunk size")
			if err != nil {
				return nil, err
			}
			if size == 0 {
				return nil, fmt.Errorf("%w: empty chunk", ErrBadManifest)
			}
			if claimed += int64(size); claimed > maxManifestPayload {
				return nil, fmt.Errorf("%w: claims over %d payload bytes", ErrBadManifest, maxManifestPayload)
			}
			if pos+blobstore.HashSize > len(data) {
				return nil, fmt.Errorf("%w: truncated chunk hash", ErrBadManifest)
			}
			var c ChunkRef
			copy(c.Hash[:], data[pos:pos+blobstore.HashSize])
			c.Size = size
			pos += blobstore.HashSize
			sc.Chunks = append(sc.Chunks, c)
		}
		m.Sections = append(m.Sections, sc)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, len(data)-pos)
	}
	return m, nil
}

// ChunkSet returns every distinct chunk with its size.
func (m *Manifest) ChunkSet() map[blobstore.Hash]int {
	out := map[blobstore.Hash]int{}
	for _, sc := range m.Sections {
		for _, c := range sc.Chunks {
			out[c.Hash] = c.Size
		}
	}
	return out
}

// SectionLoc is one section's payload location within the assembled blob.
type SectionLoc struct {
	Name      string
	Off, Size int
}

// Layout computes, without any chunk bytes, where each section's payload
// lands in the assembled blob and the blob's total size, so a publisher
// can find each chunk of a blob from the manifest alone.
func (m *Manifest) Layout() ([]SectionLoc, int) {
	return m.layout(len(m.Encode()))
}

// layout is Layout with the manifest's own encoded size given.
func (m *Manifest) layout(selfSize int) ([]SectionLoc, int) {
	pos := headerLen(len(m.Sections))
	locs := make([]SectionLoc, len(m.Sections))
	for i := range m.Sections {
		sc := &m.Sections[i]
		size := sc.PayloadSize()
		if sc.isSelf() {
			size = selfSize
		}
		pos += frameLen(sc.Name, size)
		locs[i] = SectionLoc{Name: sc.Name, Off: pos, Size: size}
		pos += size
	}
	return locs, pos
}

// isSelf reports whether the entry is the manifest's own placeholder,
// which assembly fills with the manifest's encoding.
func (sc *SectionChunks) isSelf() bool {
	return sc.Name == SectionManifest && len(sc.Chunks) == 0
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AssembleSection rebuilds one section's payload by fetching its chunks.
func (sc *SectionChunks) AssembleSection(get func(blobstore.Hash) ([]byte, error)) ([]byte, error) {
	return sc.appendPayload(make([]byte, 0, sc.PayloadSize()), get)
}

// appendPayload appends the section's chunks to buf in order, checking
// each against its manifest size.
func (sc *SectionChunks) appendPayload(buf []byte, get func(blobstore.Hash) ([]byte, error)) ([]byte, error) {
	for _, c := range sc.Chunks {
		data, err := get(c.Hash)
		if err != nil {
			return nil, fmt.Errorf("gamepack: section %q chunk %s: %w", sc.Name, c.Hash, err)
		}
		if len(data) != c.Size {
			return nil, fmt.Errorf("%w: section %q chunk %s is %d bytes, manifest says %d",
				ErrBadManifest, sc.Name, c.Hash, len(data), c.Size)
		}
		buf = append(buf, data...)
	}
	return buf, nil
}

// Assemble rebuilds the complete package blob from chunks. Because
// section framing (varints, CRCs) is recomputed deterministically, the
// result is byte-identical to the blob the manifest was derived from. The
// blob is sized from the manifest (Layout's total) and every chunk is
// copied into it once, with each section's CRC taken over the bytes in
// place.
func (m *Manifest) Assemble(get func(blobstore.Hash) ([]byte, error)) ([]byte, error) {
	self := m.Encode()
	locs, total := m.layout(len(self))
	blob := appendHeader(make([]byte, 0, total), len(m.Sections))
	for i := range m.Sections {
		sc := &m.Sections[i]
		var crcAt int
		blob, crcAt = appendFrame(blob, sc.Name, locs[i].Size)
		if sc.isSelf() {
			blob = append(blob, self...)
		} else {
			var err error
			if blob, err = sc.appendPayload(blob, get); err != nil {
				return nil, err
			}
		}
		sealFrame(blob, crcAt)
	}
	return blob, nil
}

// CheckFraming reports whether blob is byte for byte what Assemble builds
// from m, apart from the chunk bytes themselves: its length is Layout's
// total, its header and every section frame are the ones Assemble writes
// (names, minimal varints, each CRC over the payload in place), and the
// manifest's own section holds m.Encode(). A caller that also checks each
// chunk against its address, as a store deposit does, has then checked
// that blob is m's assembly. Rejections wrap ErrBadPackage.
func (m *Manifest) CheckFraming(blob []byte) error {
	self := m.Encode()
	locs, total := m.layout(len(self))
	if len(blob) != total {
		return fmt.Errorf("%w: package is %d bytes, its manifest assembles %d", ErrBadPackage, len(blob), total)
	}
	want := appendHeader(make([]byte, 0, 64), len(m.Sections))
	pos := 0
	for i := range m.Sections {
		sc, loc := &m.Sections[i], locs[i]
		payload := blob[loc.Off : loc.Off+loc.Size]
		var crcAt int
		want, crcAt = appendFrame(want, sc.Name, loc.Size)
		binary.BigEndian.PutUint32(want[crcAt:], crc32.ChecksumIEEE(payload))
		if !bytes.Equal(blob[pos:loc.Off], want) {
			return fmt.Errorf("%w: section %q is not framed as its manifest assembles it", ErrBadPackage, sc.Name)
		}
		if sc.isSelf() && !bytes.Equal(payload, self) {
			return fmt.Errorf("%w: manifest section is not its canonical encoding", ErrBadPackage)
		}
		pos = loc.Off + loc.Size
		want = want[:0]
	}
	return nil
}

// --- chunking ---------------------------------------------------------------

// chunkFlat splits a payload into maxSize chunks with no interior cuts.
func chunkFlat(payload []byte, maxSize int) []ChunkRef {
	return chunkAt(payload, nil, maxSize)
}

// chunkAt splits payload at every cut offset (sorted, within range) and
// additionally at maxSize within each region.
func chunkAt(payload []byte, cuts []int, maxSize int) []ChunkRef {
	var out []ChunkRef
	prev := 0
	emit := func(to int) {
		for prev < to {
			end := prev + maxSize
			if end > to {
				end = to
			}
			out = append(out, ChunkRef{Hash: blobstore.Sum(payload[prev:end]), Size: end - prev})
			prev = end
		}
	}
	for _, cut := range cuts {
		if cut <= prev || cut >= len(payload) {
			continue
		}
		emit(cut)
	}
	emit(len(payload))
	return out
}

// chunkVideo cuts a TKVC payload at its head/data boundary and at each
// chapter's keyframe-aligned start, so segments shared across courses
// yield identical chunks wherever they sit in their respective films.
func chunkVideo(video []byte, maxSize int) ([]ChunkRef, error) {
	head, err := container.ParseHead(video)
	if err != nil {
		return nil, err
	}
	cuts := []int{}
	for _, ch := range head.Chapters() {
		k, err := head.KeyframeAtOrBefore(ch.Start)
		if err != nil {
			return nil, err
		}
		lo, _, err := head.ByteRange(k, ch.End)
		if err != nil {
			return nil, err
		}
		cuts = append(cuts, lo)
	}
	// The head region [0, dataStart) is its own chunk run: project edits
	// that only re-index frames do not dirty segment chunks.
	lo, _, err := head.ByteRange(0, 1)
	if err != nil {
		return nil, err
	}
	cuts = append(cuts, lo)
	sort.Ints(cuts)
	return chunkAt(video, cuts, maxSize), nil
}

// manifestFor chunks the given sections (video sections — every quality
// tier — segment-aligned) and inserts the manifest's own placeholder
// entry immediately before the first video section (BuildLadder's
// layout).
func manifestFor(secs []section) (*Manifest, error) {
	m := &Manifest{}
	placed := false
	for _, s := range secs {
		var chunks []ChunkRef
		if _, isVideo := VideoSectionTier(s.name); isVideo {
			if !placed {
				m.Sections = append(m.Sections, SectionChunks{Name: SectionManifest})
				placed = true
			}
			var err error
			if chunks, err = chunkVideo(s.data, DefaultChunkSize); err != nil {
				return nil, fmt.Errorf("gamepack: chunking video section %q: %w", s.name, err)
			}
		} else {
			chunks = chunkFlat(s.data, DefaultChunkSize)
		}
		m.Sections = append(m.Sections, SectionChunks{Name: s.name, Chunks: chunks})
	}
	return m, nil
}

// DepositChunks splits a package blob into its embedded manifest's chunks
// and deposits each into a store (dedup hits are free), returning the
// manifest. A package without a manifest is refused with ErrNoManifest,
// and one whose manifest does not describe its bytes — a chunk named by an
// address its bytes do not hash to, chunks that overflow or do not tile
// their section, a section it lacks — with ErrBadManifest. A refused call
// removes every chunk it added, so the store holds what it held before and
// a returned manifest names only chunks the store holds.
func DepositChunks(blob []byte, store *blobstore.Store) (*Manifest, error) {
	man, err := ExtractManifest(blob)
	if err != nil {
		return nil, err
	}
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	var added []blobstore.Hash // chunks this call deposited that were new
	refuse := func(err error) (*Manifest, error) {
		for _, h := range added {
			store.Remove(h)
		}
		return nil, err
	}
	for _, sc := range man.Sections {
		if sc.isSelf() {
			continue // placeholder: the manifest is re-encoded at assembly
		}
		loc, ok := secs[sc.Name]
		if !ok {
			return refuse(fmt.Errorf("%w: manifest names missing section %q", ErrBadManifest, sc.Name))
		}
		off := loc[0]
		for _, c := range sc.Chunks {
			if off+c.Size > loc[0]+loc[1] {
				return refuse(fmt.Errorf("%w: section %q chunks overflow payload", ErrBadManifest, sc.Name))
			}
			h, isNew, err := store.Put(blob[off : off+c.Size])
			if err != nil {
				return refuse(err)
			}
			if isNew {
				added = append(added, h)
			}
			if h != c.Hash {
				return refuse(fmt.Errorf("%w: section %q chunk at %d hashes to %s, manifest says %s",
					ErrBadManifest, sc.Name, off-loc[0], h, c.Hash))
			}
			off += c.Size
		}
		if off != loc[0]+loc[1] {
			return refuse(fmt.Errorf("%w: section %q chunks do not tile payload", ErrBadManifest, sc.Name))
		}
	}
	return man, nil
}

// ExtractManifest reads and parses a package's embedded manifest section.
// A package without one yields ErrNoManifest.
func ExtractManifest(blob []byte) (*Manifest, error) {
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	loc, ok := secs[SectionManifest]
	if !ok {
		return nil, ErrNoManifest
	}
	data := blob[loc[0] : loc[0]+loc[1]]
	crc := binary.BigEndian.Uint32(blob[loc[0]-4 : loc[0]])
	if crc32.ChecksumIEEE(data) != crc {
		return nil, fmt.Errorf("%w: manifest section checksum mismatch", ErrBadPackage)
	}
	return ParseManifest(data)
}
