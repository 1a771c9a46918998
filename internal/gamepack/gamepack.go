// Package gamepack defines the .tkg game package: the single distributable
// file the authoring tool exports and the gaming platform loads (and the
// unit the network layer streams).
//
// A package bundles the project document (JSON) with its video container
// (TKVC) in a sectioned, checksummed binary layout:
//
//	magic "TKGP" | version | section count
//	per section: name len | name | payload len | crc32 | payload
//
// Sections are self-describing so future versions can add e.g. audio tracks
// without breaking old readers. The video section is stored last and is by
// far the largest, which is what makes progressive loading (metadata first,
// video streamed) effective in experiment E8.
package gamepack

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/core"
	"repro/internal/media/container"
	"repro/internal/media/playback"
)

const (
	magic   = "TKGP"
	version = 1

	// SectionProject is the JSON project document.
	SectionProject = "project"
	// SectionVideo is the TKVC container blob.
	SectionVideo = "video"
	// SectionMeta is a small JSON header with title/author (readable
	// without parsing the full project).
	SectionMeta = "meta"
	// SectionManifest is the chunk manifest: the content-addressed
	// description of the other sections (see manifest.go).
	SectionManifest = "manifest"
)

// ErrBadPackage reports a malformed .tkg blob.
var ErrBadPackage = errors.New("gamepack: malformed package")

// Package is an opened game package: the project document, the video
// blob, and — built at most once each, on first use — everything a play
// session derives from those two. One authored course is played by many
// learners, so the parsed container, the compiled scripts, the footage
// digest and the decoded presentation frames belong to the package and
// every session on it shares them read-only; a session adds only its own
// state, cursor and decoder.
//
// A Package returned by Open is read-only from the start. One assembled
// from parts (a literal with Project and Video set) is read-only from the
// first call of any method below. A Package holds locks: pass it by
// pointer.
type Package struct {
	Project *core.Project
	Video   []byte // raw TKVC blob

	readerOnce sync.Once
	reader     *container.Reader
	readerErr  error

	eventsOnce sync.Once
	events     map[string]*core.CompiledEvent
	eventsErr  error

	sumOnce sync.Once
	sum     [sha256.Size]byte

	framesOnce sync.Once
	frames     *playback.FrameCache
}

// frameCacheBytes budgets a package's decoded-frame cache: the most
// decoded pixels one opened course keeps resident, in a server hosting it
// and in a thick client mirroring it alike. Guided learners present a
// handful of distinct frames per course (10 across the three demo courses,
// 576 KB), so the budget only binds a process that watches whole films.
const frameCacheBytes = 32 << 20

// Reader returns the package's parsed video container, index-validated and
// checksummed once: Open verifies the video through it and so keeps it, and
// a package assembled from parts parses on first use.
func (p *Package) Reader() (*container.Reader, error) {
	p.readerOnce.Do(func() { p.reader, p.readerErr = container.Open(p.Video) })
	return p.reader, p.readerErr
}

// Events returns the project's scripts and conditions in executable form,
// keyed by core.EventKey, compiled once.
func (p *Package) Events() (map[string]*core.CompiledEvent, error) {
	p.eventsOnce.Do(func() { p.events, p.eventsErr = p.Project.CompileEvents() })
	return p.events, p.eventsErr
}

// VideoSum returns the SHA-256 of the video blob — what a session snapshot
// embeds to bind itself to the footage it was taken against.
func (p *Package) VideoSum() [sha256.Size]byte {
	p.sumOnce.Do(func() { p.sum = sha256.Sum256(p.Video) })
	return p.sum
}

// Frames returns the decoded-frame cache every session on this package
// presents through (playback.Video.UseCache): the second presentation of
// any frame, by any session, is a copy instead of a decode.
func (p *Package) Frames() *playback.FrameCache {
	p.framesOnce.Do(func() { p.frames = playback.NewFrameCache(frameCacheBytes) })
	return p.frames
}

// section is one named payload of a package blob.
type section struct {
	name string
	data []byte
}

// assemble serializes sections in order with the TKGP framing, into one
// buffer sized up front. It is deterministic: the same payloads always
// produce the same bytes, which is what lets a delta-syncing client
// reassemble a bit-identical blob from the manifest's chunks.
func assemble(sections []section) []byte {
	n := headerLen(len(sections))
	for _, s := range sections {
		n += frameLen(s.name, len(s.data)) + len(s.data)
	}
	buf := appendHeader(make([]byte, 0, n), len(sections))
	for _, s := range sections {
		var crcAt int
		buf, crcAt = appendFrame(buf, s.name, len(s.data))
		buf = append(buf, s.data...)
		sealFrame(buf, crcAt)
	}
	return buf
}

// headerLen is the size of the package header for n sections.
func headerLen(n int) int { return len(magic) + 1 + uvarintLen(uint64(n)) }

// frameLen is the framing that precedes a section's payload: name length,
// name, payload length and CRC.
func frameLen(name string, size int) int {
	return uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(size)) + 4
}

// appendHeader appends the package header for n sections.
func appendHeader(buf []byte, n int) []byte {
	buf = append(buf, magic...)
	buf = append(buf, version)
	return binary.AppendUvarint(buf, uint64(n))
}

// appendFrame appends a section's framing with a zero CRC and returns the
// CRC's offset; sealFrame fills it in once the payload follows it.
func appendFrame(buf []byte, name string, size int) ([]byte, int) {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(size))
	return append(buf, 0, 0, 0, 0), len(buf)
}

// sealFrame writes the CRC at crcAt over the payload after it, which runs
// to the end of buf.
func sealFrame(buf []byte, crcAt int) {
	binary.BigEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[crcAt+4:]))
}

// Build assembles a single-quality .tkg blob from a project and its video
// container: BuildLadder with the canonical rung alone. Like every package
// it carries a chunk manifest section (video chunks cut at segment
// boundaries) so servers and caches can deduplicate and delta-sync it. The
// video blob is validated before inclusion.
func Build(p *core.Project, video []byte) ([]byte, error) {
	return BuildLadder(p, []TierVideo{{Video: video}})
}

// Sections parses the section table: names, offsets and sizes.
func Sections(blob []byte) (map[string][2]int, error) {
	if len(blob) < 5 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadPackage, len(blob))
	}
	if string(blob[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPackage)
	}
	if blob[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadPackage, blob[4])
	}
	pos := 5
	uv := func() (int, error) {
		v, n := binary.Uvarint(blob[pos:])
		if n <= 0 || v > 1<<31 {
			return 0, fmt.Errorf("%w: bad or truncated varint", ErrBadPackage)
		}
		pos += n
		return int(v), nil
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	if count > 64 {
		return nil, fmt.Errorf("%w: %d sections", ErrBadPackage, count)
	}
	out := make(map[string][2]int, count)
	for i := 0; i < count; i++ {
		nameLen, err := uv()
		if err != nil {
			return nil, err
		}
		if nameLen > 256 {
			return nil, fmt.Errorf("%w: bad section name", ErrBadPackage)
		}
		if pos+nameLen > len(blob) {
			return nil, fmt.Errorf("%w: section table truncated", ErrBadPackage)
		}
		name := string(blob[pos : pos+nameLen])
		pos += nameLen
		size, err := uv()
		if err != nil {
			return nil, err
		}
		pos += 4 // crc
		if pos+size > len(blob) {
			return nil, fmt.Errorf("%w: section %q truncated", ErrBadPackage, name)
		}
		out[name] = [2]int{pos, size}
		pos += size
	}
	if pos != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPackage, len(blob)-pos)
	}
	return out, nil
}

// Open parses and verifies a .tkg blob.
func Open(blob []byte) (*Package, error) {
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	read := func(name string) ([]byte, error) {
		loc, ok := secs[name]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %q", ErrBadPackage, name)
		}
		data := blob[loc[0] : loc[0]+loc[1]]
		crc := binary.BigEndian.Uint32(blob[loc[0]-4 : loc[0]])
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("%w: section %q checksum mismatch", ErrBadPackage, name)
		}
		return data, nil
	}
	projJSON, err := read(SectionProject)
	if err != nil {
		return nil, err
	}
	video, err := read(SectionVideo)
	if err != nil {
		return nil, err
	}
	proj, err := core.UnmarshalProject(projJSON)
	if err != nil {
		return nil, fmt.Errorf("gamepack: %w", err)
	}
	pkg := &Package{Project: proj, Video: video}
	if _, err := pkg.Reader(); err != nil {
		return nil, fmt.Errorf("gamepack: video section: %w", err)
	}
	return pkg, nil
}
