// Package playback decodes TKVC containers for presentation.
//
// It provides two layers:
//
//   - Video: random access to decoded frames (seek = nearest I-frame +
//     roll-forward), the capability behind the paper's "switch to other
//     video segments" interaction (§4.3).
//   - Cursor: step-driven playback confined to one segment (scenario),
//     with loop/hold end behavior. The game runtime advances a Cursor
//     one tick at a time.
//
// Nothing here starts a goroutine: a frame decodes on the goroutine that
// asked for it, and parallelism comes from serving many consumers, each with
// its own Video (EXPERIMENTS.md E28).
package playback

import (
	"errors"
	"fmt"

	"repro/internal/media/container"
	"repro/internal/media/raster"
)

// Video is a decodable container with seek support. It is not safe for
// concurrent use; each consumer should have its own Video (the parsed
// container and the blob under it are shared and read-only).
type Video struct {
	r     *container.Reader
	seek  *Seeker
	own   *raster.Frame // recycled frame returned by FrameAt
	cache *FrameCache   // optional shared decoded-frame cache
}

// readerPackets adapts a container.Reader to the Seeker's PacketSource.
type readerPackets struct{ *container.Reader }

func (r readerPackets) PacketAt(j int) ([]byte, error) {
	data, _, err := r.Reader.PacketAt(j)
	return data, err
}

// UseCache attaches a shared decoded-frame cache (nil detaches). The cache
// must only ever see Videos over the same container blob — frame indices
// are the cache key, so mixing containers would serve wrong pixels.
func (v *Video) UseCache(c *FrameCache) { v.cache = c }

// OpenVideo parses blob and prepares a decoder. The second argument, once
// a decode worker count, is ignored: it stays only because benchmark/sut.go
// passes it and that directory changes in benchmark PRs alone (ROADMAP 9(b)).
func OpenVideo(blob []byte, _ int) (*Video, error) {
	r, err := container.Open(blob)
	if err != nil {
		return nil, err
	}
	return NewVideo(r), nil
}

// NewVideo prepares a decoder over an already-parsed container: how many
// consumers of one blob share its one parse and checksum. A Reader is never
// written after Open, so any number of Videos may read it at once.
func NewVideo(r *container.Reader) *Video {
	return &Video{r: r, seek: NewSeeker(), own: &raster.Frame{}}
}

// Meta returns the container metadata.
func (v *Video) Meta() container.Meta { return v.r.Meta() }

// Chapters returns the container's chapter (segment) table.
func (v *Video) Chapters() []container.Chapter { return v.r.Chapters() }

// ChapterByName looks up a chapter.
func (v *Video) ChapterByName(name string) (container.Chapter, bool) {
	return v.r.ChapterByName(name)
}

// FrameAt decodes and returns frame i, seeking if necessary. Sequential
// reads (i == previous+1) cost one decode; backward seeks or jumps restart
// from the nearest preceding I-frame, and roll-forward frames skip the RGB
// conversion entirely.
//
// The returned frame is owned by the Video and recycled by the next FrameAt
// call; Clone it to retain pixels across calls.
func (v *Video) FrameAt(i int) (*raster.Frame, error) {
	if err := v.frameAtInto(v.own, i); err != nil {
		return nil, err
	}
	return v.own, nil
}

// frameAtInto is FrameAt decoding into a caller-provided frame.
func (v *Video) frameAtInto(dst *raster.Frame, i int) error {
	n := v.r.Meta().FrameCount
	if i < 0 || i >= n {
		return fmt.Errorf("playback: frame %d out of range [0,%d)", i, n)
	}
	// A cache hit bypasses the decoder entirely and leaves its reference
	// state untouched: the next miss rolls forward from wherever the decoder
	// actually is, exactly as if this call never happened.
	if v.cache.get(i, dst) {
		return nil
	}
	if err := v.seek.FrameInto(dst, readerPackets{v.r}, i); err != nil {
		return err
	}
	v.cache.put(i, dst)
	return nil
}

// EndBehavior selects what a Cursor does at the end of its segment.
type EndBehavior int

// End behaviors.
const (
	HoldLast EndBehavior = iota // keep presenting the final frame
	Loop                        // wrap to the segment start
)

// Cursor plays one segment of a Video step by step. The zero Cursor is not
// usable; construct with NewCursor.
type Cursor struct {
	v       *Video
	seg     container.Chapter
	pos     int // current global frame index
	end     EndBehavior
	entered bool
}

// NewCursor wraps a video. Call EnterSegment (or EnterRange) before reading
// frames.
func NewCursor(v *Video, end EndBehavior) *Cursor {
	return &Cursor{v: v, end: end}
}

// EnterSegment seeks to the start of the named chapter.
func (c *Cursor) EnterSegment(name string) error {
	ch, ok := c.v.ChapterByName(name)
	if !ok {
		return fmt.Errorf("playback: no segment named %q", name)
	}
	c.seg = ch
	c.pos = ch.Start
	c.entered = true
	return nil
}

// EnterRange seeks to an explicit frame range [start, end).
func (c *Cursor) EnterRange(name string, start, end int) error {
	n := c.v.Meta().FrameCount
	if start < 0 || end > n || end <= start {
		return fmt.Errorf("playback: invalid range [%d,%d) of %d frames", start, end, n)
	}
	c.seg = container.Chapter{Name: name, Start: start, End: end}
	c.pos = start
	c.entered = true
	return nil
}

// Seek positions the cursor on an absolute frame index inside the current
// segment — the restore side of a session snapshot, which records the
// segment name plus the exact frame the player was watching, and how a
// session advances many frames at once.
func (c *Cursor) Seek(pos int) error {
	if !c.entered {
		return errors.New("playback: cursor has not entered a segment")
	}
	if pos < c.seg.Start || pos >= c.seg.End {
		return fmt.Errorf("playback: seek to %d outside segment [%d,%d)", pos, c.seg.Start, c.seg.End)
	}
	c.pos = pos
	return nil
}

// Segment returns the current segment.
func (c *Cursor) Segment() container.Chapter { return c.seg }

// Pos returns the current global frame index.
func (c *Cursor) Pos() int { return c.pos }

// AtEnd reports whether the cursor sits on the segment's final frame.
func (c *Cursor) AtEnd() bool { return c.entered && c.pos == c.seg.End-1 }

// Frame decodes the current frame. Like FrameAt, the returned frame is
// recycled by the next decode on the underlying Video.
func (c *Cursor) Frame() (*raster.Frame, error) {
	if !c.entered {
		return nil, errors.New("playback: cursor has not entered a segment")
	}
	return c.v.FrameAt(c.pos)
}

// FrameInto decodes the current frame into dst, reusing dst's pixel buffer
// when it is large enough. Unlike Frame's result, dst aliases nothing the
// Video keeps: a decode converts straight into it and a cache hit copies
// into it, so the caller may hold it across later decodes.
func (c *Cursor) FrameInto(dst *raster.Frame) error {
	if !c.entered {
		return errors.New("playback: cursor has not entered a segment")
	}
	return c.v.frameAtInto(dst, c.pos)
}

// Advance moves to the next frame within the segment. At the segment end it
// loops or holds according to the end behavior; moved reports whether the
// position changed.
func (c *Cursor) Advance() (moved bool, err error) {
	if !c.entered {
		return false, errors.New("playback: cursor has not entered a segment")
	}
	if c.pos+1 < c.seg.End {
		c.pos++
		return true, nil
	}
	if c.end == Loop && c.seg.End-c.seg.Start > 1 {
		c.pos = c.seg.Start
		return true, nil
	}
	return false, nil
}
