// Package playback decodes TKVC containers for presentation.
//
// It provides three layers:
//
//   - Video: random access to decoded frames (seek = nearest I-frame +
//     roll-forward), the capability behind the paper's "switch to other
//     video segments" interaction (§4.3).
//   - Cursor: step-driven playback confined to one segment (scenario),
//     with loop/hold end behavior. The game runtime advances a Cursor
//     one tick at a time.
//   - Play: a real-time pipeline that prefetches decoded frames through a
//     channel and paces delivery against the wall clock.
package playback

import (
	"context"
	"errors"
	"fmt"
	"time"

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

// OpenVideo parses blob and prepares a decoder with the given worker count
// (<=0 means all CPUs).
func OpenVideo(blob []byte, decodeWorkers int) (*Video, error) {
	r, err := container.Open(blob)
	if err != nil {
		return nil, err
	}
	return NewVideo(r, decodeWorkers), nil
}

// NewVideo prepares a decoder over an already-parsed container: how many
// consumers of one blob share its one parse and checksum. A Reader is never
// written after Open, so any number of Videos may read it at once.
func NewVideo(r *container.Reader, decodeWorkers int) *Video {
	return &Video{r: r, seek: NewSeeker(decodeWorkers), own: &raster.Frame{}}
}

// Close releases the decoder's worker pool promptly (a finalizer releases
// it otherwise). The Video remains usable; further decodes run inline.
func (v *Video) Close() { v.seek.Close() }

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
// segment name plus the exact frame the player was watching.
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

// PlayOptions configures the real-time pipeline.
type PlayOptions struct {
	Prefetch int  // decoded-frame channel depth (default 4)
	Realtime bool // pace frames against the wall clock at container FPS
}

// PlayStats reports what a Play call delivered.
type PlayStats struct {
	Frames  int           // frames delivered to the callback
	Late    int           // frames that missed their presentation deadline
	Elapsed time.Duration // wall time spent inside Play
}

// Play decodes frames [start, end) through a prefetching pipeline and hands
// each to fn. A decode goroutine runs ahead by up to Prefetch frames while
// fn (the "presentation" side) consumes. fn returning an error, or ctx
// cancellation, stops playback early.
//
// Frames handed to fn come from a recycled ring and are only valid for the
// duration of the callback; Clone to retain one.
func Play(ctx context.Context, v *Video, start, end int, opts PlayOptions, fn func(i int, f *raster.Frame) error) (PlayStats, error) {
	n := v.Meta().FrameCount
	if start < 0 || end > n || end < start {
		return PlayStats{}, fmt.Errorf("playback: invalid range [%d,%d) of %d frames", start, end, n)
	}
	if opts.Prefetch <= 0 {
		opts.Prefetch = 4
	}
	type item struct {
		i int
		f *raster.Frame
	}
	frames := make(chan item, opts.Prefetch)
	decodeErr := make(chan error, 1)
	dctx, cancel := context.WithCancel(ctx)
	// Join the decode goroutine on every exit path: it drives the Video's
	// single-goroutine decoder, so Play must not return (and hand the Video
	// back to the caller) while a decode is still in flight.
	done := make(chan struct{})
	defer func() {
		cancel()
		<-done
	}()
	// Decoded frames are recycled through a fixed ring: up to Prefetch
	// frames sit in the channel and one is with the consumer, so Prefetch+2
	// buffers guarantee the decoder never overwrites a live frame.
	ring := make([]*raster.Frame, opts.Prefetch+2)
	for k := range ring {
		ring[k] = &raster.Frame{}
	}
	go func() {
		defer close(done)
		defer close(frames)
		for i := start; i < end; i++ {
			f := ring[(i-start)%len(ring)]
			if err := v.frameAtInto(f, i); err != nil {
				decodeErr <- err
				return
			}
			select {
			case frames <- item{i, f}:
			case <-dctx.Done():
				return
			}
		}
	}()
	stats := PlayStats{}
	began := time.Now()
	frameDur := time.Second / time.Duration(v.Meta().FPS)
	next := began
	for {
		select {
		case <-ctx.Done():
			stats.Elapsed = time.Since(began)
			return stats, ctx.Err()
		case err := <-decodeErr:
			stats.Elapsed = time.Since(began)
			return stats, err
		case it, ok := <-frames:
			if !ok {
				// Drain a decode error that may have raced with close.
				select {
				case err := <-decodeErr:
					stats.Elapsed = time.Since(began)
					return stats, err
				default:
				}
				stats.Elapsed = time.Since(began)
				return stats, nil
			}
			if opts.Realtime {
				now := time.Now()
				if now.Before(next) {
					timer := time.NewTimer(next.Sub(now))
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
						stats.Elapsed = time.Since(began)
						return stats, ctx.Err()
					}
				} else if now.Sub(next) > frameDur/2 {
					stats.Late++
				}
				next = next.Add(frameDur)
			}
			if err := fn(it.i, it.f); err != nil {
				stats.Elapsed = time.Since(began)
				return stats, err
			}
			stats.Frames++
		}
	}
}
