package playback

import (
	"fmt"

	"repro/internal/media/raster"
	"repro/internal/media/vcodec"
)

// PacketSource is the run of encoded packets a Seeker decodes from: a whole
// container (Video) or one fetched byte chunk of one (netstream.RemoteGame).
// Packets are indexed by global frame number; the returned slice is only
// read.
type PacketSource interface {
	PacketAt(j int) ([]byte, error)
	// KeyframeAtOrBefore returns the nearest I-frame at or before frame i —
	// the decode entry point for a seek.
	KeyframeAtOrBefore(i int) (int, error)
}

// Seeker is the seek engine every decode path shares: a persistent decoder
// plus the index of the frame it would produce next. Reading that frame
// costs one decode; a backward seek, or a forward jump across a keyframe,
// restarts from the nearest keyframe at or before the target and rolls
// forward without converting the skipped frames to RGB; any failure forgets
// the position, so the next read re-seeks from a keyframe instead of
// predicting against a reference that may have moved.
//
// The position is only meaningful against the source it was reached on:
// Reset before decoding from a different source. Not safe for concurrent
// use.
type Seeker struct {
	dec *vcodec.Decoder
	// pos is the index of the next frame the decoder would produce, or -1
	// if the decoder has no reference state.
	pos     int
	decoded int
}

// NewSeeker prepares a decoder positioned nowhere: the first read seeks.
func NewSeeker() *Seeker {
	return &Seeker{dec: vcodec.NewDecoder(), pos: -1}
}

// Reset forgets the decode position, forcing the next FrameInto to restart
// from a keyframe.
func (s *Seeker) Reset() {
	s.dec.Reset()
	s.pos = -1
}

// Decoded reports how many packets the Seeker has decoded so far, presented
// or rolled over. Tests pin seek cost with it as an exact count.
func (s *Seeker) Decoded() int { return s.decoded }

// FrameInto decodes frame i of src into dst.
func (s *Seeker) FrameInto(dst *raster.Frame, src PacketSource, i int) error {
	start := s.pos
	if s.pos == -1 || i < s.pos {
		k, err := src.KeyframeAtOrBefore(i)
		if err != nil {
			return err
		}
		s.dec.Reset()
		start = k
	} else if i > s.pos {
		// Rolling forward: if there is a keyframe between pos and i, jumping
		// to it skips useless decodes.
		k, err := src.KeyframeAtOrBefore(i)
		if err != nil {
			return err
		}
		if k > s.pos {
			s.dec.Reset()
			start = k
		}
	}
	for j := start; j <= i; j++ {
		data, err := src.PacketAt(j)
		if err != nil {
			s.Reset()
			return err
		}
		s.decoded++
		if j < i {
			// Roll-forward frames are never presented; advance the decoder
			// reference without converting to RGB.
			err = s.dec.Advance(data)
		} else {
			err = s.dec.DecodeInto(dst, data)
		}
		if err != nil {
			// The decoder reference may have advanced past s.pos before the
			// failure; drop both so the next call re-seeks from a keyframe
			// instead of predicting against the wrong reference.
			s.Reset()
			return fmt.Errorf("playback: decoding frame %d: %w", j, err)
		}
	}
	s.pos = i + 1
	return nil
}
