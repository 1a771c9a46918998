// StreamPlayer drives a RemoteGame through its segments the way a
// learner's player would: fetch ahead of a virtual playhead, let the ABR
// picker choose each segment's quality rung from the buffer level, and
// account every stall. Fetch timing is wall-clock — faultnet's bandwidth
// caps and latency are real-time effects — while playback is a virtual
// playhead advancing at Speed media-seconds per wall-second, so a test
// can play a 30-second course in a few wall seconds and still exercise
// the real buffer dynamics.
package netstream

import (
	"fmt"
	"time"
)

// StreamPlayer replays a course's segments in chapter order through the
// adaptive fetch path.
type StreamPlayer struct {
	Game *RemoteGame
	// Speed is how many media-seconds the playhead consumes per
	// wall-second (default 1 — real time).
	Speed float64
	// DecodeFrames additionally decodes each segment's first frame as
	// it lands, proving the fetched tier's bytes actually play.
	DecodeFrames bool
}

// SegmentPlay records one segment's fetch: which tier the picker chose,
// what it cost, and how long it took ("" bytes/fetch for segments that
// were already buffered, e.g. the start segment fetched at open).
type SegmentPlay struct {
	Segment string
	Tier    string
	Bytes   int
	Fetch   time.Duration
}

// PlayReport is one playback session's outcome.
type PlayReport struct {
	Segments  int
	Rebuffers int           // fetches that outran the buffer mid-playback
	Stalled   time.Duration // wall time the playhead spent frozen (startup excluded)
	Startup   time.Duration // wall time fetching the first segment (when not prefetched)
	TierPicks map[string]int
	Stats     Stats // accumulated transfer stats across all fetches
	Plays     []SegmentPlay
}

// Play streams every chapter in order, returning the session report.
func (sp *StreamPlayer) Play() (*PlayReport, error) {
	g := sp.Game
	abr := g.abr
	speed := sp.Speed
	if speed <= 0 {
		speed = 1
	}
	meta := g.Meta()
	if meta.FPS <= 0 {
		return nil, fmt.Errorf("netstream: cannot play %d fps video", meta.FPS)
	}
	fps := float64(meta.FPS)
	rep := &PlayReport{TierPicks: map[string]int{}}
	buffer := 0.0 // media-seconds fetched but not yet played
	for i, ch := range g.Chapters() {
		dur := float64(ch.End-ch.Start) / fps
		if g.HasSegment(ch.Name) {
			// Already buffered (the open path prefetched it): plays for
			// free at whatever tier landed.
			tier, _ := g.SegmentTier(ch.Name)
			rep.Segments++
			rep.TierPicks[tier]++
			rep.Plays = append(rep.Plays, SegmentPlay{Segment: ch.Name, Tier: tier})
			buffer += dur
			continue
		}
		tier := abr.Pick(buffer)
		st, err := g.FetchSegmentTier(ch.Name, tier)
		rep.Stats.Add(st)
		if err != nil {
			return rep, fmt.Errorf("netstream: streaming segment %q (tier %q): %w", ch.Name, tier, err)
		}
		abr.Observe(st.BytesFetched, st.Elapsed)
		if i == 0 {
			// Nothing is playing yet; the first fetch is startup, not a
			// rebuffer.
			rep.Startup = st.Elapsed
		} else {
			drained := st.Elapsed.Seconds() * speed
			if drained > buffer {
				rep.Rebuffers++
				rep.Stalled += time.Duration((drained - buffer) / speed * float64(time.Second))
			}
			if buffer -= drained; buffer < 0 {
				buffer = 0
			}
		}
		buffer += dur
		rep.Segments++
		rep.TierPicks[tier]++
		rep.Plays = append(rep.Plays, SegmentPlay{Segment: ch.Name, Tier: tier, Bytes: st.BytesFetched, Fetch: st.Elapsed})
		if sp.DecodeFrames {
			if _, err := g.FrameAt(ch.Start); err != nil {
				return rep, fmt.Errorf("netstream: decoding segment %q (tier %q): %w", ch.Name, tier, err)
			}
		}
	}
	return rep, nil
}
