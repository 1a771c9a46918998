// Package studio is the platform's "camera and capture card": it renders a
// synthetic film through the TKV2 encoder into a seekable TKVC container.
//
// The paper's course designers "select video files from network or video
// cameras" (§4.1); Record is the moment footage enters the system.
package studio

import (
	"repro/internal/media/container"
	"repro/internal/media/synth"
)

// Options configures a recording session.
type Options struct {
	QStep       int  // quantizer step (default 4)
	GOP         int  // I-frame interval (default fps, i.e. one per second)
	SearchRange int  // motion search radius (default 3)
	ShotMarkers bool // add one chapter per ground-truth shot
	// Chapters, when non-nil, is written instead of shot markers — the
	// authoring tool uses it to store scenario segments under its own names.
	Chapters []container.Chapter
}

func (o Options) withDefaults(fps int) Options {
	if o.QStep == 0 {
		o.QStep = 4
	}
	if o.GOP == 0 {
		o.GOP = fps
	}
	if o.SearchRange == 0 {
		o.SearchRange = 3
	}
	return o
}

// Record renders every frame of the film, encodes it and returns a
// finalized TKVC blob. With opts.ShotMarkers it adds one chapter per
// ground-truth shot, named "shot-NNN-<scene>". It is RecordLadder with one
// rung.
func Record(film *synth.Film, opts Options) ([]byte, error) {
	opts = opts.withDefaults(film.FPS)
	rungs, err := RecordLadder(film, opts, []Tier{{QStep: opts.QStep}})
	if err != nil {
		return nil, err
	}
	return rungs[0].Video, nil
}
