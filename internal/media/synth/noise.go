// Package synth generates deterministic synthetic footage for the IVGBL
// platform.
//
// The paper's authors shot real video ("select video files from network or
// video cameras", §4.1). This package is the substitution: scripted scenes
// (classroom, market, street, museum, ...) rendered shot-by-shot with sprite
// motion, camera pans, hard cuts, fades and sensor noise. Unlike real film,
// a synthesized Film knows its exact shot boundaries, which turns shot
// detection (experiment E1) into a measurable problem.
//
// Rendering is a pure function of (film spec, frame index): any frame can be
// rendered out of order, which the playback engine's seek path relies on.
package synth

import (
	"math"
	"math/bits"
)

// hash64 is SplitMix64, a tiny high-quality integer mixer. All per-frame
// "randomness" (sensor noise, flicker) derives from it so that rendering
// frame i never depends on having rendered frame i-1.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noise returns a deterministic pseudo-random value in [-amp, +amp] for the
// given (seed, frame, cell) coordinate: what addNoise adds to the cell.
func noise(seed, frame uint64, cell uint64, amp int) int {
	return cellNoise(seed^hash64(frame), cellKey(cell), newNoiseRange(amp))
}

// cellKey is the part of a cell's noise that no frame changes. A noisy Film
// keeps every cell's key, so a frame hashes each cell once, not twice.
func cellKey(cell uint64) uint64 { return hash64(cell * 0x5851f42d4c957f2d) }

// cellNoise is noise with the part that is the same for every cell of a
// frame, frameKey = seed ^ hash64(frame), and the cell's key already mixed.
func cellNoise(frameKey, key uint64, r noiseRange) int {
	return r.of(hash64(frameKey ^ key))
}

// noiseRange maps a hash h onto [-amp, +amp] as h mod d − amp, d = 2·amp+1,
// with a multiply where the remainder would divide: m = ⌊(2^64−1)/d⌋ lies in
// (2^64/d − 1, 2^64/d], so q = ⌊h·m / 2^64⌋ is ⌊h/d⌋ or one less, and h − q·d
// is the remainder or the remainder plus d. Exact for every amp ≥ 0.
type noiseRange struct {
	d, m uint64
	amp  int
}

func newNoiseRange(amp int) noiseRange {
	d := uint64(2*amp + 1)
	return noiseRange{d: d, m: math.MaxUint64 / d, amp: amp}
}

func (r noiseRange) of(h uint64) int {
	q, _ := bits.Mul64(h, r.m)
	rem := h - q*r.d
	if rem >= r.d {
		rem -= r.d
	}
	return int(rem) - r.amp
}

// unitWave returns a deterministic smooth value in [0,1) for phase p —
// a triangle wave, used for sprite bobbing and camera sway without
// importing math.
func unitWave(p float64) float64 {
	p -= float64(int64(p)) // frac
	if p < 0 {
		p += 1
	}
	if p < 0.5 {
		return 2 * p
	}
	return 2 * (1 - p)
}
