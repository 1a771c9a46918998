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
// given (seed, frame, cell) coordinate.
func noise(seed, frame uint64, cell uint64, amp int) int {
	return cellNoise(seed^hash64(frame), cell, amp)
}

// cellNoise is noise with the part that is the same for every cell of a
// frame, seed ^ hash64(frame), already mixed.
func cellNoise(frameKey, cell uint64, amp int) int {
	if amp == 0 {
		return 0
	}
	h := hash64(frameKey ^ hash64(cell*0x5851f42d4c957f2d))
	return int(h%uint64(2*amp+1)) - amp
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
