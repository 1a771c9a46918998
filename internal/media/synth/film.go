package synth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/media/raster"
)

// Actor is a walking character inside a shot.
type Actor struct {
	Tunic  raster.RGB // body color
	StartX float64    // x position (pixels) at local frame 0
	Speed  float64    // horizontal speed in pixels per frame
	Phase  float64    // bobbing phase offset in [0,1)
}

// Shot is a run of continuous frames filmed in one scene — the paper's
// definition of a scenario building block.
type Shot struct {
	Scene    SceneKind
	Frames   int     // duration of this shot in frames (>= 1)
	PanSpeed float64 // camera pan in pixels per frame
	Actors   []Actor
	FadeIn   int // frames of cross-fade from the previous shot (0 = hard cut)
	NoiseAmp int // sensor noise amplitude per channel
	Seed     uint64
}

// Cut is a ground-truth shot boundary.
type Cut struct {
	Frame     int  // first frame of the new shot
	Gradual   bool // true for a fade, false for a hard cut
	Span      int  // transition length in frames (0 for hard cuts)
	SceneFrom SceneKind
	SceneTo   SceneKind
}

// Film is an ordered list of shots plus global raster parameters. It renders
// any frame on demand as a pure function of the spec — the property the
// playback engine's random-access seek requires.
type Film struct {
	W, H   int
	FPS    int
	Shots  []Shot
	starts []int // starts[i] = global index of first frame of shot i
	total  int
	keys   []uint64 // cellKey of every 2×2 noise cell, row-major; nil when no shot is noisy
}

// NewFilm assembles a film from explicit shots. It panics if any shot is
// degenerate, because a film with zero-length shots has no well-defined
// ground truth.
func NewFilm(w, h, fps int, shots []Shot) *Film {
	if w <= 0 || h <= 0 || fps <= 0 {
		panic(fmt.Sprintf("synth: invalid film parameters %dx%d@%d", w, h, fps))
	}
	if len(shots) == 0 {
		panic("synth: film needs at least one shot")
	}
	f := &Film{W: w, H: h, FPS: fps, Shots: shots}
	f.starts = make([]int, len(shots))
	acc := 0
	for i, s := range shots {
		if s.Frames < 1 {
			panic(fmt.Sprintf("synth: shot %d has %d frames", i, s.Frames))
		}
		if i > 0 && s.FadeIn >= s.Frames {
			panic(fmt.Sprintf("synth: shot %d fade (%d) >= duration (%d)", i, s.FadeIn, s.Frames))
		}
		f.starts[i] = acc
		acc += s.Frames
		if s.NoiseAmp > 0 && f.keys == nil {
			f.keys = make([]uint64, ((w+1)/2)*((h+1)/2))
			for c := range f.keys {
				f.keys[c] = cellKey(uint64(c))
			}
		}
	}
	f.total = acc
	return f
}

// FrameCount returns the total number of frames in the film.
func (f *Film) FrameCount() int { return f.total }

// DurationSeconds returns the film length in seconds.
func (f *Film) DurationSeconds() float64 { return float64(f.total) / float64(f.FPS) }

// ShotIndexAt returns the index of the shot containing global frame i.
// It panics if i is out of range.
func (f *Film) ShotIndexAt(i int) int {
	if i < 0 || i >= f.total {
		panic(fmt.Sprintf("synth: frame %d out of range [0,%d)", i, f.total))
	}
	// Find the last start <= i.
	k := sort.Search(len(f.starts), func(j int) bool { return f.starts[j] > i })
	return k - 1
}

// ShotStart returns the global index of the first frame of shot k.
func (f *Film) ShotStart(k int) int { return f.starts[k] }

// Cuts returns the ground-truth shot boundaries (one per shot after the
// first).
func (f *Film) Cuts() []Cut {
	cuts := make([]Cut, 0, len(f.Shots)-1)
	for i := 1; i < len(f.Shots); i++ {
		s := f.Shots[i]
		cuts = append(cuts, Cut{
			Frame:     f.starts[i],
			Gradual:   s.FadeIn > 0,
			Span:      s.FadeIn,
			SceneFrom: f.Shots[i-1].Scene,
			SceneTo:   s.Scene,
		})
	}
	return cuts
}

// Render draws global frame i into a freshly allocated frame. Frames may be
// requested in any order.
func (f *Film) Render(i int) *raster.Frame {
	fr := new(raster.Frame)
	f.RenderInto(fr, i)
	return fr
}

// RenderInto draws global frame i into dst, pixel-identical to Render. dst is
// resized to the film's size and its pixel buffer reused when large enough,
// so a recorder that recycles one frame allocates nothing per frame — except
// on a cross-fade frame, which draws the incoming shot into a scratch frame.
func (f *Film) RenderInto(dst *raster.Frame, i int) {
	k := f.ShotIndexAt(i)
	local := i - f.starts[k]
	n := 3 * f.W * f.H
	if cap(dst.Pix) < n {
		dst.Pix = make([]uint8, n)
	}
	dst.W, dst.H, dst.Pix = f.W, f.H, dst.Pix[:n]
	// Cross-fade from the previous shot during the first FadeIn frames.
	if k > 0 && f.Shots[k].FadeIn > 0 && local < f.Shots[k].FadeIn {
		prevLocal := f.Shots[k-1].Frames + local // extrapolated continuation
		f.renderShot(dst, k-1, prevLocal)
		next := raster.New(f.W, f.H)
		f.renderShot(next, k, local)
		alpha := float64(local+1) / float64(f.Shots[k].FadeIn+1)
		dst.Mix(next, alpha)
	} else {
		f.renderShot(dst, k, local)
	}
	// Sensor noise last, so it rides on top of transitions too.
	s := f.Shots[k]
	if s.NoiseAmp > 0 {
		f.addNoise(dst, s.Seed, uint64(i), s.NoiseAmp)
	}
}

// renderShot draws shot k at local frame t (which may exceed the shot's
// duration during fade extrapolation) over every pixel of fr.
func (f *Film) renderShot(fr *raster.Frame, k, t int) {
	s := f.Shots[k]
	top, bottom, _ := scenePalette(s.Scene)
	horizon := f.H * 2 / 3
	// Background: sky/wall gradient above the horizon, ground below.
	for y := 0; y < horizon; y++ {
		c := top.Lerp(bottom, 0.25*float64(y)/float64(horizon))
		fr.HLine(0, f.W-1, y, c)
	}
	for y := horizon; y < f.H; y++ {
		c := bottom.Lerp(raster.Black, 0.3*float64(y-horizon)/float64(f.H-horizon+1))
		fr.HLine(0, f.W-1, y, c)
	}
	pan := int(s.PanSpeed * float64(t))
	drawProps(fr, s.Scene, pan)
	// Actors walk and bob.
	for _, a := range s.Actors {
		x := int(a.StartX + a.Speed*float64(t))
		// wrap walkers around the frame with a margin
		period := f.W + 40
		x = ((x+20)%period+period)%period - 20
		bob := int(2 * unitWave(a.Phase+float64(t)/24))
		drawActor(fr, x, horizon+6-bob, a.Tunic)
	}
}

// addNoise applies per-2×2-cell sensor noise, deterministic in (seed, frame).
// A cell's samples are one run of up to six bytes in each of its two rows.
// A row of cells is done in chunks of up to 64: the chunk's noise first,
// then the noise onto the runs of the top row and of the bottom one.
func (f *Film) addNoise(fr *raster.Frame, seed, frame uint64, amp int) {
	frameKey := seed ^ hash64(frame)
	r := newNoiseRange(amp)
	keys := f.keys
	stride := 3 * fr.W
	var adds, flips [64]uint64
	for y := 0; y < fr.H; y += 2 {
		top := fr.Pix[y*stride : (y+1)*stride]
		bottom := top[:0] // empty under the last row of an odd height
		if y+1 < fr.H {
			bottom = fr.Pix[(y+1)*stride : (y+2)*stride]
		}
		row := keys[:(fr.W+1)/2]
		keys = keys[len(row):]
		for c := 0; c < len(row); c += len(adds) {
			n := min(len(adds), len(row)-c)
			for i, key := range row[c : c+n] {
				adds[i], flips[i] = noiseLanes(cellNoise(frameKey, key, r))
			}
			addRuns(top[6*c:], adds[:n], flips[:n])
			addRuns(bottom[min(6*c, len(bottom)):], adds[:n], flips[:n])
		}
	}
}

// noiseLanes returns what adds noise n to six samples, one per byte of the
// six low bytes of a word, saturating at 0 and 255: |n|, capped at 255 (no
// sample moves further), and the flip, all ones where n is negative — a
// saturating subtraction is the saturating addition to the complement,
// complemented. The two high bytes are zero in both.
func noiseLanes(n int) (add, flip uint64) {
	const six = 0x0000_0101_0101_0101
	s := n >> (strconv.IntSize - 1)
	return uint64(min((n^s)-s, 255)) * six, uint64(s) & (six * 0xff)
}

// addRuns adds the noise of cell i, adds[i] between two flips[i], to the
// six samples px[6i:6i+6], or what is left of px for the last cell of an
// odd width. Four cells are 24 bytes, three words whose lanes are shifted
// out of the cells' own; any further cells go one at a time through a copy.
func addRuns(px []uint8, adds, flips []uint64) {
	le := binary.LittleEndian
	for len(adds) >= 4 && len(flips) >= 4 && len(px) >= 24 {
		a, b, c, d := adds[0], adds[1], adds[2], adds[3]
		fa, fb, fc, fd := flips[0], flips[1], flips[2], flips[3]
		le.PutUint64(px[0:8], addBytes(le.Uint64(px[0:8]), a|b<<48, fa|fb<<48))
		le.PutUint64(px[8:16], addBytes(le.Uint64(px[8:16]), b>>16|c<<32, fb>>16|fc<<32))
		le.PutUint64(px[16:24], addBytes(le.Uint64(px[16:24]), c>>32|d<<16, fc>>32|fd<<16))
		px, adds, flips = px[24:], adds[4:], flips[4:]
	}
	for i, a := range adds {
		var run [8]uint8
		n := copy(run[:6], px)
		le.PutUint64(run[:], addBytes(le.Uint64(run[:]), a, flips[i]))
		px = px[copy(px, run[:n]):]
	}
}

// addBytes adds each byte of add to the same byte of v ^ flip, saturating
// at 255, and returns the sums ^ flip.
func addBytes(v, add, flip uint64) uint64 {
	const low7 = 0x7f7f_7f7f_7f7f_7f7f
	v ^= flip
	s := (v & low7) + (add & low7)       // each byte's low seven bits summed
	carry := (v&add | (v|add)&s) &^ low7 // each byte's carry out
	return (s ^ (v^add)&^low7 | (carry>>7)*0xff) ^ flip
}

// Spec parameterizes random film generation for the experiments.
type Spec struct {
	W, H, FPS     int
	Shots         int         // number of shots
	MinShotFrames int         // shortest shot length
	MaxShotFrames int         // longest shot length
	FadeFraction  float64     // fraction of boundaries that are gradual fades
	FadeFrames    int         // fade length when gradual
	NoiseAmp      int         // sensor noise amplitude
	Seed          int64       // master seed; same seed → same film
	Scenes        []SceneKind // allowed scene kinds (nil = all)
}

// Generate builds a random film from the spec. Adjacent shots always use
// different scene kinds so every boundary is a real, detectable content
// change — matching the paper's "same place or characters" segmentation
// criterion.
func Generate(spec Spec) *Film {
	if spec.Shots < 1 {
		panic("synth: spec needs at least one shot")
	}
	if spec.MinShotFrames < 1 || spec.MaxShotFrames < spec.MinShotFrames {
		panic("synth: invalid shot length range")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	kinds := spec.Scenes
	if len(kinds) == 0 {
		kinds = AllSceneKinds()
	}
	shots := make([]Shot, spec.Shots)
	prevKind := SceneKind(-1)
	for i := range shots {
		kind := kinds[rng.Intn(len(kinds))]
		for len(kinds) > 1 && kind == prevKind {
			kind = kinds[rng.Intn(len(kinds))]
		}
		prevKind = kind
		frames := spec.MinShotFrames
		if spec.MaxShotFrames > spec.MinShotFrames {
			frames += rng.Intn(spec.MaxShotFrames - spec.MinShotFrames + 1)
		}
		fade := 0
		if i > 0 && rng.Float64() < spec.FadeFraction {
			fade = spec.FadeFrames
			if fade >= frames {
				fade = frames - 1
			}
		}
		nActors := rng.Intn(3)
		actors := make([]Actor, nActors)
		for a := range actors {
			actors[a] = Actor{
				Tunic:  raster.RGB{R: uint8(60 + rng.Intn(180)), G: uint8(60 + rng.Intn(180)), B: uint8(60 + rng.Intn(180))},
				StartX: rng.Float64() * float64(spec.W),
				Speed:  (rng.Float64() - 0.5) * 1.6,
				Phase:  rng.Float64(),
			}
		}
		shots[i] = Shot{
			Scene:    kind,
			Frames:   frames,
			PanSpeed: (rng.Float64() - 0.5) * 0.8,
			Actors:   actors,
			FadeIn:   fade,
			NoiseAmp: spec.NoiseAmp,
			Seed:     uint64(spec.Seed) ^ hash64(uint64(i)),
		}
	}
	return NewFilm(spec.W, spec.H, spec.FPS, shots)
}

// SceneShot is a human-authored shot description used by the examples:
// a scene kind plus a duration in seconds.
type SceneShot struct {
	Kind    SceneKind
	Seconds float64
	Fade    bool // cross-fade into this shot
}

// FromScenes builds a film from an explicit storyboard. The examples use it
// to shoot the paper's classroom/market footage.
func FromScenes(w, h, fps int, seed int64, scenes []SceneShot) *Film {
	rng := rand.New(rand.NewSource(seed))
	shots := make([]Shot, len(scenes))
	for i, sc := range scenes {
		frames := int(sc.Seconds * float64(fps))
		if frames < 1 {
			frames = 1
		}
		fade := 0
		if sc.Fade && i > 0 {
			fade = fps / 2
			if fade >= frames {
				fade = frames - 1
			}
		}
		shots[i] = Shot{
			Scene:    sc.Kind,
			Frames:   frames,
			PanSpeed: (rng.Float64() - 0.5) * 0.5,
			Actors: []Actor{{
				Tunic:  raster.RGB{R: uint8(80 + rng.Intn(150)), G: uint8(80 + rng.Intn(150)), B: uint8(80 + rng.Intn(150))},
				StartX: rng.Float64() * float64(w),
				Speed:  0.6,
				Phase:  rng.Float64(),
			}},
			FadeIn:   fade,
			NoiseAmp: 2,
			Seed:     uint64(seed) ^ hash64(uint64(i)),
		}
	}
	return NewFilm(w, h, fps, shots)
}
