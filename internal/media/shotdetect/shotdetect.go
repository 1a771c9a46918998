// Package shotdetect finds shot boundaries in video — the automatic
// segmentation step behind the paper's scenario editor ("video can be
// divided into scenario components by the authoring tool", §4.1).
//
// The detector uses joint color-histogram χ² distances between consecutive
// frames: a hard cut is a spike that towers over its local neighborhood; a
// gradual transition (fade/dissolve) is a sustained drift that never spikes,
// caught by comparing frames a few steps apart ("twin comparison").
// Histograms are computed one frame behind the fetch by a single pipelined
// worker goroutine.
package shotdetect

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/media/raster"
)

// Source supplies frames by index. synth.Film adapts trivially; a
// playback.Video (whose FrameAt recycles its returned frame) should be
// wrapped with SerializedSource. Frames are fetched in index order from one
// goroutine, but a returned frame must remain valid while later frames are
// fetched — the detector processes frames concurrently behind the fetch.
type Source interface {
	Frames() int
	Frame(i int) (*raster.Frame, error)
}

// FuncSource adapts a closure to Source.
type FuncSource struct {
	N int
	F func(i int) (*raster.Frame, error)
}

// Frames returns the frame count.
func (s FuncSource) Frames() int { return s.N }

// Frame renders frame i.
func (s FuncSource) Frame(i int) (*raster.Frame, error) { return s.F(i) }

// SerializedSource adapts a single-goroutine frame producer — typically a
// playback.Video, whose FrameAt recycles its returned frame — into a Source
// safe for the detector's pipeline, whose histogram worker still reads one
// frame while the next is fetched: calls are serialized and each caller
// receives its own copy of the frame.
func SerializedSource(n int, fetch func(i int) (*raster.Frame, error)) Source {
	var mu sync.Mutex
	return FuncSource{N: n, F: func(i int) (*raster.Frame, error) {
		mu.Lock()
		defer mu.Unlock()
		f, err := fetch(i)
		if err != nil {
			return nil, err
		}
		return f.Clone(), nil
	}}
}

// Config tunes the detector. The zero value is not valid; use Defaults and
// override fields as needed.
type Config struct {
	HardThreshold    float64 // absolute χ² step needed for a hard cut
	AdaptiveRatio    float64 // step must also exceed ratio × local mean step
	Window           int     // radius of the local-mean window (frames)
	TwinRadius       int     // lookahead/lookback for gradual detection
	GradualThreshold float64 // twin χ² distance indicating a transition
	MinSceneFrames   int     // minimum spacing between boundaries
	Downsample       int     // integer frame downsample before histograms
}

// Defaults returns the configuration tuned on the synthetic corpus (E1's
// threshold sweep is the tuning experiment).
func Defaults() Config {
	return Config{
		HardThreshold:    0.22,
		AdaptiveRatio:    3.0,
		Window:           8,
		TwinRadius:       6,
		GradualThreshold: 0.30,
		MinSceneFrames:   8,
		Downsample:       2,
	}
}

func (c Config) validate() error {
	if c.HardThreshold <= 0 || c.GradualThreshold <= 0 {
		return errors.New("shotdetect: thresholds must be positive")
	}
	if c.Window < 1 || c.TwinRadius < 1 {
		return errors.New("shotdetect: window and twin radius must be >= 1")
	}
	if c.MinSceneFrames < 1 {
		return errors.New("shotdetect: MinSceneFrames must be >= 1")
	}
	if c.Downsample < 1 {
		return errors.New("shotdetect: Downsample must be >= 1")
	}
	return nil
}

// Boundary is one detected shot change.
type Boundary struct {
	Frame   int     // first frame of the new shot
	Gradual bool    // true when detected as a fade/dissolve
	Score   float64 // detector confidence (χ² magnitude)
}

// Detect runs shot detection over the source.
func Detect(src Source, cfg Config) ([]Boundary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := src.Frames()
	if n < 2 {
		return nil, nil
	}
	hists, err := histograms(src, cfg)
	if err != nil {
		return nil, err
	}
	// Step distances: d[i] = distance between frames i-1 and i, i in [1,n).
	d := make([]float64, n)
	for i := 1; i < n; i++ {
		d[i] = hists[i-1].ChiSquare(hists[i])
	}
	var bounds []Boundary
	// Hard cuts: absolute + adaptive test.
	for i := 1; i < n; i++ {
		if d[i] < cfg.HardThreshold {
			continue
		}
		if d[i] < cfg.AdaptiveRatio*localMean(d, i, cfg.Window) {
			continue
		}
		bounds = append(bounds, Boundary{Frame: i, Score: d[i]})
	}
	// Gradual transitions: twin comparison over ±TwinRadius.
	L := cfg.TwinRadius
	td := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := i-L, i+L
		if a < 0 {
			a = 0
		}
		if b >= n {
			b = n - 1
		}
		td[i] = hists[a].ChiSquare(hists[b])
	}
	inRun := false
	runStart, runPeak := 0, 0
	flushRun := func(end int) {
		// Center of the run; skip if a hard cut explains it.
		c := runPeak
		for _, hb := range bounds {
			if abs(hb.Frame-c) <= L+1 {
				return
			}
		}
		bounds = append(bounds, Boundary{Frame: c, Gradual: true, Score: td[c]})
	}
	for i := 0; i < n; i++ {
		if td[i] >= cfg.GradualThreshold && d[i] < cfg.HardThreshold {
			if !inRun {
				inRun, runStart, runPeak = true, i, i
			}
			if td[i] > td[runPeak] {
				runPeak = i
			}
		} else if inRun {
			if i-runStart >= L/2 { // require a sustained drift
				flushRun(i)
			}
			inRun = false
		}
	}
	if inRun && n-runStart >= L/2 {
		flushRun(n)
	}
	return dedupe(bounds, cfg.MinSceneFrames), nil
}

// histograms computes all frame histograms as a two-stage pipeline: frames
// are fetched sequentially on the calling goroutine — sources backed by a
// seeking decoder (playback.Video) stay on their sequential fast path — while
// one worker goroutine does the downsample/histogram math of the frame
// before. One worker is what pays: over decoded footage the pipeline reads
// 1.5× an inline loop at two CPUs, and with a second worker 1.06× that
// (EXPERIMENTS.md E28). Frames handed to the worker must stay valid after
// the next Frame call; recycling producers adapt via SerializedSource, which
// clones.
func histograms(src Source, cfg Config) ([]raster.Histogram, error) {
	n := src.Frames()
	hists := make([]raster.Histogram, n)
	errs := make([]error, n)
	type item struct {
		i int
		f *raster.Frame
	}
	work := make(chan item, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := range work {
			f := it.f
			if cfg.Downsample > 1 {
				f = f.Downsample(cfg.Downsample)
			}
			hists[it.i] = f.Histogram()
		}
	}()
	for i := 0; i < n; i++ {
		f, err := src.Frame(i)
		if err != nil {
			errs[i] = err
			continue
		}
		work <- item{i, f}
	}
	close(work)
	<-done
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shotdetect: frame %d: %w", i, err)
		}
	}
	return hists, nil
}

// localMean averages the step distances in a window around i, excluding i
// itself — the "how turbulent is this neighborhood anyway" baseline.
func localMean(d []float64, i, w int) float64 {
	lo, hi := i-w, i+w
	if lo < 1 {
		lo = 1
	}
	if hi >= len(d) {
		hi = len(d) - 1
	}
	var sum float64
	var n int
	for j := lo; j <= hi; j++ {
		if j == i {
			continue
		}
		sum += d[j]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// dedupe sorts boundaries and enforces a minimum spacing, keeping the
// higher-scoring boundary when two crowd each other.
func dedupe(bs []Boundary, minGap int) []Boundary {
	if len(bs) == 0 {
		return nil
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].Frame < bs[j].Frame })
	out := bs[:1]
	for _, b := range bs[1:] {
		last := &out[len(out)-1]
		if b.Frame-last.Frame < minGap {
			if b.Score > last.Score {
				*last = b
			}
			continue
		}
		out = append(out, b)
	}
	return out
}

// Segment is a detected scenario candidate: a frame range [Start, End).
type Segment struct {
	Start, End int
}

// SegmentsFromBoundaries converts boundaries into contiguous segments
// covering [0, frameCount).
func SegmentsFromBoundaries(bs []Boundary, frameCount int) []Segment {
	if frameCount <= 0 {
		return nil
	}
	segs := make([]Segment, 0, len(bs)+1)
	prev := 0
	for _, b := range bs {
		if b.Frame <= prev || b.Frame >= frameCount {
			continue
		}
		segs = append(segs, Segment{Start: prev, End: b.Frame})
		prev = b.Frame
	}
	segs = append(segs, Segment{Start: prev, End: frameCount})
	return segs
}

// Metrics summarizes detection quality against ground truth.
type Metrics struct {
	TP, FP, FN int
	Precision  float64
	Recall     float64
	F1         float64
}

// Score matches detected boundaries against ground-truth cut frames with
// the given tolerance (in frames). Each truth cut matches at most one
// detection and vice versa.
func Score(detected []Boundary, truth []int, tol int) Metrics {
	usedDet := make([]bool, len(detected))
	var m Metrics
	for _, t := range truth {
		matched := false
		for i, b := range detected {
			if usedDet[i] {
				continue
			}
			if abs(b.Frame-t) <= tol {
				usedDet[i] = true
				matched = true
				break
			}
		}
		if matched {
			m.TP++
		} else {
			m.FN++
		}
	}
	for _, u := range usedDet {
		if !u {
			m.FP++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
