// Command vgbl-segment runs the scenario editor's automatic shot
// segmentation (paper §4.1) standalone: point it at a TKVC video (or let it
// synthesize one) and it prints the detected scenario boundaries, plus
// precision/recall when ground truth is available.
//
// Usage:
//
//	vgbl-segment -in video.tkvc
//	vgbl-segment -synth-shots 8 -seed 7       # synthesize, detect, score
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/media/playback"
	"repro/internal/media/shotdetect"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

// videoSource adapts a playback.Video (single-goroutine, frame-recycling)
// into a shot-detection source whose frames outlive the next decode: the
// detector's histogram worker still holds one while the next is fetched.
func videoSource(v *playback.Video) shotdetect.Source {
	return shotdetect.SerializedSource(v.Meta().FrameCount, v.FrameAt)
}

func main() {
	in := flag.String("in", "", "TKVC video to segment")
	synthShots := flag.Int("synth-shots", 0, "synthesize a film with this many shots instead")
	seed := flag.Int64("seed", 7, "synthesis seed")
	fades := flag.Float64("fades", 0.3, "fraction of gradual transitions in synthetic film")
	threshold := flag.Float64("threshold", shotdetect.Defaults().HardThreshold, "hard-cut χ² threshold")
	flag.Parse()

	cfg := shotdetect.Defaults()
	cfg.HardThreshold = *threshold

	var src shotdetect.Source
	var truth []int
	switch {
	case *in != "":
		blob, err := os.ReadFile(*in)
		if err != nil {
			fail(err)
		}
		v, err := playback.OpenVideo(blob, 0)
		if err != nil {
			fail(err)
		}
		src = videoSource(v)
		fmt.Printf("video: %dx%d, %d frames @ %d fps\n",
			v.Meta().Width, v.Meta().Height, v.Meta().FrameCount, v.Meta().FPS)
	case *synthShots > 0:
		film := synth.Generate(synth.Spec{
			W: 160, H: 120, FPS: 12,
			Shots: *synthShots, MinShotFrames: 18, MaxShotFrames: 36,
			FadeFraction: *fades, FadeFrames: 8, NoiseAmp: 2, Seed: *seed,
		})
		// Round-trip through the codec so detection sees decoded pixels,
		// as it would in the authoring tool.
		blob, err := studio.Record(film, studio.Options{QStep: 6})
		if err != nil {
			fail(err)
		}
		v, err := playback.OpenVideo(blob, 0)
		if err != nil {
			fail(err)
		}
		src = videoSource(v)
		for _, c := range film.Cuts() {
			truth = append(truth, c.Frame)
		}
		fmt.Printf("synthetic film: %d shots, %d frames, %d ground-truth cuts\n",
			*synthShots, film.FrameCount(), len(truth))
	default:
		fail(fmt.Errorf("pass -in video.tkvc or -synth-shots N"))
	}

	bounds, err := shotdetect.Detect(src, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\ndetected %d boundaries (threshold %.2f):\n", len(bounds), cfg.HardThreshold)
	for _, b := range bounds {
		kind := "cut "
		if b.Gradual {
			kind = "fade"
		}
		fmt.Printf("  frame %5d  %s  score %.3f\n", b.Frame, kind, b.Score)
	}
	segs := shotdetect.SegmentsFromBoundaries(bounds, src.Frames())
	fmt.Printf("\nscenario segments (%d):\n", len(segs))
	for i, s := range segs {
		fmt.Printf("  scene-%03d  [%5d, %5d)  %d frames\n", i, s.Start, s.End, s.End-s.Start)
	}
	if truth != nil {
		m := shotdetect.Score(bounds, truth, 3)
		fmt.Printf("\nvs ground truth (tolerance 3): P=%.2f R=%.2f F1=%.2f (TP=%d FP=%d FN=%d)\n",
			m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vgbl-segment:", err)
	os.Exit(1)
}
