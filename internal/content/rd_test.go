package content

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/vcodec"
)

// ladderRD pins what each rung of each demo's default ladder costs and what
// it looks like: the mean packet bytes per frame, and the mean and the
// minimum PSNR of every decoded frame against the synthetic source it was
// encoded from (Film.Render). The pixel goldens say whether a rung changed;
// these rows say by how much, so a codec change that means to move decisions
// states its rate–distortion trade here. A row is exact while the rung's
// pixels are golden (amd64 only, like the other goldens); recorded on
// linux/amd64, go1.24, and the lower rungs' rows again when they began to
// refine the lead's motion vectors (EXPERIMENTS.md E49 has both tables);
// the bytes columns alone were re-recorded for the TKV2 row layout (E50),
// whose PSNR columns are the E49 ones.
var ladderRD = map[string][4]string{
	"classroom": {
		"3674.2 B/frame, mean 38.634 dB, min 36.950 dB",
		"1070.4 B/frame, mean 37.838 dB, min 36.376 dB",
		"639.4 B/frame, mean 36.221 dB, min 34.869 dB",
		"478.2 B/frame, mean 32.755 dB, min 31.445 dB",
	},
	"museum": {
		"3759.8 B/frame, mean 38.351 dB, min 35.755 dB",
		"1122.0 B/frame, mean 37.474 dB, min 35.115 dB",
		"650.1 B/frame, mean 36.049 dB, min 33.972 dB",
		"474.7 B/frame, mean 32.808 dB, min 30.751 dB",
	},
	"street": {
		"4110.9 B/frame, mean 36.207 dB, min 32.709 dB",
		"1328.8 B/frame, mean 35.510 dB, min 32.116 dB",
		"762.8 B/frame, mean 33.986 dB, min 30.507 dB",
		"524.0 B/frame, mean 30.898 dB, min 27.535 dB",
	},
}

// rdRow formats one rung's rate and distortion the way ladderRD records it.
func rdRow(bytesPerFrame, meanPSNR, minPSNR float64) string {
	return fmt.Sprintf("%.1f B/frame, mean %.3f dB, min %.3f dB", bytesPerFrame, meanPSNR, minPSNR)
}

func TestLadderRD(t *testing.T) {
	requireGoldenArch(t)
	blobs, err := goldenPackages()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenCourses {
		film := g.course().Film
		var src raster.Frame
		for k, tier := range studio.DefaultLadder() {
			bytes, sum, low := 0, 0.0, math.Inf(1)
			n, err := eachDecodedFrame(blobs[i], tier.Name, func(j int, pkt []byte, frame *raster.Frame) {
				film.RenderInto(&src, j)
				psnr := raster.PSNR(&src, frame)
				bytes += len(pkt)
				sum += psnr
				low = min(low, psnr)
			})
			if err != nil {
				t.Fatalf("%s tier %q: %v", g.name, tier.Name, err)
			}
			got := rdRow(float64(bytes)/float64(n), sum/float64(n), low)
			if want := ladderRD[g.name][k]; got != want {
				t.Errorf("%s tier %q (q%d): %s, golden %q", g.name, tier.Name, tier.QStep, got, want)
			}
		}
	}
}

// deadZoneCounts pins, per rung of each demo's default ladder, how many
// motion-compensated candidates the encoder transforms and how many it takes
// as empty from their search SAD alone (vcodec's dead-zone exit), in that
// order: the record's work as a count, which a change to the encoder's
// decisions or to the exit's bound moves and a timing cannot show. Like the
// RD rows it is exact while the rungs' pixels are golden (EXPERIMENTS.md E55).
var deadZoneCounts = map[string][4][2]int{
	"classroom": {{24167, 2610}, {24588, 4062}, {8348, 20908}, {2684, 28780}},
	"museum":    {{32780, 3294}, {32822, 3367}, {11531, 26601}, {3697, 40087}},
	"street":    {{21961, 3118}, {22056, 3068}, {10837, 15298}, {4236, 24744}},
}

func TestDeadZoneExitCounts(t *testing.T) {
	requireGoldenArch(t)
	ladder := studio.DefaultLadder()
	qsteps := make([]int, len(ladder))
	for k, tier := range ladder {
		qsteps[k] = tier.QStep
	}
	for _, g := range goldenCourses {
		film := g.course().Film
		// What studio.RecordLadder runs with default Options: a GOP of one
		// second and a search range of 3.
		enc, err := vcodec.NewLadderEncoder(vcodec.Config{Width: film.W, Height: film.H, GOP: film.FPS, SearchRange: 3}, qsteps)
		if err != nil {
			t.Fatal(err)
		}
		var frame raster.Frame
		pkts := make([]vcodec.Packet, len(qsteps))
		for i := range film.FrameCount() {
			film.RenderInto(&frame, i)
			if err := enc.Encode(&frame, pkts); err != nil {
				t.Fatal(err)
			}
		}
		for k := range qsteps {
			transforms, skipped := enc.InterTransforms(k)
			if got, want := [2]int{transforms, skipped}, deadZoneCounts[g.name][k]; got != want {
				t.Errorf("%s q%d: %d inter transforms run, %d skipped (%.1f%%); golden %d run, %d skipped",
					g.name, qsteps[k], transforms, skipped, 100*float64(skipped)/float64(transforms+skipped), want[0], want[1])
			}
		}
	}
}
