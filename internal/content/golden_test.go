package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/vcodec"
)

// The goldens below pin the demo courses across commits. Every other
// pixel check in the tree — the encoder-reference tests, the benchmark's
// per-segment `stream` checksums — compares the codec with itself at one
// commit, so a decoder change that moved a pixel everywhere at once would
// pass them all. The constants were recorded at the commit before the
// decode kernels were rewritten (PR 18's parent, linux/amd64, go1.24) and
// change only when a PR means to change what learners see or what the
// server stores; such a change re-records them and says so. The package
// digests and the three lower rungs' pixel rows were re-recorded when the
// rungs below the lead began to refine its motion vectors (EXPERIMENTS.md
// E49); the canonical rows are the originals. The package digests were
// re-recorded again when block modes became a 2-bit map per row with a
// vector-only mode (TKV2, E50); no pixel row moved.
//
// The footage is synthesized with float64 arithmetic, which Go may fuse
// into FMAs on other architectures, so the constants are checked on amd64
// and on 386 (the portable kernels' build, which an amd64 host runs) only.
var goldenCourses = []struct {
	name    string
	course  func() *Course
	pkgSHA  string    // sha256 of the BuildLadderPackage blob
	pixSHAs [4]string // per DefaultLadder rung: sha256 over every decoded RGB frame
}{
	{"classroom", Classroom, "8edd0bade64647c68740e6f07a27b230c2a0a2aba72f15c89f8320ebea4d80b4", [4]string{
		"e394404bbf405e672a6dd0febe1865bd572af12ddf1d26f02befffe8bd72a6df",
		"a8998f69e50337064633255d38b0e79876b5471d0c66cf68a39e8d7bf10c5b3d",
		"cd4f32894fff28d50b0eb55bcaa5ae8541406611eee5b19e9d83d6726f8b8cd9",
		"ae047dd1db5bf1f2ef615b7532d499ba374e5544c4f9e3b4648468183f455db0",
	}},
	{"museum", Museum, "93e75bd4f16894b0bcc54a6218bbdfacc07c636c19b8c0b900299fad86ebc076", [4]string{
		"6230f2da7b25cf3faffaaa529e39544d157efb0c8f346646904fd28fc13df6b4",
		"bcfa2839bb385d84ca7217652dfc66d0fc86c6c7ef3d3c8e4df78addeca83398",
		"f7d1954795fbe93d076c8d0722f1351f5f799e1e36c868cc5c52106c8c0b61c6",
		"ce0430fdc2374505c7ce41536796a3918c549704b9e98431106f3f8e96496748",
	}},
	{"street", StreetDemo, "0299861469040e2c923ab7cca1b9aa10e45f93c22b1506031f147182e572dce9", [4]string{
		"03e208cde660cb748f6590ea53440f50a98f89e0de571c5f3d36ded1773ab4e2",
		"2974662d24f7c9111dc74428d4de1d1510d4acd21b6e4e553341f97bc7b66738",
		"6f35ba9d22f016e95228d3e7411d3d3ace65194a6a8122ff41b4c25fe3f43de6",
		"5e362f37495bd410e9c418270e2674552e1344afc2cd987cdb43ffda3fbcbc97",
	}},
}

// goldenPackages builds the three ladder packages once for both tests.
var goldenPackages = sync.OnceValues(func() ([][]byte, error) {
	blobs := make([][]byte, len(goldenCourses))
	for i, g := range goldenCourses {
		blob, err := g.course().BuildLadderPackage(studio.Options{}, nil)
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return blobs, nil
})

func requireGoldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("goldens checked on amd64 and 386; synth's float math may fuse differently on %s", runtime.GOARCH)
	}
}

func TestLadderPackagesGolden(t *testing.T) {
	requireGoldenArch(t)
	blobs, err := goldenPackages()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenCourses {
		sum := sha256.Sum256(blobs[i])
		if got := hex.EncodeToString(sum[:]); got != g.pkgSHA {
			t.Errorf("%s: ladder package (%d bytes) sha256 %s, golden %s", g.name, len(blobs[i]), got, g.pkgSHA)
		}
	}
}

func TestDecodedPixelsGolden(t *testing.T) {
	requireGoldenArch(t)
	blobs, err := goldenPackages()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenCourses {
		for k, tier := range studio.DefaultLadder() {
			got, frames, err := decodedPixelsSHA(blobs[i], tier.Name)
			if err != nil {
				t.Fatalf("%s tier %q: %v", g.name, tier.Name, err)
			}
			if got != g.pixSHAs[k] {
				t.Errorf("%s tier %q (q%d, %d frames): decoded pixels sha256 %s, golden %s",
					g.name, tier.Name, tier.QStep, frames, got, g.pixSHAs[k])
			}
		}
	}
}

// decodedPixelsSHA decodes every frame of one rung in order and hashes each
// frame's dimensions and RGB bytes.
func decodedPixelsSHA(blob []byte, tier string) (string, int, error) {
	h := sha256.New()
	n, err := eachDecodedFrame(blob, tier, func(_ int, _ []byte, frame *raster.Frame) {
		var dims [8]byte
		binary.LittleEndian.PutUint32(dims[:4], uint32(frame.W))
		binary.LittleEndian.PutUint32(dims[4:], uint32(frame.H))
		h.Write(dims[:])
		h.Write(frame.Pix)
	})
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// eachDecodedFrame decodes every frame of one rung of a ladder package in
// order, handing fn each frame's index, its packet and its pixels (valid
// only during the call), and returns the frame count.
func eachDecodedFrame(blob []byte, tier string, fn func(i int, pkt []byte, frame *raster.Frame)) (int, error) {
	secs, err := gamepack.Sections(blob)
	if err != nil {
		return 0, err
	}
	loc, ok := secs[gamepack.TierSectionName(tier)]
	if !ok {
		return 0, fmt.Errorf("no tier %q", tier)
	}
	r, err := container.Open(blob[loc[0] : loc[0]+loc[1]])
	if err != nil {
		return 0, err
	}
	dec := vcodec.NewDecoder()
	var frame raster.Frame
	n := r.Meta().FrameCount
	for j := 0; j < n; j++ {
		pkt, _, err := r.PacketAt(j)
		if err != nil {
			return 0, err
		}
		if err := dec.DecodeInto(&frame, pkt); err != nil {
			return 0, err
		}
		fn(j, pkt, &frame)
	}
	return n, nil
}
