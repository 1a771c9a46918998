package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// server stores; such a PR re-records them and says so.
//
// The footage is synthesized with float64 arithmetic, which Go may fuse
// into FMAs on other architectures, so the constants hold for amd64 only.
var goldenCourses = []struct {
	name    string
	course  func() *Course
	pkgSHA  string    // sha256 of the BuildLadderPackage blob
	pixSHAs [4]string // per DefaultLadder rung: sha256 over every decoded RGB frame
}{
	{"classroom", Classroom, "763142237729a53607a1b9b4b0fc8b669fd5d6a651e17155cf18ee0059740d7f", [4]string{
		"e394404bbf405e672a6dd0febe1865bd572af12ddf1d26f02befffe8bd72a6df",
		"8739ac847eb8910e7f52309136ae21b4e84595bea55315d82e05954c6a40bc94",
		"6fbf17b74318ba4b0c2289198a921b8a0d3145b62cfd648d473162781c4a71b0",
		"dd60738404acb044e58378a158fe82f72c5b0a63975164d7e5ea148219d15d29",
	}},
	{"museum", Museum, "2a659696df46e25ec46107bad381a784b5bfdeaeeffede5468c70cf5e4129d5d", [4]string{
		"6230f2da7b25cf3faffaaa529e39544d157efb0c8f346646904fd28fc13df6b4",
		"36bae4dca548f22e2b17c27e61ad12a2afaf337292cad762d5abd63906fad97f",
		"80e52d2e0f386a612d93a45fc36330d63824e172a2d65326d698988badee6755",
		"049836ddf3df4a28f328991f06adcff21314c0388b05064d51777566c1ea1d8d",
	}},
	{"street", StreetDemo, "7907c9eb034438b824a4a9ae86c12af55e9fad83128115d78ad6c1e80729ec71", [4]string{
		"03e208cde660cb748f6590ea53440f50a98f89e0de571c5f3d36ded1773ab4e2",
		"71cd50084e9eb243f87c7f826322f6aee51a54991f7ab90dc5903b0024d868d6",
		"76eb940a7f977b288513efe51271e941a396622fdd56e2dcd882f3ccc44bfbb8",
		"f3f33a5539bb81f39493762cd72102e595ef4b1679f8b8e7b5fb710f0a967a42",
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
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64; synth's float math may fuse differently on %s", runtime.GOARCH)
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
	pkg, err := gamepack.OpenTier(blob, tier)
	if err != nil {
		return "", 0, err
	}
	r, err := container.Open(pkg.Video)
	if err != nil {
		return "", 0, err
	}
	dec := vcodec.NewDecoder()
	h := sha256.New()
	var frame raster.Frame
	n := r.Meta().FrameCount
	for j := 0; j < n; j++ {
		pkt, _, err := r.PacketAt(j)
		if err != nil {
			return "", 0, err
		}
		if err := dec.DecodeInto(&frame, pkt); err != nil {
			return "", 0, err
		}
		var dims [8]byte
		binary.LittleEndian.PutUint32(dims[:4], uint32(frame.W))
		binary.LittleEndian.PutUint32(dims[4:], uint32(frame.H))
		h.Write(dims[:])
		h.Write(frame.Pix)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
