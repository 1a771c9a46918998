package repro

// The benchmark harness: one benchmark (family) per experiment in
// EXPERIMENTS.md. `go test -bench=. -benchmem` regenerates the performance
// side of every table; the vgbl-experiments binary prints the full tables.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/author"
	"repro/internal/baseline"
	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/playback"
	"repro/internal/media/raster"
	"repro/internal/media/shotdetect"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Shared fixtures, built once.
var (
	onceFilm  sync.Once
	benchFilm *synth.Film

	onceVideo  sync.Once
	benchVideo []byte // 30s film, GOP 12

	oncePkg  sync.Once
	benchPkg []byte // classroom package

	onceLadderPkg  sync.Once
	benchLadderPkg *gamepack.Package // classroom, default ladder, opened
)

func film(b *testing.B) *synth.Film {
	onceFilm.Do(func() {
		benchFilm = synth.Generate(synth.Spec{
			W: 96, H: 64, FPS: 12,
			Shots: 6, MinShotFrames: 50, MaxShotFrames: 70,
			NoiseAmp: 1, Seed: 7,
		})
	})
	return benchFilm
}

func video(b *testing.B) []byte {
	f := film(b)
	onceVideo.Do(func() {
		blob, err := studio.Record(f, studio.Options{QStep: 8, GOP: 12})
		if err != nil {
			b.Fatal(err)
		}
		benchVideo = blob
	})
	return benchVideo
}

func classroomPkg(b testing.TB) []byte {
	oncePkg.Do(func() {
		blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
		if err != nil {
			b.Fatal(err)
		}
		benchPkg = blob
	})
	return benchPkg
}

// --- E1: shot segmentation ------------------------------------------------

func BenchmarkShotDetect(b *testing.B) {
	f := film(b)
	src := shotdetect.FuncSource{N: f.FrameCount(), F: func(i int) (*raster.Frame, error) {
		return f.Render(i), nil
	}}
	cfg := shotdetect.Defaults()
	b.ReportMetric(float64(f.FrameCount()), "frames")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shotdetect.Detect(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShotDetectDecoded is shot detection as the authoring tool runs
// it: over a playback.Video, so every frame is a decode. The detector's one
// histogram worker overlaps the decode of the next frame — the one piece of
// intra-request concurrency that pays (EXPERIMENTS.md E28); read it at
// -cpu 1,2.
func BenchmarkShotDetectDecoded(b *testing.B) {
	blob, err := content.Classroom().RecordVideo(studio.Options{QStep: 6})
	if err != nil {
		b.Fatal(err)
	}
	v, err := playback.OpenVideo(blob, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := v.Meta().FrameCount
	src := shotdetect.SerializedSource(n, v.FrameAt)
	cfg := shotdetect.Defaults()
	b.ReportMetric(float64(n), "frames")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shotdetect.Detect(src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: scenario switch --------------------------------------------------

func BenchmarkScenarioSwitchIndexed(b *testing.B) {
	blob := video(b)
	v, err := playback.OpenVideo(blob, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := v.Meta().FrameCount
	targets := []int{n - 1, 5, n / 2, n / 3, n - 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.FrameAt(targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioSwitchLinearScan(b *testing.B) {
	blob := video(b)
	v, _ := playback.OpenVideo(blob, 1)
	target := v.Meta().FrameCount - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.UnindexedSeek(blob, target); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: codec ---------------------------------------------------------

func benchmarkEncode(b *testing.B, w, h, q int) {
	f := synth.Generate(synth.Spec{
		W: w, H: h, FPS: 10, Shots: 2,
		MinShotFrames: 15, MaxShotFrames: 16, NoiseAmp: 2, Seed: 5,
	})
	frames := make([]*raster.Frame, 16)
	for i := range frames {
		frames[i] = f.Render(i)
	}
	enc, err := vcodec.NewEncoder(vcodec.Config{Width: w, Height: h, QStep: q, GOP: 8, SearchRange: 3})
	if err != nil {
		b.Fatal(err)
	}
	// bytes/frame is counted over one whole pass of the frames, outside the
	// timer, so it is an exact count that does not move with b.N and can say
	// whether an encoder change moved the bitstream.
	var bytes int
	for _, fr := range frames {
		pkt, err := enc.Encode(fr)
		if err != nil {
			b.Fatal(err)
		}
		bytes += len(pkt.Data)
	}
	b.SetBytes(int64(w * h * 3)) // raw RGB input per op → MB/s alongside ns/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytes)/float64(len(frames)), "bytes/frame")
}

func BenchmarkEncode160x120Q4(b *testing.B)  { benchmarkEncode(b, 160, 120, 4) }
func BenchmarkEncode320x240Q4(b *testing.B)  { benchmarkEncode(b, 320, 240, 4) }
func BenchmarkEncode160x120Q16(b *testing.B) { benchmarkEncode(b, 160, 120, 16) }

func decodeBenchPackets(b *testing.B, qstep int) [][]byte {
	f := synth.Generate(synth.Spec{
		W: 160, H: 120, FPS: 10, Shots: 2,
		MinShotFrames: 15, MaxShotFrames: 16, NoiseAmp: 2, Seed: 5,
	})
	enc, _ := vcodec.NewEncoder(vcodec.Config{Width: 160, Height: 120, QStep: qstep, GOP: 8, SearchRange: 3})
	var pkts [][]byte
	for i := 0; i < 16; i++ {
		p, err := enc.Encode(f.Render(i))
		if err != nil {
			b.Fatal(err)
		}
		pkts = append(pkts, p.Data)
	}
	return pkts
}

// benchmarkDecodeRungs runs step over a 16-frame GOP-8 sequence (the first
// packet is an I-frame, so the stream re-enters cleanly every op) on one
// persistent decoder, once per rung of the default ladder: how many blocks
// carry no residual, and how few coefficients the rest carry, is what the
// decoder's cost turns on, and both move with the quantizer (E26).
func benchmarkDecodeRungs(b *testing.B, step func(dec *vcodec.Decoder, pkt []byte) error) {
	for _, tier := range studio.DefaultLadder() {
		b.Run(fmt.Sprintf("q%d", tier.QStep), func(b *testing.B) {
			pkts := decodeBenchPackets(b, tier.QStep)
			dec := vcodec.NewDecoder()
			b.SetBytes(int64(len(pkts)) * 160 * 120 * 3) // decoded RGB per op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					if err := step(dec, p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(16, "frames/op")
		})
	}
}

// BenchmarkDecode160x120 measures the steady-state decode pipeline — entropy
// decode, block reconstruction and colour conversion — with frames recycled
// through DecodeInto.
func BenchmarkDecode160x120(b *testing.B) {
	var frame raster.Frame
	benchmarkDecodeRungs(b, func(dec *vcodec.Decoder, pkt []byte) error {
		return dec.DecodeInto(&frame, pkt)
	})
}

// BenchmarkAdvance160x120 is the roll-forward cost: the same packets decoded
// into the reference only, never converted to RGB. The difference to
// BenchmarkDecode160x120 is the colour pass, which the vcodec package's
// BenchmarkToFrame160x120 times on its own.
func BenchmarkAdvance160x120(b *testing.B) {
	benchmarkDecodeRungs(b, (*vcodec.Decoder).Advance)
}

// BenchmarkDecode160x120Cold is the seed-shaped variant: a fresh decoder and
// freshly allocated output frames every op, the cost a brand-new session
// pays on its first GOP.
func BenchmarkDecode160x120Cold(b *testing.B) {
	pkts := decodeBenchPackets(b, 4)
	b.SetBytes(int64(len(pkts)) * 160 * 120 * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := vcodec.NewDecoder()
		for _, p := range pkts {
			if _, err := dec.Decode(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(16, "frames/op")
}

// BenchmarkRecordLadder is the author's wait for one course (E22): the
// classroom footage recorded at every rung of the default ladder, as a
// publish does it. bytes/frame is summed over the rungs, so a bitstream
// change shows beside the timing, and so is transforms/frame, the
// motion-compensated candidates the block coder transformed (the rest the
// dead-zone exit took as empty; EXPERIMENTS.md E55), counted on one more
// encode outside the timer.
func BenchmarkRecordLadder(b *testing.B) {
	film := content.Classroom().Film
	opts := studio.Options{}
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rungs, err := studio.RecordLadder(film, opts, studio.DefaultLadder())
		if err != nil {
			b.Fatal(err)
		}
		bytes = 0
		for _, r := range rungs {
			bytes += len(r.Video)
		}
	}
	b.StopTimer()
	var qsteps []int
	for _, tier := range studio.DefaultLadder() {
		qsteps = append(qsteps, tier.QStep)
	}
	// studio.RecordLadder's encoder at default Options.
	enc, err := vcodec.NewLadderEncoder(vcodec.Config{Width: film.W, Height: film.H, GOP: film.FPS, SearchRange: 3}, qsteps)
	if err != nil {
		b.Fatal(err)
	}
	var frame raster.Frame
	pkts := make([]vcodec.Packet, len(qsteps))
	for i := range film.FrameCount() {
		film.RenderInto(&frame, i)
		if err := enc.Encode(&frame, pkts); err != nil {
			b.Fatal(err)
		}
	}
	transforms := 0
	for k := range qsteps {
		run, _ := enc.InterTransforms(k)
		transforms += run
	}
	b.ReportMetric(float64(bytes)/float64(film.FrameCount()), "bytes/frame")
	b.ReportMetric(float64(transforms)/float64(film.FrameCount()), "transforms/frame")
	b.ReportMetric(float64(film.FrameCount()), "frames/op")
}

// BenchmarkDemoCleanRows sizes ROADMAP 8(a), "convert only the block rows a
// P-frame dirtied": it decodes each demo rung in order and reports the share
// of 8×8 pixel blocks, and of whole 8-line block rows, whose RGB is the frame
// before's — the ceiling on what such a converter could skip. The two shares
// are exact counts; ns/op carries no claim (EXPERIMENTS.md E29).
func BenchmarkDemoCleanRows(b *testing.B) {
	ladder := studio.DefaultLadder()
	courses := []*content.Course{content.Classroom(), content.Museum(), content.StreetDemo()}
	for n, name := range []string{"classroom", "museum", "street"} {
		rungs, err := studio.RecordLadder(courses[n].Film, studio.Options{}, ladder)
		if err != nil {
			b.Fatal(err)
		}
		for k, rung := range rungs {
			b.Run(fmt.Sprintf("%s/q%d", name, ladder[k].QStep), func(b *testing.B) {
				r, err := container.Open(rung.Video)
				if err != nil {
					b.Fatal(err)
				}
				var blocks, cleanBlocks, rows, cleanRows int
				for i := 0; i < b.N; i++ {
					blocks, cleanBlocks, rows, cleanRows = 0, 0, 0, 0
					dec := vcodec.NewDecoder()
					var cur, prev raster.Frame
					for j := 0; j < r.Meta().FrameCount; j++ {
						pkt, _, err := r.PacketAt(j)
						if err != nil {
							b.Fatal(err)
						}
						if err := dec.DecodeInto(&cur, pkt); err != nil {
							b.Fatal(err)
						}
						for y0 := 0; j > 0 && y0 < cur.H; y0 += 8 {
							clean := 0
							for x0 := 0; x0 < cur.W; x0 += 8 {
								if sameRGB(&cur, &prev, x0, y0) {
									clean++
								}
							}
							inRow := (cur.W + 7) / 8
							blocks, cleanBlocks, rows = blocks+inRow, cleanBlocks+clean, rows+1
							if clean == inRow {
								cleanRows++
							}
						}
						cur, prev = prev, cur
					}
				}
				b.ReportMetric(100*float64(cleanBlocks)/float64(blocks), "clean-block-%")
				b.ReportMetric(100*float64(cleanRows)/float64(rows), "clean-row-%")
			})
		}
	}
}

// sameRGB reports whether the 8×8 pixel block at (x0,y0), clipped to the
// frame, is the same in a and b.
func sameRGB(a, b *raster.Frame, x0, y0 int) bool {
	n := 3 * min(8, a.W-x0)
	for y := y0; y < min(y0+8, a.H); y++ {
		o := 3 * (y*a.W + x0)
		if !bytes.Equal(a.Pix[o:o+n], b.Pix[o:o+n]) {
			return false
		}
	}
	return true
}

// --- E4: authoring -------------------------------------------------------

func BenchmarkAuthoringOps(b *testing.B) {
	// The cost of one primitive authoring operation with undo bookkeeping.
	tool := author.New("bench")
	f := synth.Generate(synth.Spec{W: 48, H: 32, FPS: 8, Shots: 1, MinShotFrames: 8, MaxShotFrames: 8, Seed: 2})
	if err := tool.ImportFootage(f, author.ImportOptions{Encode: studio.Options{QStep: 12}}); err != nil {
		b.Fatal(err)
	}
	if err := tool.AddScenario("s", "S", tool.SegmentNames()[0]); err != nil {
		b.Fatal(err)
	}
	if err := tool.AddObject("s", &core.Object{
		ID: "o", Name: "O", Kind: core.Hotspot, Enabled: true,
		Region: raster.Rect{X: 1, Y: 1, W: 4, H: 4},
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tool.MoveObject("o", raster.Rect{X: i%40 + 1, Y: i%30 + 1, W: 4, H: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6/E7: simulated learners --------------------------------------------

func BenchmarkSimSessionGuided(b *testing.B) {
	blob := classroomPkg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(blob, sim.GuidedFactory, sim.Config{
			MaxSteps: 60, Patience: 15, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps == 0 {
			b.Fatal("bot did nothing")
		}
	}
}

func BenchmarkSimSessionRandom(b *testing.B) {
	blob := classroomPkg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(blob, sim.RandomFactory, sim.Config{
			MaxSteps: 60, Patience: 15, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E27: open once ---------------------------------------------------------

// ladderPkg opens the classroom course the way a client of vgbl-server
// -ladder holds it: a default-ladder package, opened once.
func ladderPkg(b *testing.B) *gamepack.Package {
	onceLadderPkg.Do(func() {
		blob, err := content.Classroom().BuildLadderPackage(studio.Options{QStep: 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if benchLadderPkg, err = gamepack.Open(blob); err != nil {
			b.Fatal(err)
		}
	})
	return benchLadderPkg
}

// BenchmarkSessionOpen is what one more session on an opened package costs
// — a hosted create, a thaw, a mirror replica, a local player: state,
// cursor and decoder over the package's parsed container, compiled scripts
// and frame cache.
func BenchmarkSessionOpen(b *testing.B) {
	pkg := ladderPkg(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.NewSessionFromPackage(pkg, runtime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMirrorWatch is a replica's Watch eight ticks into its segment,
// where a guided learner first looks: cold, a frame nobody on the package
// has decoded (keyframe, roll-forward, colour pass, and a copy into the
// cache); warm, one another session has presented (a copy out of it).
func BenchmarkMirrorWatch(b *testing.B) {
	opened := ladderPkg(b)
	watch := func(b *testing.B, pkg func() *gamepack.Package) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := runtime.NewSessionFromPackage(pkg(), runtime.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Advance(8); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := s.Watch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		// A package nobody has watched: the same parts, nothing derived yet.
		watch(b, func() *gamepack.Package {
			return &gamepack.Package{Project: opened.Project, Video: opened.Video}
		})
	})
	b.Run("warm", func(b *testing.B) {
		watch(b, func() *gamepack.Package { return opened })
	})
}

// --- E8: streaming ---------------------------------------------------------

func BenchmarkStreamStartupProgressive(b *testing.B) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("c", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &netstream.Client{}
	// Progressive startup fetches only the head + first segment; report
	// MB/s over the bytes actually transferred per op.
	_, st, err := c.ProgressiveOpenABR(ts.URL+"/pkg/c", nil, netstream.ABRConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(st.BytesFetched))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/c", nil, netstream.ABRConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamFullDownload(b *testing.B) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("c", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &netstream.Client{}
	b.SetBytes(int64(len(classroomPkg(b)))) // full package bytes per op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A cold sync: manifest plus every chunk into an empty cache.
		if _, _, err := c.DownloadDelta(ts.URL+"/pkg/c", netstream.NewPackageCache()); err != nil {
			b.Fatal(err)
		}
	}
}

// remoteBenchGame opens the classroom course progressively and lands every
// segment, so FrameAt can reach any frame without touching the network.
func remoteBenchGame(b *testing.B) *netstream.RemoteGame {
	srv := netstream.NewServer()
	if err := srv.AddPackage("c", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	g, _, err := (&netstream.Client{}).ProgressiveOpenABR(ts.URL+"/pkg/c", nil, netstream.ABRConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range g.Chapters() {
		if _, err := g.FetchSegmentTier(ch.Name, g.ABR().CurrentTier()); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// benchmarkRemoteFrameAt reads frame i·stride (mod the film) on iteration i.
func benchmarkRemoteFrameAt(b *testing.B, stride int) {
	g := remoteBenchGame(b)
	n := g.Meta().FrameCount
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.FrameAt(i * stride % n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteFrameAtSequential is streamed playback's steady state:
// watching landed segments front to back. One decode and 0 allocs per
// frame — the number E20 sets against BenchmarkDecode160x120.
func BenchmarkRemoteFrameAtSequential(b *testing.B) { benchmarkRemoteFrameAt(b, 1) }

// BenchmarkRemoteFrameAtRandomSeek is the scenario-switch cost on a
// streamed course: every read lands somewhere else, so each pays a keyframe
// restart plus the roll-forward inside one GOP.
func BenchmarkRemoteFrameAtRandomSeek(b *testing.B) { benchmarkRemoteFrameAt(b, 7919) }

// --- E13: content-addressed chunk store -------------------------------------

// BenchmarkChunkGetHot is the delivery hot path: a chunk served from the
// LRU tier. Must stay 0 allocs/op — a fleet hammering one
// popular course costs the server no garbage.
func BenchmarkChunkGetHot(b *testing.B) {
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	h, _, err := store.Put(data)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.Get(h); err != nil { // warm the tier
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Get(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkGetHotParallel is the hot tier under contention: 64 resident
// 64 KiB chunks read by GOMAXPROCS goroutines at once, each walking the set
// from its own offset. Read at -cpu 1,2 (EXPERIMENTS.md E28): a striped
// tier has to beat this to come back.
func BenchmarkChunkGetHotParallel(b *testing.B) {
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		b.Fatal(err)
	}
	hashes := make([]blobstore.Hash, 64)
	for k := range hashes {
		data := make([]byte, 64<<10)
		for i := range data {
			data[i] = byte(i*31 + k)
		}
		h, _, err := store.Put(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Get(h); err != nil { // warm the tier
			b.Fatal(err)
		}
		hashes[k] = h
	}
	var gid atomic.Int64
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)) * 17
		for pb.Next() {
			if _, err := store.Get(hashes[i%len(hashes)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkChunkGetCold reads through to the on-disk backend with the hot
// tier disabled: one file read plus SHA-256 verification per op.
func BenchmarkChunkGetCold(b *testing.B) {
	disk, err := blobstore.NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	store, err := blobstore.New(blobstore.Options{Backend: disk, CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	h, _, err := store.Put(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Get(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaSync measures one client delta sync after a one-segment
// course edit: conditional manifest fetch, the changed chunks over
// loopback HTTP (hash-verified), unchanged chunks from the local cache,
// and package reassembly. Bytes/op is the wire delta.
func BenchmarkDeltaSync(b *testing.B) {
	course := content.Classroom()
	v1, err := course.BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		b.Fatal(err)
	}
	course.Film.Shots[1].Seed ^= 0xbeef
	v2, err := course.BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		b.Fatal(err)
	}
	srv := netstream.NewServer()
	if err := srv.AddPackage("orig", v1); err != nil {
		b.Fatal(err)
	}
	if err := srv.AddPackage("edited", v2); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &netstream.Client{}
	cache := netstream.NewPackageCache()
	if _, _, err := c.DownloadDelta(ts.URL+"/pkg/orig", cache); err != nil {
		b.Fatal(err)
	}
	man1, err := gamepack.ExtractManifest(v1)
	if err != nil {
		b.Fatal(err)
	}
	man2, err := gamepack.ExtractManifest(v2)
	if err != nil {
		b.Fatal(err)
	}
	old := man1.ChunkSet()
	var diff []blobstore.Hash
	deltaBytes := len(man2.Encode())
	for h, size := range man2.ChunkSet() {
		if _, ok := old[h]; !ok {
			diff = append(diff, h)
			deltaBytes += size
		}
	}
	if len(diff) == 0 {
		b.Fatal("fixture edit changed no chunks")
	}
	url := ts.URL + "/pkg/edited"
	b.SetBytes(int64(deltaBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each op starts where a course update leaves a client: the old
		// version cached, the edited chunks not yet local.
		cache.Forget(url)
		for _, h := range diff {
			cache.Chunks().Remove(h)
		}
		if _, st, err := c.DownloadDelta(url, cache); err != nil {
			b.Fatal(err)
		} else if st.ChunksFetched != len(diff) {
			b.Fatalf("fetched %d chunks, want %d", st.ChunksFetched, len(diff))
		}
	}
}

// --- E10: learner fleet + telemetry ingest ---------------------------------

// benchmarkFleet runs one fleet iteration per op: n concurrent learners
// fetch the classroom package from a live netstream server (ETag-cached),
// play it guided, and report through batched telemetry.
func benchmarkFleet(b *testing.B, learners int) {
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	mux := http.NewServeMux()
	mux.Handle("/telemetry/", svc.Handler())
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var sessions, events float64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := fleet.Run(fleet.Config{
			ServerURL:   ts.URL,
			Package:     "classroom",
			Learners:    learners,
			Concurrency: 64,
			Policy:      sim.GuidedFactory,
			Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: int64(i)},
			FlushEvery:  8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed > 0 {
			b.Fatalf("%d learners failed: %v", sum.Failed, sum.Errors)
		}
		sessions += float64(learners)
		events += float64(sum.EventsReported)
		elapsed += sum.Elapsed
	}
	b.StopTimer()
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(sessions/secs, "sessions/s")
		b.ReportMetric(events/secs, "events/s")
	}
}

func BenchmarkFleet10(b *testing.B)  { benchmarkFleet(b, 10) }
func BenchmarkFleet50(b *testing.B)  { benchmarkFleet(b, 50) }
func BenchmarkFleet200(b *testing.B) { benchmarkFleet(b, 200) }

// BenchmarkFleetIngest isolates the ingest path: one batch applied to the
// store per op, across parallel goroutines (no HTTP). Read at -cpu 1,2
// (EXPERIMENTS.md E28).
func BenchmarkFleetIngest(b *testing.B) {
	store := telemetry.NewStore()
	events := []runtime.Event{
		{Tick: 1, Kind: "click", Detail: "computer"},
		{Tick: 2, Kind: "learn", Detail: "ram-identification"},
		{Tick: 3, Kind: "goto", Detail: "market"},
		{Tick: 4, Kind: "reward", Detail: "badge"},
	}
	var sid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := sid.Add(1)
		session := 0
		for pb.Next() {
			session++
			s := fmt.Sprintf("g%d-s%d", id, session)
			if err := store.Append(telemetry.Batch{Course: "bench", Session: s, Start: "classroom", Events: events}); err != nil {
				b.Fatal(err)
			}
			if err := store.Append(telemetry.Batch{Course: "bench", Session: s, Done: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestHandler is the ingest path a post takes inside the server:
// parallel posters through Service.Handler (read, parse, validate, apply,
// ack), one batch frame per op, alternating a session's events batch and
// its done batch, without a socket. Read at -cpu 1,2 (EXPERIMENTS.md E28,
// E34, E37).
func BenchmarkIngestHandler(b *testing.B) {
	svc := telemetry.NewService(telemetry.Options{IdleTimeout: -1})
	defer svc.Close()
	h := svc.Handler()
	events := []runtime.Event{
		{Tick: 1, Kind: "click", Detail: "computer"},
		{Tick: 2, Kind: "learn", Detail: "ram-identification"},
		{Tick: 3, Kind: "goto", Detail: "market"},
		{Tick: 4, Kind: "reward", Detail: "badge"},
	}
	var sid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := sid.Add(1)
		for op := 0; pb.Next(); op++ {
			batch := telemetry.Batch{Course: "bench", Session: fmt.Sprintf("g%d-s%d", id, op/2), Start: "classroom", Seq: 1, Events: events}
			if op%2 == 1 {
				batch = telemetry.Batch{Course: "bench", Session: batch.Session, Seq: 2, Done: true}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, telemetry.IngestPath, bytes.NewReader(telemetry.EncodeBatch(&batch))))
			if rec.Code != http.StatusAccepted {
				b.Fatalf("ingest answered %d: %s", rec.Code, rec.Body)
			}
		}
	})
}

// --- E12: play service -------------------------------------------------------

// BenchmarkPlaysvcAct measures the play service's per-request hot paths on
// one hosted session, without HTTP framing:
//
//   - act: a full interaction round (dialogue turn + self-contained reply
//     assembly with state snapshot and event tail).
//   - tick: the cheapest act (advance playback, assemble reply).
//   - frame: the render frame path — DecodeInto plus cached-sprite
//     composition into a pooled buffer; a frame read moves no playback.
//     This path must report 0 allocs/op (pinned by playsvc's
//     TestFramePathZeroAlloc).
func BenchmarkPlaysvcAct(b *testing.B) {
	b.Run("act", func(b *testing.B) {
		m, id := newHostedBench(b)
		req := playsvc.ActRequest{Session: id, Kind: playsvc.ActTalk, Object: "teacher"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The reply tail stays O(1): claim the log as seen each round.
			r, err := m.Act(&req)
			if err != nil {
				b.Fatal(err)
			}
			req.SeenEvents, req.SeenMessages = r.EventCount, r.MessageCount
		}
	})
	b.Run("tick", func(b *testing.B) {
		m, id := newHostedBench(b)
		req := playsvc.ActRequest{Session: id, Kind: playsvc.ActTick, Ticks: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Act(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		m, id := newHostedBench(b)
		noop := func(f *raster.Frame, tick int) error { return nil }
		// Warm the sprite cache, frame buffer and decoder recycling.
		for i := 0; i < 8; i++ {
			if err := m.WithFrame(id, noop); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(3 * 160 * 120) // raw RGB bytes served per frame
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.WithFrame(id, noop); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlaysvcActParallel is the session map under contention: 64 hosted
// sessions, GOMAXPROCS goroutines each driving talk acts round its own
// share of them, so no two meet on a session lock and what is left is the
// manager's map lock and counters. Read at -cpu 1,2 (EXPERIMENTS.md E28): a
// sharded manager has to beat this to come back.
func BenchmarkPlaysvcActParallel(b *testing.B) {
	m := playsvc.NewManager(playsvc.Options{TTL: -1})
	b.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	reqs := make([]playsvc.ActRequest, 64)
	for i := range reqs {
		id := fmt.Sprintf("classroom-bench-%02d", i)
		createBench(b, m, &playsvc.ActRequest{Session: id, Course: "classroom"})
		reqs[i] = playsvc.ActRequest{Session: id, Kind: playsvc.ActTalk, Object: "teacher"}
	}
	var gid atomic.Int64
	stride := goruntime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)-1) % stride
		for pb.Next() {
			req := &reqs[i]
			r, err := m.Act(req)
			if err != nil {
				b.Fatal(err)
			}
			req.SeenEvents, req.SeenMessages = r.EventCount, r.MessageCount
			if i += stride; i >= len(reqs) {
				i -= len(reqs)
			}
		}
	})
}

// BenchmarkPlaysvcRemoteLearner plays one full guided learner over the
// wire per op — the end-to-end remote-play session cost E12 compares with
// local simulation.
func BenchmarkPlaysvcRemoteLearner(b *testing.B) {
	m := playsvc.NewManager(playsvc.Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	proj := content.Classroom().Project
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := &analytics.Collector{}
		c, err := playsvc.Dial(playsvc.ClientOptions{
			BaseURL: ts.URL, Course: "classroom", Project: proj, Observer: col,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunGame(c, sim.GuidedFactory,
			sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, Seed: int64(i)}, col)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps == 0 {
			b.Fatal("empty run")
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E17: the framed act path ------------------------------------------------

func newHostedBench(b testing.TB) (*playsvc.Manager, string) {
	b.Helper()
	m := playsvc.NewManager(playsvc.Options{TTL: -1})
	b.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomPkg(b)); err != nil {
		b.Fatal(err)
	}
	const id = "classroom-bench"
	createBench(b, m, &playsvc.ActRequest{Session: id, Course: "classroom"})
	return m, id
}

// createBench opens a hosted session: a create is an act that names a
// course and no kind.
func createBench(b testing.TB, m *playsvc.Manager, req *playsvc.ActRequest) {
	b.Helper()
	if _, err := m.Act(req); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPlaysvcActBinary measures one framed act round without HTTP —
// what a thin client's every act costs besides the wire: encode the act
// frame, parse it (the server's ingress), apply the batch of one, then
// encode and parse the reply frame (the client's ingress). Like a thin
// client it echoes the reply's state tag, so a reply carries the state
// only when the act changed it (talking to the teacher again changes
// none). BenchmarkPlaysvcAct/act is the same batch of one without the
// codec, so the delta between the two is the frame encode/parse cost.
func BenchmarkPlaysvcActBinary(b *testing.B) {
	round := framedActRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestFramedActAllocs pins BenchmarkPlaysvcActBinary's round trip to its
// allocation count: 48 per act while every reply cloned and re-encoded the
// state, 25 since a reply names the state by its tag and a session encodes
// it into a buffer it reuses.
func TestFramedActAllocs(t *testing.T) {
	round := framedActRound(t)
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs > 25 {
		t.Fatalf("a framed act round trip allocates %.1f times, want at most 25", allocs)
	}
}

// framedActRound opens a hosted classroom session and returns one framed
// act round on it: a thin client's talk, with its seen-counts and state tag
// echoed from the reply before.
func framedActRound(tb testing.TB) func() {
	m, id := newHostedBench(tb)
	req := playsvc.BatchRequest{
		Session: id,
		Acts:    []playsvc.ActRequest{{Kind: playsvc.ActTalk, Object: "teacher"}},
	}
	return func() {
		req.BaseSeq++
		parsed, err := playsvc.ParseActFrame(playsvc.EncodeActFrame(&req))
		if err != nil {
			tb.Fatal(err)
		}
		out, err := m.ActBatch(parsed)
		if err != nil {
			tb.Fatal(err)
		}
		rt, err := playsvc.ParseReplyFrame(playsvc.EncodeReplyFrame(out))
		if err != nil {
			tb.Fatal(err)
		}
		r := rt.Reply
		req.SeenEvents, req.SeenMessages, req.StateTag = r.EventCount, r.MessageCount, r.StateTag
	}
}

// BenchmarkPlaysvcActPipelined measures a framed batch of N acts per op —
// the batch amortization a mirror client banks (it ships batches of 16):
// one frame, one batch apply, one coalesced reply tail regardless of
// depth. ns/op divided by the depth in the sub-benchmark name gives the
// per-act cost.
func BenchmarkPlaysvcActPipelined(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			m, id := newHostedBench(b)
			acts := make([]playsvc.ActRequest, depth)
			for i := range acts {
				acts[i] = playsvc.ActRequest{Kind: playsvc.ActTalk, Object: "teacher"}
			}
			req := playsvc.BatchRequest{Session: id, Acts: acts}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.BaseSeq = int64(i*depth + 1)
				parsed, err := playsvc.ParseActFrame(playsvc.EncodeActFrame(&req))
				if err != nil {
					b.Fatal(err)
				}
				out, err := m.ActBatch(parsed)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := playsvc.ParseReplyFrame(playsvc.EncodeReplyFrame(out))
				if err != nil {
					b.Fatal(err)
				}
				req.SeenEvents, req.SeenMessages = rt.Reply.EventCount, rt.Reply.MessageCount
			}
		})
	}
}

// BenchmarkRoomFanout measures the classroom broadcast hot path without
// HTTP: one driver act is logged once, and W watchers each read it with
// one seq watch (the room's act record copied into the watcher's reply
// buffer). The publish itself is O(1) whatever W is — the room keeps no
// watcher and renders nothing, so it appends one act record and closes
// one broadcast channel — and each delivery reuses its watcher's reply
// buffer, so allocs/op stays flat as W grows. MB/s counts the reply bytes
// served per op.
func BenchmarkRoomFanout(b *testing.B) {
	for _, W := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("watchers-%d", W), func(b *testing.B) {
			m := playsvc.NewManager(playsvc.Options{TTL: -1})
			b.Cleanup(m.Close)
			if err := m.AddCourse("classroom", classroomPkg(b)); err != nil {
				b.Fatal(err)
			}
			const roomID = "classroom-bench-room"
			createBench(b, m, &playsvc.ActRequest{Session: roomID, Course: "classroom", Room: true})
			room, ok := m.Room(roomID)
			if !ok {
				b.Fatal("room not registered")
			}
			req := playsvc.ActRequest{Session: roomID, Kind: playsvc.ActTick, Ticks: 1}
			if _, err := m.Act(&req); err != nil {
				b.Fatal(err)
			}
			at := make([]int64, W)
			dsts := make([][]byte, W)
			var replyLen int
			for w := 0; w < W; w++ {
				// The first read: sizes the reply buffer and brings every
				// watcher to the room's seq for the steady-state loop.
				reply, next, err := room.WatchNext(0, 0, nil)
				if err != nil || reply == nil {
					b.Fatalf("first delivery: %v", err)
				}
				dsts[w], at[w] = reply, next
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.Act(&req)
				if err != nil {
					b.Fatal(err)
				}
				req.SeenEvents, req.SeenMessages = r.EventCount, r.MessageCount
				for w := 0; w < W; w++ {
					reply, next, err := room.WatchNext(at[w], 0, dsts[w][:0])
					if err != nil {
						b.Fatal(err)
					}
					if reply == nil {
						b.Fatal("no act past the watcher's seq after an act")
					}
					dsts[w], at[w], replyLen = reply, next, len(reply)
				}
			}
			b.SetBytes(int64(W) * int64(replyLen))
		})
	}
}

// --- E9: ablations ----------------------------------------------------------

func BenchmarkHitTest(b *testing.B) {
	blob := classroomPkg(b)
	s, err := runtime.NewSession(blob, runtime.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObjectAt(i%160, (i*7)%120)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	blob := classroomPkg(b)
	s, err := runtime.NewSession(blob, runtime.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Click(100, 25) // computer hotspot OnClick script
	}
}

// --- F1/F2: figure rendering -------------------------------------------------

func BenchmarkFigure1Render(b *testing.B) {
	course := content.Classroom()
	videoBlob, err := course.RecordVideo(studio.Options{QStep: 10})
	if err != nil {
		b.Fatal(err)
	}
	projJSON, _ := course.Project.Marshal()
	tool, err := author.Load(projJSON, videoBlob)
	if err != nil {
		b.Fatal(err)
	}
	ed := author.NewEditorWindow(tool)
	ed.SelectScenario("classroom")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ed.Snapshot(132, 44); len(s) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkFigure2Render(b *testing.B) {
	blob, err := content.StreetDemo().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		b.Fatal(err)
	}
	s, err := runtime.NewSession(blob, runtime.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := runtime.NewGameWindow(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := g.Snapshot(132, 44); len(snap) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// TestExperimentTablesSmoke regenerates the cheap experiment tables so
// `go test` alone exercises the full harness path.
func TestExperimentTablesSmoke(t *testing.T) {
	for _, fn := range []struct {
		id  string
		run func() (string, error)
	}{
		{"f2", experiments.F2},
		{"e4", experiments.E4},
		{"e5", experiments.E5},
	} {
		out, err := fn.run()
		if err != nil {
			t.Fatalf("%s: %v", fn.id, err)
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously small:\n%s", fn.id, out)
		}
	}
}

// --- Observability -----------------------------------------------------------

// BenchmarkObsHistogramObserve is the metrics layer's hot-path cost: one
// latency observation is a binary search over the bucket bounds plus two
// atomic adds, and must stay allocation-free — it sits inside the act and
// frame paths whose own allocation counts are pinned by tests.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewHistogram(obs.LatencyBounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Values sweep the bucket range so the search depth is averaged,
		// not pinned to one bucket.
		h.Observe(int64(i%1000)*10_000 + 57)
	}
	if h.Snapshot().Count != int64(b.N) {
		b.Fatal("lost observations")
	}
}
