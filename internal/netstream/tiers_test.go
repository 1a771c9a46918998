package netstream

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/obs"
)

// ladderTestServer publishes a 10-segment synth course as a full quality
// ladder on a manifest-backed server with a metrics registry attached.
func ladderTestServer(t *testing.T) (*httptest.Server, *Server, *obs.Registry) {
	t.Helper()
	ts, srv, reg, _ := serveLadder(t, testLadderRungs(t))
	return ts, srv, reg
}

// testLadderRungs is the 10-segment course at every rung of the default
// ladder, recorded once per test binary. Chapter cuts are not GOP-aligned
// (GOP 10, shots of 20–24 frames).
func testLadderRungs(t *testing.T) []studio.TierVideo {
	t.Helper()
	rungs, err := recordedTestLadder()
	if err != nil {
		t.Fatal(err)
	}
	return rungs
}

var recordedTestLadder = sync.OnceValues(func() ([]studio.TierVideo, error) {
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 12,
	})
	return studio.RecordLadder(film, studio.Options{GOP: 10, ShotMarkers: true}, studio.DefaultLadder())
})

// serveLadder packages recorded rungs as "course" with one scenario per
// chapter (the first is the start) and serves it. It also returns each
// rung's container by tier, for reference decodes.
func serveLadder(t *testing.T, rungs []studio.TierVideo) (*httptest.Server, *Server, *obs.Registry, map[string][]byte) {
	t.Helper()
	videos := make([]gamepack.TierVideo, len(rungs))
	byTier := map[string][]byte{}
	for i, r := range rungs {
		videos[i] = gamepack.TierVideo{Tier: r.Tier, Video: r.Video}
		byTier[r.Tier] = r.Video
	}
	r, err := container.Open(videos[0].Video)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProject("Ladder Course")
	for i, ch := range r.Chapters() {
		id := fmt.Sprintf("s%d", i)
		p.Scenarios = append(p.Scenarios, &core.Scenario{ID: id, Name: ch.Name, Segment: ch.Name})
		if i == 0 {
			p.StartScenario = id
		}
	}
	blob, err := gamepack.BuildLadder(p, videos)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddPackage("course", blob); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("")
	srv.Register(reg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, reg, byTier
}

// serverTierBytes reads the per-tier bytes-served ledger out of a
// registry snapshot, exactly as E19's reconciliation does.
func serverTierBytes(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	snap := reg.Snapshot()
	m := snap.Metric("netstream_tier_bytes_total")
	if m == nil {
		return out
	}
	for _, s := range m.Series {
		if s.Value != nil {
			out[s.Labels["tier"]] = *s.Value
		}
	}
	return out
}

func TestProgressiveOpenABRStartsAtLowestRung(t *testing.T) {
	ts, _, _ := ladderTestServer(t)
	c := &Client{}
	g, st, err := c.ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"", "low", "med", "min"}; !reflect.DeepEqual(g.Tiers(), want) {
		t.Fatalf("Tiers = %v, want %v", g.Tiers(), want)
	}
	if g.ABR() == nil {
		t.Fatal("ABR open returned a game without a picker")
	}
	if got := g.ABR().CurrentTier(); got != "min" {
		t.Errorf("picker starts at %q, want the lowest rung", got)
	}
	start := g.Project.ScenarioByID(g.Project.StartScenario)
	tier, ok := g.SegmentTier(start.Segment)
	if !ok || tier != "min" {
		t.Errorf("start segment landed at %q (fetched %v), want the min rung", tier, ok)
	}
	if tb := g.TierBytes(); tb["min"] <= 0 {
		t.Errorf("no wire bytes attributed to the min rung: %v", tb)
	}
	// The whole point of the low start: cheaper than the same start segment
	// at the canonical rung, whose byte range the served ladder gives.
	ch, _ := g.head.ChapterByName(start.Segment)
	k, err := g.head.KeyframeAtOrBefore(ch.Start)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := g.head.ByteRange(k, ch.End)
	if err != nil {
		t.Fatal(err)
	}
	if minBytes := int(g.TierBytes()["min"]); minBytes >= hi-lo {
		t.Errorf("ABR open fetched %d video bytes at min, the canonical start segment alone is %d", minBytes, hi-lo)
	}
	if int64(st.BytesFetched) < g.TierBytes()["min"] {
		t.Errorf("open stats %+v do not cover the min rung's %d bytes", st, g.TierBytes()["min"])
	}
}

// TestTwoSegmentCourseLeavesMin: on a two-chapter ladder course over a
// capped link, the open's start-segment fetch is the picker's first
// throughput sample, and with no downswitch yet the picker goes straight to
// the rung that sample supports — so the second (and last) segment plays
// above min. Without the sample the pick had no estimate, and with a
// damped one-rung climb a course this short ended before it left min.
func TestTwoSegmentCourseLeavesMin(t *testing.T) {
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 2, MinShotFrames: 30, MaxShotFrames: 30,
		NoiseAmp: 1, Seed: 12,
	})
	rungs, err := studio.RecordLadder(film, studio.Options{GOP: 10, ShotMarkers: true}, studio.DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _, _ := serveLadder(t, rungs)
	prof, ok := faultnet.Lookup("cap-60k")
	if !ok {
		t.Fatal("no cap-60k profile")
	}
	tr := faultnet.NewTransport(faultnet.NewHTTPTransport(4), prof, 1)
	c := &Client{HTTP: &http.Client{Transport: tr}}
	g, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Chapters()); n != 2 {
		t.Fatalf("course has %d chapters, want 2", n)
	}
	if g.ABR().Throughput() <= 0 {
		t.Fatal("the open's start-segment fetch left the picker without an estimate")
	}
	rep, err := (&StreamPlayer{Game: g}).Play()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("estimate %.0f B/s, plays %+v", g.ABR().Throughput(), rep.Plays)
	if last := rep.Plays[len(rep.Plays)-1]; last.Tier == "min" {
		t.Fatalf("the second segment played at min on a %s link", prof.Name)
	}
}

func TestFetchSegmentTierMixedDecode(t *testing.T) {
	ts, _, _ := ladderTestServer(t)
	c := &Client{}
	g, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	chs := g.Chapters()
	if len(chs) < 3 {
		t.Fatalf("course has %d segments, need 3", len(chs))
	}
	// Spread the remaining segments across rungs; the start segment
	// already landed at the lowest.
	wantTier := map[string]string{chs[0].Name: "min"}
	for i, tier := range []string{"min", "low"} {
		ch := chs[i+1]
		if _, err := g.FetchSegmentTier(ch.Name, tier); err != nil {
			t.Fatalf("FetchSegmentTier(%q, %q): %v", ch.Name, tier, err)
		}
		wantTier[ch.Name] = tier
	}
	// A segment keeps the tier it landed at: refetching at another rung
	// is a no-op, not a transfer.
	st, err := g.FetchSegmentTier(chs[1].Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesFetched != 0 {
		t.Errorf("refetch of a landed segment transferred %d bytes", st.BytesFetched)
	}
	meta := g.Meta()
	for name, tier := range wantTier {
		got, ok := g.SegmentTier(name)
		if !ok || got != tier {
			t.Errorf("SegmentTier(%q) = %q,%v want %q", name, got, ok, tier)
		}
	}
	// Frames decode across the tier boundary — each landed chunk against
	// the head of the rung that produced it.
	for _, ch := range chs[:3] {
		f, err := g.FrameAt(ch.Start)
		if err != nil {
			t.Fatalf("FrameAt(%d) in %q: %v", ch.Start, ch.Name, err)
		}
		if f.W != meta.Width || f.H != meta.Height {
			t.Errorf("frame %d is %dx%d, want %dx%d", ch.Start, f.W, f.H, meta.Width, meta.Height)
		}
	}
	if _, err := g.FetchSegmentTier(chs[3].Name, "ghost"); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown tier error = %v", err)
	}
}

// TestTierBytesReconcile plays a ladder end to end and reconciles the
// client's per-tier ledger against the server's /metrics counters to the
// byte — the accounting E19 asserts under fault profiles.
func TestTierBytesReconcile(t *testing.T) {
	ts, _, reg := ladderTestServer(t)
	c := &Client{}
	g, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/course", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	player := &StreamPlayer{Game: g, DecodeFrames: true}
	rep, err := player.Play()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != len(g.Chapters()) {
		t.Errorf("played %d of %d segments", rep.Segments, len(g.Chapters()))
	}
	if rep.Rebuffers != 0 {
		t.Errorf("%d rebuffers on a loopback link", rep.Rebuffers)
	}
	got := serverTierBytes(reg)
	want := map[string]int64{}
	for tier, n := range g.TierBytes() {
		want[TierLabel(tier)] += n
	}
	for label, n := range want {
		if got[label] != n {
			t.Errorf("tier %q: server served %d bytes, client fetched %d", label, got[label], n)
		}
	}
	for label, n := range got {
		if n != 0 && want[label] == 0 {
			t.Errorf("server served %d bytes on tier %q the client never fetched", n, label)
		}
	}
}

func TestABRFallbacksAndErrors(t *testing.T) {
	ts, srv, _ := ladderTestServer(t)
	c := &Client{}
	if _, _, err := c.ProgressiveOpenABR(ts.URL+"/res/nope", NewPackageCache(), ABRConfig{}); err == nil {
		t.Error("ABR open accepted a non-/pkg/ URL")
	}
	// A single-quality package degrades to a one-rung picker.
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddPackage("plain", blob); err != nil {
		t.Fatal(err)
	}
	g, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/plain", NewPackageCache(), ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{""}; !reflect.DeepEqual(g.Tiers(), want) {
		t.Errorf("single-quality Tiers = %v", g.Tiers())
	}
	if got := g.ABR().Pick(10); got != "" {
		t.Errorf("one-rung picker picked %q", got)
	}
}
