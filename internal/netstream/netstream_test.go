package netstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/playback"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/obs"
)

func testServer(t *testing.T) (*httptest.Server, []byte) {
	t.Helper()
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		t.Fatal(err)
	}
	srv.AddResource("umbrella", "UMBRELLAS KEEP YOU DRY")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, blob
}

func TestServerValidation(t *testing.T) {
	srv := NewServer()
	if err := srv.AddPackage("bad name", []byte("x")); err == nil {
		t.Error("bad name accepted")
	}
	if err := srv.AddPackage("junk", []byte("not a package")); err == nil {
		t.Error("junk package accepted")
	}
}

func TestListAndNotFound(t *testing.T) {
	ts, _ := testServer(t)
	c := &Client{}
	body, _, err := c.FetchResource(ts.URL + "/list")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(body) != "classroom" {
		t.Errorf("list = %q", body)
	}
	if _, _, err := c.DownloadDelta(ts.URL+"/pkg/ghost", NewPackageCache()); err == nil {
		t.Error("missing package downloadable")
	}
	if _, _, err := c.FetchResource(ts.URL + "/res/ghost"); err == nil {
		t.Error("missing resource fetchable")
	}
}

// TestDownloadWholePackage, TestETagNotModified and TestDownloadCached pin
// DownloadDelta's degrade step, the conditional whole-package GET.
func TestDownloadWholePackage(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	var st Stats
	got, err := c.downloadWhole(ts.URL+"/pkg/classroom", NewPackageCache(), &st)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("downloaded bytes differ")
	}
	if st.BytesFetched != len(blob) || st.Requests != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProgressiveOpenFetchesLess(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	g, st, err := c.ProgressiveOpenABR(ts.URL+"/pkg/classroom", nil, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Project.Title != "Fix The Classroom Computer" {
		t.Error("project lost")
	}
	if !g.HasSegment("seg-classroom") {
		t.Error("start segment not fetched")
	}
	if g.HasSegment("seg-market") {
		t.Error("non-start segment fetched eagerly")
	}
	// Startup never needs the whole package.
	if st.BytesFetched >= len(blob) {
		t.Errorf("progressive fetched %d of %d bytes", st.BytesFetched, len(blob))
	}
	if st.Requests < 3 {
		t.Errorf("requests = %d, expected manifest, project and video chunk fetches", st.Requests)
	}
}

func TestProgressiveStartupScalesWithSegmentNotFilm(t *testing.T) {
	// A film with many segments: the start segment is a small slice of the
	// whole, so progressive startup should fetch a small fraction — E8's
	// central claim.
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		Seed: 12,
	})
	video, err := studio.Record(film, studio.Options{QStep: 6, GOP: 10, ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := container.Open(video)
	chs := r.Chapters()
	p := core.NewProject("Long Course")
	p.StartScenario = "s0"
	for i, ch := range chs {
		p.Scenarios = append(p.Scenarios, &core.Scenario{
			ID: fmt.Sprintf("s%d", i), Name: ch.Name, Segment: ch.Name,
		})
	}
	blob, err := gamepack.Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddPackage("long", blob); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{}
	_, st, err := c.ProgressiveOpenABR(ts.URL+"/pkg/long", nil, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesFetched >= len(blob)/2 {
		t.Errorf("10-segment startup fetched %d of %d bytes (>=50%%)", st.BytesFetched, len(blob))
	}
}

func TestProgressiveFramesMatchLocalDecode(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	g, _, err := c.ProgressiveOpenABR(ts.URL+"/pkg/classroom", nil, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Local reference decode.
	pkg, err := gamepack.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	v, err := playback.OpenVideo(pkg.Video, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := g.head.ChapterByName("seg-classroom")
	for _, i := range []int{ch.Start, ch.Start + 3, ch.End - 1} {
		remote, err := g.FrameAt(i)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", i, err)
		}
		local, err := v.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !remote.Equal(local) {
			t.Fatalf("frame %d differs between remote and local decode", i)
		}
	}
	// Frames outside fetched segments fail until fetched.
	market, _ := g.head.ChapterByName("seg-market")
	if _, err := g.FrameAt(market.End - 1); err == nil {
		t.Fatal("unfetched frame decoded")
	}
	if _, err := g.FetchSegmentTier("seg-market", g.ABR().CurrentTier()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.FrameAt(market.End - 1); err != nil {
		t.Fatalf("after fetch: %v", err)
	}
	if _, err := g.FetchSegmentTier("seg-ghost", g.ABR().CurrentTier()); err == nil {
		t.Fatal("unknown segment fetched")
	}
}

func TestFetchResource(t *testing.T) {
	ts, _ := testServer(t)
	c := &Client{}
	body, st, err := c.FetchResource(ts.URL + "/res/umbrella")
	if err != nil {
		t.Fatal(err)
	}
	if body != "UMBRELLAS KEEP YOU DRY" {
		t.Errorf("body = %q", body)
	}
	if st.BytesFetched != len(body) {
		t.Errorf("stats = %+v", st)
	}
}

func TestExtentReaderSeek(t *testing.T) {
	ts, blob := testServer(t)
	// Ranged reads across extent boundaries must reproduce the exact bytes
	// of the assembled package (the store-backed reader is what ServeContent
	// sees for range requests).
	for _, r := range [][2]int{{0, 16}, {5, len(blob)}, {len(blob) / 2, len(blob)/2 + 8192}, {len(blob) - 7, len(blob)}} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/pkg/classroom", nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", r[0], r[1]-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", r[0], r[1], err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("range [%d,%d): %s, %v", r[0], r[1], resp.Status, err)
		}
		if string(got) != string(blob[r[0]:r[1]]) {
			t.Fatalf("range [%d,%d) differs from blob", r[0], r[1])
		}
	}
}

func TestETagNotModified(t *testing.T) {
	ts, blob := testServer(t)
	// First GET reports a validator.
	resp, err := http.Get(ts.URL + "/pkg/classroom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on package response")
	}
	// A conditional GET with the validator gets 304 and no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/pkg/classroom", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %s, want 304", resp.Status)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	// A stale validator still gets the full package.
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != len(blob) {
		t.Fatalf("stale validator: %s, %d bytes (want 200, %d)", resp.Status, len(body), len(blob))
	}
}

func TestDownloadCached(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	cache := NewPackageCache()
	var st Stats
	got, err := c.downloadWhole(ts.URL+"/pkg/classroom", cache, &st)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("first fetch differs")
	}
	if st.BytesFetched != len(blob) || st.NotModified != 0 {
		t.Errorf("first fetch stats = %+v", st)
	}
	// Second fetch revalidates: one request, no payload.
	st = Stats{}
	got, err = c.downloadWhole(ts.URL+"/pkg/classroom", cache, &st)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("cached fetch differs")
	}
	if st.Requests != 1 || st.BytesFetched != 0 || st.NotModified != 1 {
		t.Errorf("cached fetch stats = %+v", st)
	}
}

func TestMount(t *testing.T) {
	srv := NewServer()
	if err := srv.Mount("/pkg/", http.NotFoundHandler()); err == nil {
		t.Error("shadowing /pkg/ accepted")
	}
	if err := srv.Mount("/pkg/x", http.NotFoundHandler()); err == nil {
		t.Error("mount inside /pkg/ accepted")
	}
	if err := srv.Mount("/", http.NotFoundHandler()); err == nil {
		t.Error("root subtree mount accepted")
	}
	if err := srv.Mount("/list", http.NotFoundHandler()); err == nil {
		t.Error("shadowing /list accepted")
	}
	if err := srv.Mount("/chunk/", http.NotFoundHandler()); err == nil {
		t.Error("shadowing /chunk/ accepted")
	}
	if err := srv.Mount("/manifest/x", http.NotFoundHandler()); err == nil {
		t.Error("mount inside /manifest/ accepted")
	}
	if err := srv.Mount("/listing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})); err != nil {
		t.Errorf("non-shadowing /listing rejected: %v", err)
	}
	if err := srv.Mount("healthz", http.NotFoundHandler()); err == nil {
		t.Error("relative pattern accepted")
	}
	if err := srv.Mount("/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})); err != nil {
		t.Fatal(err)
	}
	if err := srv.Mount("/telemetry/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "telemetry:"+r.URL.Path)
	})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct{ path, want string }{
		{"/healthz", "ok"},
		{"/telemetry/stats", "telemetry:/telemetry/stats"},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != tc.want {
			t.Errorf("%s = %q, want %q", tc.path, body, tc.want)
		}
	}
	// /healthz/extra is not matched by the exact /healthz mount.
	resp, err := http.Get(ts.URL + "/healthz/extra")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/healthz/extra = %s, want 404", resp.Status)
	}
}

// --- chunk store delivery (PR 4) -------------------------------------------

// longCourse builds a 10-segment course; with edit set, segment 5 is
// re-shot (same amplitude, different noise) — the single-segment edit a
// delta client must sync.
func longCourse(t testing.TB, edit bool) []byte {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 12,
	})
	if edit {
		film.Shots[5].Seed ^= 0xbeef
	}
	video, err := studio.Record(film, studio.Options{QStep: 6, GOP: 10, ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := container.Open(video)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProject("Long Course")
	p.StartScenario = "s0"
	for i, ch := range r.Chapters() {
		p.Scenarios = append(p.Scenarios, &core.Scenario{
			ID: fmt.Sprintf("s%d", i), Name: ch.Name, Segment: ch.Name,
		})
	}
	blob, err := gamepack.Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestManifestEndpoint(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	body, _, err := c.FetchResource(ts.URL + "/manifest/classroom")
	if err != nil {
		t.Fatal(err)
	}
	man, err := gamepack.ParseManifest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Sections) != len(want.Sections) {
		t.Fatalf("manifest has %d sections, want %d", len(man.Sections), len(want.Sections))
	}
	if _, _, err := c.FetchResource(ts.URL + "/manifest/ghost"); err == nil {
		t.Error("missing manifest fetchable")
	}
}

func TestChunkEndpoint(t *testing.T) {
	ts, blob := testServer(t)
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	ref := man.Section(gamepack.SectionVideo).Chunks[0]
	c := &Client{}
	var st Stats
	data, err := c.fetchChunk(ts.URL, ref, nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	if blobstore.Sum(data) != ref.Hash || len(data) != ref.Size {
		t.Fatal("chunk bytes do not match manifest")
	}
	// Unknown chunk → 404; malformed hash → 400.
	var ghost gamepack.ChunkRef
	ghost.Hash[0] = 0xAB
	ghost.Size = 1
	if _, err := c.fetchChunk(ts.URL, ghost, nil, &st); err == nil {
		t.Error("unknown chunk served")
	}
	resp, err := http.Get(ts.URL + "/chunk/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hash = %s, want 400", resp.Status)
	}
}

func TestServerRejectsLyingManifest(t *testing.T) {
	// A package whose embedded manifest does not describe its payload must
	// be rejected at publish time.
	_, blob := testServer(t)
	secs, err := gamepack.Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	loc := secs[gamepack.SectionVideo]
	bad := append([]byte(nil), blob...)
	bad[loc[0]+loc[1]-1] ^= 0x01 // corrupt video payload (manifest now lies)
	srv := NewServer()
	if err := srv.AddPackage("liar", bad); err == nil {
		t.Fatal("package with mismatched manifest accepted")
	}

	// A structurally valid package whose *manifest* lies (one video chunk
	// hash flipped, section CRCs all correct) must also be rejected — and
	// the chunks deposited before the mismatch must be rolled back.
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	vsec := man.Section(gamepack.SectionVideo)
	vsec.Chunks[len(vsec.Chunks)-1].Hash[0] ^= 0xFF
	lying := rebuildWithManifest(t, blob, man)
	srv2 := NewServer()
	if err := srv2.AddPackage("liar", lying); err == nil {
		t.Fatal("package with lying manifest accepted")
	}
	if st := srv2.StoreStats(); st.Chunks != 0 || st.StoredBytes != 0 {
		t.Errorf("failed publish leaked %d chunks (%d bytes)", st.Chunks, st.StoredBytes)
	}

	// A manifest that leaves a section out does not tile the package, so
	// the server could not serve the package's bytes from it: refused.
	short, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	short.Sections = short.Sections[:len(short.Sections)-1]
	if err := srv2.AddPackage("liar", rebuildWithManifest(t, blob, short)); err == nil {
		t.Fatal("package whose manifest omits a section accepted")
	}
}

// rebuildWithManifest re-frames a package with a replacement manifest
// section payload, recomputing section CRCs (the TKGP layout is public).
func rebuildWithManifest(t *testing.T, blob []byte, man *gamepack.Manifest) []byte {
	t.Helper()
	secs, err := gamepack.Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	type sec struct {
		name string
		data []byte
	}
	var ordered []sec
	for name, loc := range secs {
		data := blob[loc[0] : loc[0]+loc[1]]
		if name == gamepack.SectionManifest {
			data = man.Encode()
		}
		ordered = append(ordered, sec{name, data})
	}
	sort.Slice(ordered, func(i, j int) bool { return secs[ordered[i].name][0] < secs[ordered[j].name][0] })
	var out []byte
	out = append(out, "TKGP"...)
	out = append(out, 1)
	out = binary.AppendUvarint(out, uint64(len(ordered)))
	for _, s := range ordered {
		out = binary.AppendUvarint(out, uint64(len(s.name)))
		out = append(out, s.name...)
		out = binary.AppendUvarint(out, uint64(len(s.data)))
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(s.data))
		out = append(out, crc[:]...)
		out = append(out, s.data...)
	}
	return out
}

// TestDedupAcrossCourses is the dedup acceptance: two courses sharing
// synthesized footage are stored as shared chunks exactly once — the
// store holds fewer bytes than the packages sum to.
func TestDedupAcrossCourses(t *testing.T) {
	course := content.Classroom()
	video, err := course.RecordVideo(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	blobA, err := gamepack.Build(course.Project, video)
	if err != nil {
		t.Fatal(err)
	}
	other := content.Classroom()
	other.Project.Title = "Remedial Repair Course"
	other.Project.Quizzes = other.Project.Quizzes[:1]
	blobB, err := gamepack.Build(other.Project, video)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddPackage("a", blobA); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddPackage("b", blobB); err != nil {
		t.Fatal(err)
	}
	st := srv.StoreStats()
	total := len(blobA) + len(blobB)
	if st.StoredBytes >= int64(total) {
		t.Errorf("store holds %d bytes for %d bytes of packages — no dedup", st.StoredBytes, total)
	}
	if st.DedupHits == 0 {
		t.Error("no dedup hits across shared-footage courses")
	}
	// Both packages still download byte-identical.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{}
	for name, want := range map[string][]byte{"a": blobA, "b": blobB} {
		got, _, err := c.DownloadDelta(ts.URL+"/pkg/"+name, NewPackageCache())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("package %q served differently than published", name)
		}
	}
}

func TestDownloadDeltaColdWarm(t *testing.T) {
	ts, blob := testServer(t)
	c := &Client{}
	cache := NewPackageCache()
	got, st, err := c.DownloadDelta(ts.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("cold delta download differs from package")
	}
	if st.ChunksFetched == 0 || st.ChunkHits != 0 {
		t.Errorf("cold stats = %+v", st)
	}
	// Warm: one conditional manifest request, no bytes.
	got, st, err = c.DownloadDelta(ts.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("warm delta download differs")
	}
	if st.Requests != 1 || st.BytesFetched != 0 || st.NotModified != 1 || st.ChunksFetched != 0 {
		t.Errorf("warm stats = %+v", st)
	}
}

// TestDeltaSyncSingleSegmentEdit is the delta acceptance: after a
// one-segment course edit, a re-syncing client transfers only the chunks
// whose hashes changed (every one verified), not the package.
func TestDeltaSyncSingleSegmentEdit(t *testing.T) {
	srv := NewServer()
	v1 := longCourse(t, false)
	if err := srv.AddPackage("long", v1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{}
	cache := NewPackageCache()
	url := ts.URL + "/pkg/long"
	if _, _, err := c.DownloadDelta(url, cache); err != nil {
		t.Fatal(err)
	}
	// Publish the edited course under the same name.
	v2 := longCourse(t, true)
	if err := srv.AddPackage("long", v2); err != nil {
		t.Fatal(err)
	}
	man1, _ := gamepack.ExtractManifest(v1)
	man2, _ := gamepack.ExtractManifest(v2)
	old := man1.ChunkSet()
	wantBytes, wantChunks := 0, 0
	for h, size := range man2.ChunkSet() {
		if _, ok := old[h]; !ok {
			wantBytes += size
			wantChunks++
		}
	}
	if wantChunks == 0 {
		t.Fatal("fixture edit changed no chunks")
	}
	got, st, err := c.DownloadDelta(url, cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(v2) {
		t.Fatal("resynced package differs from v2")
	}
	if st.ChunksFetched != wantChunks {
		t.Errorf("fetched %d chunks, manifest diff is %d", st.ChunksFetched, wantChunks)
	}
	manifestBytes := len(man2.Encode())
	if st.BytesFetched != wantBytes+manifestBytes {
		t.Errorf("fetched %d bytes, want %d chunk bytes + %d manifest bytes", st.BytesFetched, wantBytes, manifestBytes)
	}
	if st.BytesFetched >= len(v2)/2 {
		t.Errorf("delta transferred %d of %d bytes — not a delta", st.BytesFetched, len(v2))
	}
	if st.ChunkHits == 0 {
		t.Error("no chunk cache hits on unchanged segments")
	}
}

// TestDeltaVerifiesChunkHashes: a server (or middlebox) that returns wrong
// chunk bytes must be caught by per-chunk verification, never assembled.
func TestDeltaVerifiesChunkHashes(t *testing.T) {
	inner, want := testServer(t)
	// A proxy that forwards everything but flips one byte in every chunk
	// response — a corrupted cache or hostile middlebox.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(inner.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if strings.HasPrefix(r.URL.Path, "/chunk/") && len(body) > 0 {
			body[len(body)/2] ^= 0x01
		}
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer proxy.Close()
	c := &Client{}
	cache := NewPackageCache()
	// Per-chunk verification rejects every corrupted chunk; the sync then
	// degrades to the whole-package path (uncorrupted here) instead of
	// failing outright.
	blob, st, err := c.DownloadDelta(proxy.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatalf("delta did not fall back past corrupted chunks: %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("fallback package differs from the server's")
	}
	if st.ChunksFetched != 0 {
		t.Fatalf("%d corrupted chunks counted as fetched", st.ChunksFetched)
	}
	// The corrupted bytes never entered the shared chunk cache. Verifying
	// a chunk and caching it are one step, so the cache itself must hold
	// nothing — under the address the manifest asked for or any other —
	// and an honest sync through this same cache fetches every chunk.
	if cs := cache.Chunks().Stats(); cs.Chunks != 0 || cs.StoredBytes != 0 {
		t.Fatalf("%d corrupted chunks (%d B) resident in the cache", cs.Chunks, cs.StoredBytes)
	}
	man, err := gamepack.ExtractManifest(want)
	if err != nil {
		t.Fatal(err)
	}
	blob2, st2, err := c.DownloadDelta(inner.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob2, want) {
		t.Fatal("honest delta sync differs from the server's package")
	}
	if st2.ChunkHits != 0 || st2.ChunksFetched != len(man.ChunkSet()) {
		t.Fatalf("honest sync through the same cache: %d hits, %d of %d chunks fetched", st2.ChunkHits, st2.ChunksFetched, len(man.ChunkSet()))
	}
}

// TestChunkBodyLengthRejected: a chunk body one byte short or one byte
// long, with headers that agree with it, is refused whole — never cut or
// padded to the manifest's size and passed. The chunk is not asked for
// twice, the sync takes its one whole-package degrade, and the mangled
// body is not cached.
func TestChunkBodyLengthRejected(t *testing.T) {
	inner, want := testServer(t)
	for name, mangle := range map[string]func([]byte) []byte{
		"short": func(b []byte) []byte { return b[:len(b)-1] },
		"long":  func(b []byte) []byte { return append(b, b[0]) },
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			hits := map[string]int{}
			victim := ""
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				hits[r.URL.Path]++
				if victim == "" && strings.HasPrefix(r.URL.Path, "/chunk/") {
					victim = r.URL.Path
				}
				hit := r.URL.Path == victim
				mu.Unlock()
				if !hit {
					inner.Config.Handler.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				inner.Config.Handler.ServeHTTP(rec, r)
				body := mangle(rec.Body.Bytes())
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				w.Write(body)
			}))
			defer proxy.Close()
			cache := NewPackageCache()
			blob, _, err := (&Client{}).DownloadDelta(proxy.URL+"/pkg/classroom", cache)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatal("synced package differs from the server's")
			}
			if hits[victim] != 1 || hits["/pkg/classroom"] != 1 {
				t.Errorf("%s chunk body requested %d times, /pkg/ %d times; want one rejection and the one degrade", name, hits[victim], hits["/pkg/classroom"])
			}
			h, err := blobstore.ParseHash(strings.TrimPrefix(victim, "/chunk/"))
			if err != nil {
				t.Fatal(err)
			}
			if cache.Chunks().Has(h) {
				t.Errorf("a %s body was cached under its address", name)
			}
		})
	}
}

// TestColdDeltaAllocations pins the one-buffer rule of a fill: a cold
// DownloadDelta reads each chunk into one buffer of its manifest size that
// the cache keeps, and copies it once into a blob sized from the manifest,
// so everything it allocates — the HTTP exchanges of both ends included,
// since the server runs in this process — stays under 3× the package.
// It reads 2.5× (2.6× under -race); growing bodies from 512 B, a second
// copy into the cache and a two-stage assembly cost 7.9× on this fixture.
func TestColdDeltaAllocations(t *testing.T) {
	ts, blob := testServer(t)
	// A transport that pools as many connections as a sync opens, warmed
	// by one sync: the pin is the fill, not the dials.
	c := &Client{HTTP: &http.Client{Transport: faultnet.NewHTTPTransport(chunkFetchParallelism)}}
	url := ts.URL + "/pkg/classroom"
	if _, _, err := c.DownloadDelta(url, NewPackageCache()); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		cache := NewPackageCache()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := c.DownloadDelta(url, cache)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatal("cold delta differs from the package")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	ratio := float64(least) / float64(len(blob))
	t.Logf("cold DownloadDelta of a %d B package allocates %d B (%.2f×)", len(blob), least, ratio)
	if ratio > 3 {
		t.Errorf("cold DownloadDelta allocates %.2f× the package, want ≤ 3×", ratio)
	}
}

// TestChunkBodyCutRefetched: a chunk GET whose body dies after the headers
// is a failed attempt, not a failed fetch — the chunk is re-requested and
// the sync completes as a manifest diff (same Stats as a clean run, /pkg/
// never touched). An integrity rejection is the opposite: a chunk whose
// bytes do not hash to their name is never asked for twice.
func TestChunkBodyCutRefetched(t *testing.T) {
	inner, want := testServer(t)
	_, clean, err := (&Client{}).DownloadDelta(inner.URL+"/pkg/classroom", NewPackageCache())
	if err != nil {
		t.Fatal(err)
	}
	// fault mangles the first chunk response it sees, and every later
	// response for that same chunk when sticky is set.
	run := func(sticky bool, fault func(w http.ResponseWriter, body []byte)) (Stats, map[string]int, string) {
		t.Helper()
		var mu sync.Mutex
		hits := map[string]int{}
		victim := ""
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[r.URL.Path]++
			hit := false
			if strings.HasPrefix(r.URL.Path, "/chunk/") && (victim == "" || (sticky && victim == r.URL.Path)) {
				victim, hit = r.URL.Path, true
			}
			mu.Unlock()
			if !hit {
				inner.Config.Handler.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.Config.Handler.ServeHTTP(rec, r)
			fault(w, rec.Body.Bytes())
		}))
		defer proxy.Close()
		blob, st, err := (&Client{}).DownloadDelta(proxy.URL+"/pkg/classroom", NewPackageCache())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatal("synced package differs from the server's")
		}
		st.Elapsed = 0
		return st, hits, victim
	}

	st, hits, victim := run(false, func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the connection dies mid-body
	})
	clean.Elapsed = 0
	if st != clean {
		t.Errorf("stats with one cut chunk body = %+v, want the clean run's %+v", st, clean)
	}
	if hits[victim] != 2 || hits["/pkg/classroom"] != 0 {
		t.Errorf("cut chunk requested %d times, /pkg/ %d times; want one re-fetch and no whole-package degrade", hits[victim], hits["/pkg/classroom"])
	}

	st, hits, victim = run(true, func(w http.ResponseWriter, body []byte) {
		body[len(body)/2] ^= 0x01
		w.Write(body)
	})
	if hits[victim] != 1 || hits["/pkg/classroom"] != 1 {
		t.Errorf("corrupted chunk requested %d times, /pkg/ %d times; want one rejection and the one degrade", hits[victim], hits["/pkg/classroom"])
	}
	if st.ChunksFetched >= clean.ChunksFetched {
		t.Errorf("corrupted chunk counted as fetched: %+v", st)
	}
}

// TestPackageCacheByteBudget pins the satellite: the package cache evicts
// by LRU once its byte budget is exceeded instead of growing per URL.
func TestPackageCacheByteBudget(t *testing.T) {
	srv := NewServer()
	blobs := map[string][]byte{}
	for _, name := range []string{"classroom", "museum", "street"} {
		var course *content.Course
		switch name {
		case "classroom":
			course = content.Classroom()
		case "museum":
			course = content.Museum()
		default:
			course = content.StreetDemo()
		}
		blob, err := course.BuildPackage(studio.Options{QStep: 8})
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
		if err := srv.AddPackage(name, blob); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Budget fits roughly one package: walking all three must evict.
	budget := int64(len(blobs["classroom"]) + 1000)
	cache := NewPackageCacheBudget(budget, 1<<20)
	c := &Client{}
	for _, name := range []string{"classroom", "museum", "street"} {
		got, _, err := c.DownloadDelta(ts.URL+"/pkg/"+name, cache)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(blobs[name]) {
			t.Fatalf("package %q differs", name)
		}
	}
	if cache.Bytes() > budget {
		t.Errorf("cache holds %d bytes over budget %d", cache.Bytes(), budget)
	}
	if cache.Evicted() == 0 {
		t.Error("no evictions after walking three packages")
	}
	if cache.Len() >= 3 {
		t.Errorf("cache kept all %d packages despite budget", cache.Len())
	}
	// An evicted package re-syncs correctly (chunks may still be cached).
	got, _, err := c.DownloadDelta(ts.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blobs["classroom"]) {
		t.Fatal("re-downloaded evicted package differs")
	}
}

// TestPackageCacheNeverOverBudget walks the demos with a budget that fits
// the smallest package and not the largest: after every fill the assembled
// tier holds at most its budget, a package larger than the whole budget
// included, and one that fits is kept and answered from the cache.
func TestPackageCacheNeverOverBudget(t *testing.T) {
	srv := NewServer()
	blobs := map[string][]byte{}
	for _, name := range []string{"classroom", "museum", "street"} {
		var course *content.Course
		switch name {
		case "classroom":
			course = content.Classroom()
		case "museum":
			course = content.Museum()
		default:
			course = content.StreetDemo()
		}
		blob, err := course.BuildPackage(studio.Options{QStep: 8})
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
		if err := srv.AddPackage(name, blob); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	smallest, largest := "", ""
	for name, b := range blobs {
		if smallest == "" || len(b) < len(blobs[smallest]) {
			smallest = name
		}
		if largest == "" || len(b) > len(blobs[largest]) {
			largest = name
		}
	}
	budget := int64(len(blobs[smallest]) + 1000)
	if int64(len(blobs[largest])) <= budget {
		t.Fatalf("largest package %d B fits the %d B budget: the walk proves nothing", len(blobs[largest]), budget)
	}
	cache := NewPackageCacheBudget(budget, 1<<20)
	c := &Client{}
	var evictions int64
	for _, name := range []string{smallest, largest, "classroom", "museum", "street", largest, smallest} {
		got, _, err := c.DownloadDelta(ts.URL+"/pkg/"+name, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[name]) {
			t.Fatalf("package %q differs", name)
		}
		if n := cache.Bytes(); n > budget {
			t.Fatalf("after %s the cache holds %d B over its %d B budget", name, n, budget)
		}
		if name == largest && cache.Evicted() == evictions {
			t.Fatalf("%s (%d B) arrived over the %d B budget and nothing was evicted", name, len(blobs[name]), budget)
		}
		evictions = cache.Evicted()
	}
	// The last fill fits, so it stays: a repeat is a revalidation.
	if cache.Len() != 1 || cache.Bytes() != int64(len(blobs[smallest])) {
		t.Fatalf("cache holds %d packages, %d B; want %s alone", cache.Len(), cache.Bytes(), smallest)
	}
	_, st, err := c.DownloadDelta(ts.URL+"/pkg/"+smallest, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st.NotModified != 1 {
		t.Fatalf("repeat of the cached package: %+v, want one not-modified", st)
	}
}

func TestProgressiveOpenCachedReusesChunks(t *testing.T) {
	ts, _ := testServer(t)
	c := &Client{}
	cache := NewPackageCache()
	_, st1, err := c.ProgressiveOpenABR(ts.URL+"/pkg/classroom", cache, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.ChunksFetched == 0 {
		t.Fatalf("first open fetched no chunks: %+v", st1)
	}
	// Second learner on the same cache: same chunks, near-zero transfer
	// (only the manifest crosses the wire again).
	g, st2, err := c.ProgressiveOpenABR(ts.URL+"/pkg/classroom", cache, ABRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ChunksFetched != 0 {
		t.Errorf("second open refetched %d chunks", st2.ChunksFetched)
	}
	if st2.ChunkHits == 0 {
		t.Error("second open hit no cached chunks")
	}
	if st2.Requests != 1 {
		t.Errorf("second open made %d requests, want the manifest alone", st2.Requests)
	}
	if st2.BytesFetched >= st1.BytesFetched {
		t.Errorf("second open fetched %d bytes, first %d", st2.BytesFetched, st1.BytesFetched)
	}
	if !g.HasSegment("seg-classroom") {
		t.Error("start segment not available")
	}
}

func TestLegacyServerFallback(t *testing.T) {
	// A server without /manifest/ still syncs through DownloadDelta's single
	// degrade step, and the stats of both legs are summed once.
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/pkg/classroom" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, r, "classroom.tkg", time.Unix(0, 0), bytes.NewReader(blob))
	}))
	defer legacy.Close()
	c := &Client{}
	cache := NewPackageCache()
	got, st, err := c.DownloadDelta(legacy.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("fallback download differs")
	}
	// One 404 on /manifest/ plus one whole-package GET.
	if st.Requests != 2 || st.BytesFetched != len(blob) || st.ChunksFetched != 0 || st.NotModified != 0 {
		t.Errorf("fallback stats = %+v, want 2 requests and %d bytes", st, len(blob))
	}
	// Warm: the manifest is still missing, the whole-package step revalidates.
	got, st, err = c.DownloadDelta(legacy.URL+"/pkg/classroom", cache)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatal("warm fallback download differs")
	}
	if st.Requests != 2 || st.BytesFetched != 0 || st.NotModified != 1 {
		t.Errorf("warm fallback stats = %+v, want 2 requests, one 304, no bytes", st)
	}
}

// TestPackageReplaceReleasesChunks: a course update must not leak the old
// version's chunks — only chunks still referenced by some published
// package stay in the store.
func TestPackageReplaceReleasesChunks(t *testing.T) {
	srv := NewServer()
	v1 := longCourse(t, false)
	v2 := longCourse(t, true)
	if err := srv.AddPackage("long", v1); err != nil {
		t.Fatal(err)
	}
	chunksAfterV1 := srv.StoreStats().Chunks
	if err := srv.AddPackage("long", v2); err != nil {
		t.Fatal(err)
	}
	st := srv.StoreStats()
	man2, _ := gamepack.ExtractManifest(v2)
	if st.Chunks != len(man2.ChunkSet()) {
		t.Errorf("store holds %d chunks after replace, v2 manifest has %d", st.Chunks, len(man2.ChunkSet()))
	}
	if st.Chunks >= chunksAfterV1+len(man2.ChunkSet()) {
		t.Error("replacement leaked the old version's chunks")
	}
	// Old-only chunks are gone; shared and new chunks serve.
	man1, _ := gamepack.ExtractManifest(v1)
	newSet := man2.ChunkSet()
	for h := range man1.ChunkSet() {
		if _, shared := newSet[h]; !shared && srv.store.Has(h) {
			t.Errorf("old-only chunk %s still stored", h)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &Client{}
	got, _, err := c.DownloadDelta(ts.URL+"/pkg/long", NewPackageCache())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(v2) {
		t.Fatal("replaced package serves wrong bytes")
	}
}

// TestDeltaSyncMetricsAndForget: a Client with Metrics observes one bytes
// sample and one duration sample per sync into the registry they are
// registered on, and a forgotten package is reassembled from the chunk
// tier on the next sync — no chunk crosses the wire again.
func TestDeltaSyncMetricsAndForget(t *testing.T) {
	ts, blob := testServer(t)
	reg := obs.NewRegistry("")
	c := &Client{Metrics: NewClientMetrics()}
	c.Metrics.Register(reg)
	cache := NewPackageCache()
	url := ts.URL + "/pkg/classroom"

	_, cold, err := c.DownloadDelta(url, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ChunksFetched == 0 || cache.Len() != 1 {
		t.Fatalf("cold sync fetched %d chunks, cache holds %d packages", cold.ChunksFetched, cache.Len())
	}
	cache.Forget(url)
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Fatalf("after Forget the cache holds %d packages, %d bytes", cache.Len(), cache.Bytes())
	}
	got, warm, err := c.DownloadDelta(url, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("the reassembled package differs from the published one")
	}
	if warm.NotModified != 0 || warm.ChunksFetched != 0 || warm.ChunkHits != cold.ChunksFetched {
		t.Fatalf("sync after Forget: %+v, want an unconditional manifest and all %d chunks from the chunk tier", warm, cold.ChunksFetched)
	}

	snap := reg.Snapshot()
	hist := func(name string) *obs.HistogramSnapshot {
		t.Helper()
		m := snap.Metric(name)
		if m == nil || len(m.Series) != 1 || m.Series[0].Histogram == nil {
			t.Fatalf("registry has no %s histogram", name)
		}
		return m.Series[0].Histogram
	}
	if h, want := hist("netstream_delta_bytes"), int64(cold.BytesFetched+warm.BytesFetched); h.Count != 2 || h.Sum != want {
		t.Fatalf("delta bytes: %d samples summing to %d, want 2 summing to %d", h.Count, h.Sum, want)
	}
	if h := hist("netstream_delta_seconds"); h.Count != 2 {
		t.Fatalf("delta seconds: %d samples, want 2", h.Count)
	}
}
