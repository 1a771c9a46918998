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
	// A missing package is one request: its manifest's 404.
	if _, st, err := c.DownloadDelta(ts.URL+"/pkg/ghost", NewPackageCache()); err == nil {
		t.Error("missing package downloadable")
	} else if st.Requests != 1 {
		t.Errorf("missing package cost %d requests, want the manifest's one", st.Requests)
	}
	if _, _, err := c.FetchResource(ts.URL + "/res/ghost"); err == nil {
		t.Error("missing resource fetchable")
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

// TestETagNotModified: /manifest/ answers a conditional GET that names
// the package's validator with a bodiless 304, and a stale one with the
// manifest.
func TestETagNotModified(t *testing.T) {
	ts, blob := testServer(t)
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	enc := man.Encode()
	// First GET reports a validator.
	resp, err := http.Get(ts.URL + "/manifest/classroom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on manifest response")
	}
	// A conditional GET with the validator gets 304 and no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/manifest/classroom", nil)
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
	// A stale validator still gets the whole manifest.
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != len(enc) {
		t.Fatalf("stale validator: %s, %d bytes (want 200, %d)", resp.Status, len(body), len(enc))
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

// TestDeltaSyncAcrossRepublish: a course re-published while a sync is in
// flight removes the chunks only the old version used, so the sync's chunk
// GETs from the old manifest can answer 404. The sync then runs once more
// from the new manifest and returns the new package byte for byte: two
// manifest requests, each chunk requested once (the ones verified before
// the re-publish stay in the cache), and nothing but /manifest/ and
// /chunk/ asked for.
func TestDeltaSyncAcrossRepublish(t *testing.T) {
	v1, v2 := longCourse(t, false), longCourse(t, true)
	man1, _ := gamepack.ExtractManifest(v1)
	man2, _ := gamepack.ExtractManifest(v2)
	set2 := man2.ChunkSet()
	gone := 0
	for h := range man1.ChunkSet() {
		if _, ok := set2[h]; !ok {
			gone++
		}
	}
	if gone == 0 {
		t.Fatal("fixture: v2 keeps every v1 chunk, so no chunk GET can miss")
	}
	srv := NewServer()
	if err := srv.AddPackage("long", v1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hits := map[string]int{}
	var republish sync.Once
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, "/chunk/") {
			republish.Do(func() {
				if err := srv.AddPackage("long", v2); err != nil {
					t.Error(err)
				}
			})
		}
		srv.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	got, st, err := (&Client{}).DownloadDelta(proxy.URL+"/pkg/long", NewPackageCache())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("the sync across the re-publish did not return v2")
	}
	for path, n := range hits {
		switch {
		case path == "/manifest/long":
			if n != 2 {
				t.Errorf("%d manifest requests, want 2", n)
			}
		case strings.HasPrefix(path, "/chunk/"):
			if n != 1 {
				t.Errorf("%s requested %d times, want once", path, n)
			}
		default:
			t.Errorf("%s requested %d times; a sync asks only for the manifest and chunks", path, n)
		}
	}
	if st.ChunksFetched != len(set2) {
		t.Errorf("%d chunks fetched, v2 has %d", st.ChunksFetched, len(set2))
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
	// Per-chunk verification rejects every corrupted chunk, and an
	// integrity rejection fails the sync.
	blob, st, err := c.DownloadDelta(proxy.URL+"/pkg/classroom", cache)
	if err == nil {
		t.Fatalf("delta returned a %d-byte package assembled from corrupted chunks", len(blob))
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
// twice, the sync fails, and the mangled body is not cached.
func TestChunkBodyLengthRejected(t *testing.T) {
	inner, _ := testServer(t)
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
			if err == nil {
				t.Fatalf("a %s chunk body synced: %d-byte package, no error", name, len(blob))
			}
			if hits[victim] != 1 {
				t.Errorf("%s chunk body requested %d times; want the one rejection", name, hits[victim])
			}
			if cache.Len() != 0 {
				t.Errorf("a sync refused for a %s body cached a package", name)
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
// the sync completes as a manifest diff (same Stats as a clean run). An
// integrity rejection is the opposite: a chunk whose bytes do not hash to
// their name is never asked for twice, and the sync fails.
func TestChunkBodyCutRefetched(t *testing.T) {
	inner, want := testServer(t)
	_, clean, err := (&Client{}).DownloadDelta(inner.URL+"/pkg/classroom", NewPackageCache())
	if err != nil {
		t.Fatal(err)
	}
	// fault mangles the first chunk response it sees, and every later
	// response for that same chunk when sticky is set.
	run := func(sticky bool, fault func(w http.ResponseWriter, body []byte)) (Stats, map[string]int, string, error) {
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
		if err == nil && !bytes.Equal(blob, want) {
			t.Fatal("synced package differs from the server's")
		}
		st.Elapsed = 0
		return st, hits, victim, err
	}

	st, hits, victim, err := run(false, func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the connection dies mid-body
	})
	if err != nil {
		t.Fatal(err)
	}
	clean.Elapsed = 0
	if st != clean {
		t.Errorf("stats with one cut chunk body = %+v, want the clean run's %+v", st, clean)
	}
	if hits[victim] != 2 {
		t.Errorf("cut chunk requested %d times; want one re-fetch", hits[victim])
	}

	st, hits, victim, err = run(true, func(w http.ResponseWriter, body []byte) {
		body[len(body)/2] ^= 0x01
		w.Write(body)
	})
	if err == nil {
		t.Fatal("a corrupted chunk body synced with no error")
	}
	if hits[victim] != 1 {
		t.Errorf("corrupted chunk requested %d times; want the one rejection", hits[victim])
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
	cache := NewPackageCache()
	cache.budget, cache.chunks = budget, blobstore.NewCache(1<<20)
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
	cache := NewPackageCache()
	cache.budget, cache.chunks = budget, blobstore.NewCache(1<<20)
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

// gatedBackend is an in-memory chunk backend whose Put number blockAt
// (counted from 1) signals entered and then waits until release is closed.
type gatedBackend struct {
	blobstore.Backend
	mu      sync.Mutex
	puts    int
	blockAt int
	entered chan struct{}
	release chan struct{}
}

func (b *gatedBackend) Put(h blobstore.Hash, data []byte) (bool, error) {
	b.mu.Lock()
	b.puts++
	block := b.puts == b.blockAt
	b.mu.Unlock()
	if block {
		close(b.entered)
		<-b.release
	}
	return b.Backend.Put(h, data)
}

// TestPublishReservesItsChunks: a publish deposits its chunks with no lock
// held, so a replace of another package completes while that deposit is
// blocked in the chunk store — and cannot release a chunk the blocked
// publish has already deposited. Here "b" is v1 of a course that "a" also
// holds, blocked at its last chunk; "a" is replaced by v2, which drops
// v1's edited segment. Every chunk of "b" must still be stored, and "b"
// must download byte for byte.
func TestPublishReservesItsChunks(t *testing.T) {
	v1, v2 := longCourse(t, false), longCourse(t, true)
	man1, _ := gamepack.ExtractManifest(v1)
	refs := 0
	for _, sc := range man1.Sections {
		refs += len(sc.Chunks)
	}
	be := &gatedBackend{Backend: blobstore.NewMemory(), entered: make(chan struct{}), release: make(chan struct{})}
	store, err := blobstore.New(blobstore.Options{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store)
	if err := srv.AddPackage("a", v1); err != nil {
		t.Fatal(err)
	}
	be.mu.Lock()
	be.blockAt = be.puts + refs // the last chunk of the next publish
	be.mu.Unlock()
	published := make(chan error, 1)
	go func() { published <- srv.AddPackage("b", v1) }()
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(be.release) }) }
	defer release()
	select {
	case <-be.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the publish of b never reached its last chunk")
	}
	replaced := make(chan error, 1)
	go func() { replaced <- srv.AddPackage("a", v2) }()
	var err2 error
	select {
	case err2 = <-replaced:
	case <-time.After(2 * time.Second):
		t.Error("replacing a waited for the publish of b")
		release()
		err2 = <-replaced
	}
	release()
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if err2 != nil {
		t.Fatal(err2)
	}
	for h := range man1.ChunkSet() {
		if !srv.store.Has(h) {
			t.Errorf("chunk %s of the published b is gone from the store", h)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	got, _, err := (&Client{}).DownloadDelta(ts.URL+"/pkg/b", NewPackageCache())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("b downloads other bytes than were published")
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

// TestChunkGetTakesNoWriteLock: a GET of a tiered chunk counts its bytes
// on its tier under the server's read lock alone, so it completes while
// the test holds that lock (as every concurrent chunk GET does), and the
// tier's counter grows by the chunk's size.
func TestChunkGetTakesNoWriteLock(t *testing.T) {
	ts, srv, reg := ladderTestServer(t)
	man, err := gamepack.ParseManifest(srv.pkg("course").manifest)
	if err != nil {
		t.Fatal(err)
	}
	var chunk gamepack.ChunkRef
	var label string
	for _, sc := range man.Sections {
		if tier, ok := gamepack.VideoSectionTier(sc.Name); ok && len(sc.Chunks) > 0 {
			chunk, label = sc.Chunks[0], TierLabel(tier)
			break
		}
	}
	if label == "" {
		t.Fatal("the ladder package has no tiered chunk")
	}
	before := serverTierBytes(reg)[label]

	srv.mu.RLock()
	got := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/chunk/" + chunk.Hash.String())
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("answered %s", resp.Status)
			}
		}
		got <- err
	}()
	select {
	case err := <-got:
		srv.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		srv.mu.RUnlock()
		<-got
		t.Fatal("a chunk GET waited on the server's write lock")
	}
	if n := serverTierBytes(reg)[label] - before; n != int64(chunk.Size) {
		t.Fatalf("tier %q counted %d bytes for a %d-byte chunk", label, n, chunk.Size)
	}
}
