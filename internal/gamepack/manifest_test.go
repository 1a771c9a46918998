package gamepack

import (
	"errors"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/media/container"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

func storeFor(t testing.TB, blobs ...[]byte) *blobstore.Store {
	t.Helper()
	s, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range blobs {
		if _, err := DepositChunks(blob, s); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestManifestEncodeParseRoundTrip(t *testing.T) {
	p, video := fixture(t)
	blob, err := Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	re, err := ParseManifest(man.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Sections) != len(man.Sections) {
		t.Fatalf("%d sections after round trip, want %d", len(re.Sections), len(man.Sections))
	}
	for i := range man.Sections {
		a, b := man.Sections[i], re.Sections[i]
		if a.Name != b.Name || len(a.Chunks) != len(b.Chunks) {
			t.Fatalf("section %d differs: %q/%d vs %q/%d", i, a.Name, len(a.Chunks), b.Name, len(b.Chunks))
		}
		for j := range a.Chunks {
			if a.Chunks[j] != b.Chunks[j] {
				t.Fatalf("chunk %d.%d differs", i, j)
			}
		}
	}
	// The placeholder sits right before the video section.
	if ph := man.Section(SectionManifest); ph == nil || len(ph.Chunks) != 0 {
		t.Fatal("manifest placeholder missing or non-empty")
	}
}

func TestManifestChunksTileSections(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	man, err := ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	secs, _ := Sections(blob)
	for _, sc := range man.Sections {
		if sc.Name == SectionManifest {
			continue
		}
		loc, ok := secs[sc.Name]
		if !ok {
			t.Fatalf("manifest names unknown section %q", sc.Name)
		}
		if sc.PayloadSize() != loc[1] {
			t.Errorf("section %q: chunks sum to %d, payload is %d", sc.Name, sc.PayloadSize(), loc[1])
		}
		off := loc[0]
		for i, c := range sc.Chunks {
			if got := blobstore.Sum(blob[off : off+c.Size]); got != c.Hash {
				t.Errorf("section %q chunk %d hash mismatch", sc.Name, i)
			}
			off += c.Size
		}
	}
}

func TestManifestLayoutMatchesBlob(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	man, _ := ExtractManifest(blob)
	locs, total := man.Layout()
	if total != len(blob) {
		t.Fatalf("layout total %d, blob is %d", total, len(blob))
	}
	secs, _ := Sections(blob)
	for _, loc := range locs {
		want := secs[loc.Name]
		if loc.Off != want[0] || loc.Size != want[1] {
			t.Errorf("section %q layout [%d,%d), blob has [%d,%d)", loc.Name, loc.Off, loc.Size, want[0], want[1])
		}
	}
}

func TestManifestAssembleBitIdentical(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	man, _ := ExtractManifest(blob)
	store := storeFor(t, blob)
	re, err := man.Assemble(store.Get)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(blob) {
		t.Fatal("reassembled blob differs from original")
	}
	// A blob without an embedded manifest is refused, and deposits nothing.
	legacy := assemble([]section{
		{SectionProject, mustMarshal(t, p)},
		{SectionVideo, video},
	})
	chunks := store.Stats().Chunks
	if _, err := DepositChunks(legacy, store); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("DepositChunks(manifest-less) = %v, want ErrNoManifest", err)
	}
	if got := store.Stats().Chunks; got != chunks {
		t.Fatalf("a refused deposit grew the store from %d to %d chunks", chunks, got)
	}
}

func mustMarshal(t *testing.T, p *core.Project) []byte {
	t.Helper()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSharedSegmentsDedup is the dedup acceptance at the format level: two
// courses over the same footage produce byte-identical video chunks, and a
// shared film segment produces identical chunks even at different film
// positions (keyframe-aligned cuts).
func TestSharedSegmentsDedup(t *testing.T) {
	p, video := fixture(t)
	blobA, err := Build(p, video)
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewProject("Same Footage, Other Course")
	q.Author = "tester2"
	q.StartScenario = "a"
	q.Scenarios = []*core.Scenario{{ID: "a", Name: "A", Segment: "shot-000-x"}}
	blobB, err := Build(q, video)
	if err != nil {
		t.Fatal(err)
	}
	manA, _ := ExtractManifest(blobA)
	manB, _ := ExtractManifest(blobB)
	av, bv := manA.Section(SectionVideo), manB.Section(SectionVideo)
	if len(av.Chunks) == 0 || len(av.Chunks) != len(bv.Chunks) {
		t.Fatalf("video chunk counts %d vs %d", len(av.Chunks), len(bv.Chunks))
	}
	for i := range av.Chunks {
		if av.Chunks[i] != bv.Chunks[i] {
			t.Fatalf("video chunk %d differs between identical-footage courses", i)
		}
	}
	// Store both packages: shared chunks are stored once, so the store
	// holds fewer bytes than the two packages sum to.
	store := storeFor(t, blobA, blobB)
	st := store.Stats()
	if st.StoredBytes >= int64(len(blobA)+len(blobB)) {
		t.Errorf("store holds %d bytes, packages sum to %d — no dedup", st.StoredBytes, len(blobA)+len(blobB))
	}
	if st.DedupHits == 0 {
		t.Error("no dedup hits storing identical-footage courses")
	}
}

// TestSegmentEditChangesOnlyItsChunks pins the delta-sync property: after
// re-recording one segment, the other segments' chunks are unchanged.
func TestSegmentEditChangesOnlyItsChunks(t *testing.T) {
	// Two films sharing an identical first shot; the second shot is edited.
	// Shots start on keyframes (GOP = shot length), so the first segment's
	// encoded bytes — and therefore its chunks — are identical.
	spec := synth.Spec{W: 48, H: 32, FPS: 8, Shots: 2, MinShotFrames: 8, MaxShotFrames: 8, Seed: 11, NoiseAmp: 1}
	filmA := synth.Generate(spec)
	filmB := synth.Generate(spec)
	filmB.Shots[1].Seed ^= 0xdeadbeef
	filmB.Shots[1].NoiseAmp += 2
	videoA, err := studio.Record(filmA, studio.Options{ShotMarkers: true, GOP: 8})
	if err != nil {
		t.Fatal(err)
	}
	videoB, err := studio.Record(filmB, studio.Options{ShotMarkers: true, GOP: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunksA, err := chunkVideo(videoA, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	chunksB, err := chunkVideo(videoB, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	setA := map[blobstore.Hash]bool{}
	for _, c := range chunksA {
		setA[c.Hash] = true
	}
	shared := 0
	for _, c := range chunksB {
		if setA[c.Hash] {
			shared++
		}
	}
	// The first segment's chunks must be shared; the head (index changed)
	// and the edited segment must not.
	if shared == 0 {
		t.Fatalf("single-segment edit shares no chunks (%d vs %d)", len(chunksA), len(chunksB))
	}
	if shared == len(chunksB) {
		t.Fatal("edit changed nothing")
	}
}

// TestParseManifestCorrupt is the table-driven rejection suite: every
// malformed manifest must be rejected with ErrBadManifest.
func TestParseManifestCorrupt(t *testing.T) {
	p, video := fixture(t)
	blob, _ := Build(p, video)
	man, _ := ExtractManifest(blob)
	good := man.Encode()

	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", good[:3]},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mut(func(b []byte) []byte { b[4] = 9; return b })},
		{"zero sections", append([]byte(manifestMagic), manifestVersion, 0)},
		{"huge section count", append([]byte(manifestMagic), manifestVersion, 200)},
		{"truncated mid-table", good[:len(good)/2]},
		{"truncated hash", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte(nil), good...), 0xFF)},
		{"zero-length name", append([]byte(manifestMagic), manifestVersion, 1, 0)},
		{"huge name", append([]byte(manifestMagic), manifestVersion, 1, 0xFF, 0xFF, 0x03)},
		{"zero-size chunk", func() []byte {
			b := append([]byte(manifestMagic), manifestVersion, 1, 1, 'v', 1, 0)
			return b
		}()},
		{"duplicate section", func() []byte {
			m := &Manifest{Sections: []SectionChunks{{Name: "dup"}, {Name: "dup"}}}
			return m.Encode()
		}()},
		{"payload claim overflow", func() []byte {
			// Two max-size chunks: a tiny manifest must not be able to make
			// a client size an allocation beyond the format's payload bound.
			m := &Manifest{Sections: []SectionChunks{{Name: "video", Chunks: []ChunkRef{
				{Size: 1 << 31}, {Size: 1 << 31},
			}}}}
			return m.Encode()
		}()},
		{"overflow varint", append([]byte(manifestMagic), manifestVersion,
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ParseManifest(tc.data)
			if err == nil {
				t.Fatalf("accepted: %+v", m)
			}
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("error does not wrap ErrBadManifest: %v", err)
			}
		})
	}
}

func TestExtractManifestMissing(t *testing.T) {
	p, video := fixture(t)
	projJSON := mustMarshal(t, p)
	legacy := assemble([]section{
		{SectionProject, projJSON},
		{SectionVideo, video},
	})
	if _, err := ExtractManifest(legacy); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err = %v, want ErrNoManifest", err)
	}
	// Corrupt the embedded manifest payload: the section CRC catches it.
	blob, _ := Build(p, video)
	secs, _ := Sections(blob)
	loc := secs[SectionManifest]
	bad := append([]byte(nil), blob...)
	bad[loc[0]+loc[1]/2] ^= 0x20
	if _, err := ExtractManifest(bad); err == nil {
		t.Fatal("corrupt manifest section accepted")
	}
}

func TestChunkVideoAlignsToSegments(t *testing.T) {
	_, video := fixture(t)
	head, err := container.ParseHead(video)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunkVideo(video, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[int]bool{0: true}
	off := 0
	for _, c := range chunks {
		off += c.Size
		bounds[off] = true
	}
	for _, ch := range head.Chapters() {
		k, _ := head.KeyframeAtOrBefore(ch.Start)
		lo, _, _ := head.ByteRange(k, ch.End)
		if !bounds[lo] {
			t.Errorf("segment %q keyframe byte %d is not a chunk boundary", ch.Name, lo)
		}
	}
	total := 0
	for _, c := range chunks {
		total += c.Size
	}
	if total != len(video) {
		t.Errorf("chunks tile %d of %d bytes", total, len(video))
	}
}

// FuzzParseManifest: the parser must never panic and every rejection must
// wrap ErrBadManifest (mirroring container.FuzzParseHead).
func FuzzParseManifest(f *testing.F) {
	film := synth.Generate(synth.Spec{W: 32, H: 24, FPS: 8, Shots: 1, MinShotFrames: 4, MaxShotFrames: 4, Seed: 2})
	video, err := studio.Record(film, studio.Options{ShotMarkers: true})
	if err != nil {
		f.Fatal(err)
	}
	p := core.NewProject("Fuzz")
	p.StartScenario = "a"
	p.Scenarios = []*core.Scenario{{ID: "a", Name: "A", Segment: "shot-000-flat"}}
	blob, err := Build(p, video)
	if err != nil {
		f.Fatal(err)
	}
	man, err := ExtractManifest(blob)
	if err != nil {
		f.Fatal(err)
	}
	good := man.Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(good[:len(good)/2])
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 1
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("rejection does not wrap ErrBadManifest: %v", err)
			}
			if m != nil {
				t.Fatal("manifest returned alongside error")
			}
			return
		}
		// Accepted manifests must be internally consistent: re-encoding
		// and re-parsing reproduces them, and layout terminates.
		re, err := ParseManifest(m.Encode())
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(re.Sections) != len(m.Sections) {
			t.Fatal("round trip lost sections")
		}
		if _, total := m.Layout(); total <= 0 {
			t.Fatalf("layout total %d", total)
		}
	})
}
