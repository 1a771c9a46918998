package gamepack

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/media/container"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

// ladderFixture records a 10-segment film at the default ladder and
// wraps it with a matching project.
func ladderFixture(t *testing.T, seed int64) (*core.Project, []TierVideo) {
	t.Helper()
	rungs, err := studio.RecordLadder(ladderFilm(seed), studio.Options{GOP: 10, ShotMarkers: true}, studio.DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	videos := make([]TierVideo, len(rungs))
	for i, r := range rungs {
		videos[i] = TierVideo{Tier: r.Tier, Video: r.Video}
	}
	r, err := container.Open(videos[0].Video)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProject("Ladder Course")
	p.StartScenario = "s0"
	for i, ch := range r.Chapters() {
		id := "s" + string(rune('0'+i))
		p.Scenarios = append(p.Scenarios, &core.Scenario{ID: id, Name: ch.Name, Segment: ch.Name})
		if i == 0 {
			p.StartScenario = id
		}
	}
	return p, videos
}

func TestBuildLadderRoundTrip(t *testing.T) {
	p, videos := ladderFixture(t, 12)
	blob, err := BuildLadder(p, videos)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if tiers, want := man.VideoTiers(), []string{"", "low", "med", "min"}; !reflect.DeepEqual(tiers, want) {
		t.Fatalf("VideoTiers = %v, want %v", tiers, want)
	}
	// A ladder-unaware Open sees exactly the canonical rung.
	pkg, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	var canonical []byte
	for _, tv := range videos {
		if tv.Tier == "" {
			canonical = tv.Video
		}
	}
	if !bytes.Equal(pkg.Video, canonical) {
		t.Error("Open did not yield the canonical rung")
	}
	// Each rung rides its own section; geometry and chapters match.
	secs, err := Sections(blob)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := container.Open(canonical)
	for _, tv := range videos {
		loc := secs[TierSectionName(tv.Tier)]
		got := blob[loc[0] : loc[0]+loc[1]]
		if !bytes.Equal(got, tv.Video) {
			t.Errorf("section %q holds the wrong rung", TierSectionName(tv.Tier))
		}
		r, err := container.Open(got)
		if err != nil {
			t.Fatalf("tier %q video: %v", tv.Tier, err)
		}
		if r.Meta() != ref.Meta() {
			t.Errorf("tier %q meta = %+v, canonical %+v", tv.Tier, r.Meta(), ref.Meta())
		}
		if !reflect.DeepEqual(r.Chapters(), ref.Chapters()) {
			t.Errorf("tier %q chapter table differs", tv.Tier)
		}
	}
	if man.VideoSection("ghost") != nil {
		t.Error("the manifest lists a rung that was never built")
	}
	// The extra rungs genuinely differ: a coarser quantizer must shrink
	// the payload, or the ladder gives ABR nothing to choose between.
	full := man.VideoSection("").PayloadSize()
	min := man.VideoSection("min").PayloadSize()
	if min >= full {
		t.Errorf("min rung %d bytes >= full rung %d bytes", min, full)
	}
}

// ladderFilm is the footage ladderFixture records.
func ladderFilm(seed int64) *synth.Film {
	return synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: seed,
	})
}

func TestBuildLadderValidation(t *testing.T) {
	p, videos := ladderFixture(t, 12)
	var noCanonical []TierVideo
	for _, tv := range videos {
		if tv.Tier != "" {
			noCanonical = append(noCanonical, tv)
		}
	}
	if _, err := BuildLadder(p, noCanonical); !errors.Is(err, ErrBadLadder) {
		t.Errorf("missing canonical tier: err = %v", err)
	}
	dup := append(append([]TierVideo(nil), videos...), videos[1])
	if _, err := BuildLadder(p, dup); !errors.Is(err, ErrBadLadder) {
		t.Errorf("duplicate tier: err = %v", err)
	}
	// A rung from a different film (different chapters) must be rejected:
	// switching to it would not be frame-exact.
	otherFilm := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 4, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 99,
	})
	other, err := studio.Record(otherFilm, studio.Options{QStep: 24, GOP: 10, ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]TierVideo(nil), videos...)
	mixed[2] = TierVideo{Tier: mixed[2].Tier, Video: other}
	if _, err := BuildLadder(p, mixed); !errors.Is(err, ErrBadLadder) {
		t.Errorf("foreign rung: err = %v", err)
	}
	// The same film recorded at another GOP: same frame clock and
	// chapters, keyframes elsewhere. A streamed segment of it would be
	// fetched from the canonical rung's keyframe, a P-frame in this one,
	// and fail to decode.
	offGOP, err := studio.Record(ladderFilm(12), studio.Options{QStep: studio.DefaultLadder()[2].QStep, GOP: 7, ShotMarkers: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed[2] = TierVideo{Tier: mixed[2].Tier, Video: offGOP}
	if _, err := BuildLadder(p, mixed); !errors.Is(err, ErrBadLadder) {
		t.Errorf("rung with keyframes elsewhere: err = %v", err)
	}
	// Single-tier ladders degrade to a plain package.
	single, err := BuildLadder(p, []TierVideo{{Tier: "", Video: videos[0].Video}})
	if err != nil {
		t.Fatal(err)
	}
	man, err := ExtractManifest(single)
	if err != nil {
		t.Fatal(err)
	}
	if tiers := man.VideoTiers(); !reflect.DeepEqual(tiers, []string{""}) {
		t.Errorf("single-tier ladder tiers = %v", tiers)
	}
}

// TestLadderManifestDedup pins the dedup accounting exactly: within one
// ladder package the rungs share no video chunks (distinct quantizers
// produce distinct bytes), the store holds exactly the manifest's
// distinct hashes, and an edit to one segment re-deposits only that
// segment's chunks per tier.
func TestLadderManifestDedup(t *testing.T) {
	p, videos := ladderFixture(t, 12)
	blob, err := BuildLadder(p, videos)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ExtractManifest(blob)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[blobstore.Hash]bool{}
	perTier := map[string]map[blobstore.Hash]bool{}
	for _, sc := range man.Sections {
		for _, c := range sc.Chunks {
			distinct[c.Hash] = true
			if tier, ok := VideoSectionTier(sc.Name); ok {
				if perTier[tier] == nil {
					perTier[tier] = map[blobstore.Hash]bool{}
				}
				perTier[tier][c.Hash] = true
			}
		}
	}
	// Shared chunks across tiers: counted exactly — zero, because every
	// rung's quantizer differs. (If rungs ever shared bytes, client and
	// server tier ledgers could legitimately disagree; this guard keeps
	// E19's exact reconciliation honest.)
	for tier, hashes := range perTier {
		n := 0
		for h := range hashes {
			if tier != "" && perTier[""][h] {
				n++
			}
		}
		if n != 0 {
			t.Errorf("tier %q shares %d chunks with the canonical rung", tier, n)
		}
	}
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DepositChunks(blob, store); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Chunks; got != len(distinct) {
		t.Errorf("store holds %d chunks, manifest names %d distinct", got, len(distinct))
	}
	// Edit one shot and rebuild from the same seed: per tier, only the
	// chunks covering the edited segment (plus the rewritten head/index)
	// change, so delta sync stays per-tier cheap.
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 10, MinShotFrames: 20, MaxShotFrames: 24,
		NoiseAmp: 1, Seed: 12,
	})
	film.Shots[5].Seed ^= 0xbeef
	rungs2, err := studio.RecordLadder(film, studio.Options{GOP: 10, ShotMarkers: true}, studio.DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	videos2 := make([]TierVideo, len(rungs2))
	for i, r := range rungs2 {
		videos2[i] = TierVideo{Tier: r.Tier, Video: r.Video}
	}
	blob2, err := BuildLadder(p, videos2)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := ExtractManifest(blob2)
	if err != nil {
		t.Fatal(err)
	}
	for tier, before := range perTier {
		sc := man2.VideoSection(tier)
		var changed, total int
		for _, c := range sc.Chunks {
			total++
			if !before[c.Hash] {
				changed++
			}
		}
		// 10 segments, 1 edited: well under half the chunks may change
		// (the edited segment plus the head, whose index rewrites).
		if changed == 0 || changed > total/2 {
			t.Errorf("tier %q: %d of %d chunks changed after a 1-segment edit", tier, changed, total)
		}
	}
}
