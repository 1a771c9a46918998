// Ladder packaging: one .tkg package carrying the same footage at
// several quality tiers. The canonical tier stays the plain "video"
// section — every ladder-unaware consumer (legacy range clients,
// gamepack.Open, the play service's default publish) keeps working on
// the full-quality rung — while each extra rung rides its own
// "video@<tier>" section. All video sections are chunked at the same
// segment-aligned boundaries by the manifest layer, so the chunk store
// dedups anything shared, tier selection is a per-segment choice of
// which section's chunks to fetch, and a course edit delta-syncs
// per tier exactly like a single-quality package.
package gamepack

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/media/container"
)

// tierSep separates the video section prefix from the tier name.
const tierSep = "@"

// TierSectionName maps a tier name to its package section name: the
// canonical "" tier is the plain video section, every other tier is
// "video@<tier>".
func TierSectionName(tier string) string {
	if tier == "" {
		return SectionVideo
	}
	return SectionVideo + tierSep + tier
}

// VideoSectionTier reports whether a section name is a video rung and,
// if so, which tier it carries ("" for the canonical section).
func VideoSectionTier(name string) (tier string, ok bool) {
	if name == SectionVideo {
		return "", true
	}
	if rest, found := strings.CutPrefix(name, SectionVideo+tierSep); found && rest != "" {
		return rest, true
	}
	return "", false
}

// TierVideo is one rung handed to BuildLadder: tier name + TKVC blob.
// (Mirrors studio.TierVideo without importing it — gamepack stays below
// the media packages it did not previously depend on.)
type TierVideo struct {
	Tier  string
	Video []byte
}

// ErrBadLadder reports an inconsistent quality ladder (missing
// canonical tier, duplicate tiers, or rungs whose frame clocks or
// chapter tables disagree — switching between such rungs would not be
// frame-exact).
var ErrBadLadder = errors.New("gamepack: inconsistent quality ladder")

// validateLadderVideos opens every rung and checks that all rungs agree
// on geometry, FPS, frame count and the chapter table. Returns the
// canonical rung's index.
func validateLadderVideos(videos []TierVideo) (int, error) {
	if len(videos) == 0 {
		return 0, fmt.Errorf("%w: no tiers", ErrBadLadder)
	}
	canonical := -1
	seen := map[string]bool{}
	var ref *container.Reader
	for i, tv := range videos {
		if strings.ContainsAny(tv.Tier, "/ "+tierSep) {
			return 0, fmt.Errorf("%w: bad tier name %q", ErrBadLadder, tv.Tier)
		}
		if seen[tv.Tier] {
			return 0, fmt.Errorf("%w: duplicate tier %q", ErrBadLadder, tv.Tier)
		}
		seen[tv.Tier] = true
		if tv.Tier == "" {
			canonical = i
		}
		r, err := container.Open(tv.Video)
		if err != nil {
			return 0, fmt.Errorf("gamepack: tier %q: invalid video container: %w", tv.Tier, err)
		}
		if ref == nil {
			ref = r
			continue
		}
		rm, m := ref.Meta(), r.Meta()
		if rm.Width != m.Width || rm.Height != m.Height || rm.FPS != m.FPS {
			return 0, fmt.Errorf("%w: tier %q geometry %dx%d@%d differs from %dx%d@%d",
				ErrBadLadder, tv.Tier, m.Width, m.Height, m.FPS, rm.Width, rm.Height, rm.FPS)
		}
		a, b := ref.Chapters(), r.Chapters()
		if len(a) != len(b) {
			return 0, fmt.Errorf("%w: tier %q has %d chapters, canonical has %d", ErrBadLadder, tv.Tier, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				return 0, fmt.Errorf("%w: tier %q chapter %q disagrees with canonical", ErrBadLadder, tv.Tier, b[j].Name)
			}
		}
	}
	if canonical < 0 {
		return 0, fmt.Errorf("%w: missing canonical \"\" tier", ErrBadLadder)
	}
	return canonical, nil
}

// BuildLadder assembles a .tkg blob whose video rides at every given
// tier (Build is the one-rung call). Layout: meta, project, manifest, then
// the video sections — the extra rungs sorted by tier, the canonical
// "video" section last, largest-last for progressive loading.
// Every video section's chunks are cut at the same segment boundaries
// (see manifestFor), which is what makes tier selection a per-segment
// fetch-time decision.
func BuildLadder(p *core.Project, videos []TierVideo) ([]byte, error) {
	if p == nil {
		return nil, errors.New("gamepack: nil project")
	}
	canonical, err := validateLadderVideos(videos)
	if err != nil {
		return nil, err
	}
	projJSON, err := p.Marshal()
	if err != nil {
		return nil, fmt.Errorf("gamepack: %w", err)
	}
	meta := fmt.Sprintf(`{"title":%q,"author":%q,"scenarios":%d}`, p.Title, p.Author, len(p.Scenarios))
	// Extra rungs sorted by name for deterministic layout; canonical last.
	extra := make([]TierVideo, 0, len(videos)-1)
	for i, tv := range videos {
		if i != canonical {
			extra = append(extra, tv)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Tier < extra[j].Tier })
	payload := []section{
		{SectionMeta, []byte(meta)},
		{SectionProject, projJSON},
	}
	for _, tv := range extra {
		payload = append(payload, section{TierSectionName(tv.Tier), tv.Video})
	}
	payload = append(payload, section{SectionVideo, videos[canonical].Video})
	man, err := manifestFor(payload)
	if err != nil {
		return nil, err
	}
	sections := make([]section, 0, len(payload)+1)
	sections = append(sections, payload[0], payload[1], section{SectionManifest, man.Encode()})
	sections = append(sections, payload[2:]...)
	return assemble(sections), nil
}

// OpenTier parses a package and swaps the video payload for the named
// tier's rung. Tier "" (or a plain single-quality package) is exactly
// Open. Unknown tiers are rejected, so a caller cannot silently play
// the wrong quality.
func OpenTier(blob []byte, tier string) (*Package, error) {
	pkg, err := Open(blob)
	if err != nil {
		return nil, err
	}
	if tier == "" {
		return pkg, nil
	}
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	loc, ok := secs[TierSectionName(tier)]
	if !ok {
		return nil, fmt.Errorf("%w: no tier %q (have %s)", ErrBadLadder, tier, strings.Join(VideoTiersOf(secs), ", "))
	}
	video := blob[loc[0] : loc[0]+loc[1]]
	if _, err := container.Open(video); err != nil {
		return nil, fmt.Errorf("gamepack: tier %q video section: %w", tier, err)
	}
	pkg.Video = video
	return pkg, nil
}

// VideoTiersOf lists the tiers present in a parsed section table,
// canonical ("") first, extras sorted.
func VideoTiersOf(secs map[string][2]int) []string {
	var out []string
	for name := range secs {
		if tier, ok := VideoSectionTier(name); ok {
			out = append(out, tier)
		}
	}
	sort.Strings(out) // "" sorts first
	return out
}

// VideoTiers lists the quality tiers a manifest carries, canonical ("")
// first, extras sorted. A single-quality package yields [""].
func (m *Manifest) VideoTiers() []string {
	var out []string
	for _, sc := range m.Sections {
		if tier, ok := VideoSectionTier(sc.Name); ok {
			out = append(out, tier)
		}
	}
	sort.Strings(out)
	return out
}

// VideoSection finds the chunk list for one tier's video section, or
// nil when the manifest lacks that rung.
func (m *Manifest) VideoSection(tier string) *SectionChunks {
	return m.Section(TierSectionName(tier))
}

// LadderOf reports the tiers of a package blob (convenience over
// ExtractManifest for callers holding the blob).
func LadderOf(blob []byte) ([]string, error) {
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	tiers := VideoTiersOf(secs)
	if len(tiers) == 0 {
		return nil, fmt.Errorf("%w: missing section %q", ErrBadPackage, SectionVideo)
	}
	return tiers, nil
}

// SharedTierChunks counts, per non-canonical tier, how many of its
// chunks are byte-identical to a canonical-tier chunk (the dedup the
// blobstore gets for free). Used by the ladder dedup accounting test
// and the E19 report.
func (m *Manifest) SharedTierChunks() map[string]int {
	base := map[blobstore.Hash]bool{}
	if sc := m.VideoSection(""); sc != nil {
		for _, c := range sc.Chunks {
			base[c.Hash] = true
		}
	}
	out := map[string]int{}
	for _, tier := range m.VideoTiers() {
		if tier == "" {
			continue
		}
		n := 0
		for _, c := range m.VideoSection(tier).Chunks {
			if base[c.Hash] {
				n++
			}
		}
		out[tier] = n
	}
	return out
}
