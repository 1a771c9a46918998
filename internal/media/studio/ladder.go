// Quality ladder: one film recorded at several rate tiers. Every tier
// shares the frame clock, GOP structure and chapter table — only the
// quantizer step differs — so a ladder-aware client can switch tiers at
// any segment boundary and keep frame-exact playback, and the package
// layer can cut every tier's chunks at the same segment-aligned offsets.
package studio

import (
	"fmt"
	"strings"

	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/synth"
	"repro/internal/media/vcodec"
)

// Tier names one rung of the quality ladder. The empty name is the
// canonical full-quality tier — it becomes the package's plain "video"
// section, which is what ladder-unaware consumers (legacy clients, the
// play service's default open) keep using.
type Tier struct {
	Name  string // "", "med", "low", "min", ... ("" = canonical tier)
	QStep int    // quantizer step for this rung (larger = smaller & worse)
}

// TierVideo is one recorded rung: the tier name and its TKVC blob.
type TierVideo struct {
	Tier  string
	Video []byte
}

// DefaultLadder is the stock 4-rung ladder. The quantizer spacing gives
// roughly a 4–6× byte spread between the top and bottom rungs on the
// synthetic footage corpus, which combined with segment-level switching
// covers the 10× bandwidth spread E19 tests against.
func DefaultLadder() []Tier {
	return []Tier{
		{Name: "", QStep: 4},     // canonical "video" section
		{Name: "med", QStep: 10}, // mid rung
		{Name: "low", QStep: 24}, // constrained links
		{Name: "min", QStep: 64}, // survival rung (mobile-2g class)
	}
}

// validateLadder rejects empty ladders, duplicate tier names and a
// missing canonical ("") tier.
func validateLadder(tiers []Tier) error {
	if len(tiers) == 0 {
		return fmt.Errorf("studio: empty quality ladder")
	}
	seen := map[string]bool{}
	hasCanonical := false
	for _, t := range tiers {
		name := strings.TrimSpace(t.Name)
		if name != t.Name || strings.ContainsAny(name, "/ @") {
			return fmt.Errorf("studio: bad tier name %q", t.Name)
		}
		if seen[name] {
			return fmt.Errorf("studio: duplicate tier %q", name)
		}
		seen[name] = true
		if name == "" {
			hasCanonical = true
		}
	}
	if !hasCanonical {
		return fmt.Errorf("studio: ladder lacks the canonical \"\" tier")
	}
	return nil
}

// RecordLadder records the film at every tier in one pass: each frame is
// rendered once (into a recycled frame), converted to YCbCr once and coded
// at every rung by one vcodec.LadderEncoder, so everything but the quantizer
// is shared across rungs by construction (same GOP, same search range, same
// chapters). The rungs are returned in ladder order. opts.QStep is ignored;
// each tier's QStep wins.
func RecordLadder(film *synth.Film, opts Options, tiers []Tier) ([]TierVideo, error) {
	if err := validateLadder(tiers); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(film.FPS)
	qsteps := make([]int, len(tiers))
	for k, t := range tiers {
		qsteps[k] = t.QStep
	}
	enc, err := vcodec.NewLadderEncoder(vcodec.Config{
		Width: film.W, Height: film.H, GOP: opts.GOP, SearchRange: opts.SearchRange,
	}, qsteps)
	if err != nil {
		return nil, fmt.Errorf("studio: %w", err)
	}
	muxes := make([]*container.Muxer, len(tiers))
	for k := range muxes {
		muxes[k], err = container.NewMuxer(container.Meta{
			Width: film.W, Height: film.H, FPS: film.FPS, GOP: opts.GOP, FrameCount: film.FrameCount(),
		})
		if err != nil {
			return nil, fmt.Errorf("studio: %w", err)
		}
	}
	// The frame and the packets' payload buffers are recycled across
	// frames: the encoder appends into pkts[k].Data[:0] and AddPacket
	// copies what it is given.
	var frame raster.Frame
	pkts := make([]vcodec.Packet, len(tiers))
	for i := 0; i < film.FrameCount(); i++ {
		film.RenderInto(&frame, i)
		if err := enc.Encode(&frame, pkts); err != nil {
			return nil, fmt.Errorf("studio: frame %d: %w", i, err)
		}
		for k, mux := range muxes {
			if err := mux.AddPacket(pkts[k]); err != nil {
				return nil, fmt.Errorf("studio: tier %q: frame %d: %w", tiers[k].Name, i, err)
			}
		}
	}
	chapters := opts.Chapters
	if opts.ShotMarkers && chapters == nil {
		for k := range film.Shots {
			start := film.ShotStart(k)
			chapters = append(chapters, container.Chapter{
				Name:  fmt.Sprintf("shot-%03d-%s", k, film.Shots[k].Scene),
				Start: start,
				End:   start + film.Shots[k].Frames,
			})
		}
	}
	out := make([]TierVideo, len(tiers))
	for k, mux := range muxes {
		for _, ch := range chapters {
			if err := mux.AddChapter(ch); err != nil {
				return nil, fmt.Errorf("studio: %w", err)
			}
		}
		blob, err := mux.Finalize()
		if err != nil {
			return nil, fmt.Errorf("studio: tier %q: %w", tiers[k].Name, err)
		}
		out[k] = TierVideo{Tier: tiers[k].Name, Video: blob}
	}
	return out, nil
}
