// Quality-ladder packaging for courses: record the footage once per
// rung and ship every rung in one package / one manifest tree, so the
// delivery stack can serve the same course to a fiber classroom and a
// 3G phone out of one publish.
package content

import (
	"fmt"

	"repro/internal/blobstore"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
)

// RecordLadderVideo encodes the course footage at every tier of the
// ladder (studio.DefaultLadder when tiers is nil), all rungs sharing the
// course's chapter table.
func (c *Course) RecordLadderVideo(opts studio.Options, tiers []studio.Tier) ([]gamepack.TierVideo, error) {
	if tiers == nil {
		tiers = studio.DefaultLadder()
	}
	opts.Chapters = c.Chapters
	rungs, err := studio.RecordLadder(c.Film, opts, tiers)
	if err != nil {
		return nil, fmt.Errorf("content: %w", err)
	}
	out := make([]gamepack.TierVideo, len(rungs))
	for i, r := range rungs {
		out[i] = gamepack.TierVideo{Tier: r.Tier, Video: r.Video}
	}
	return out, nil
}

// BuildLadderPackage records the ladder and wraps everything into one
// multi-tier .tkg package.
func (c *Course) BuildLadderPackage(opts studio.Options, tiers []studio.Tier) ([]byte, error) {
	videos, err := c.RecordLadderVideo(opts, tiers)
	if err != nil {
		return nil, err
	}
	return gamepack.BuildLadder(c.Project, videos)
}

// PublishLadderTo records the ladder and deposits the package as
// content-addressed chunks into the store, returning the manifest —
// the multi-tier analogue of PublishTo. opts.QStep is silently ignored:
// each tier's own QStep wins (studio.RecordLadder), so callers that
// publish single-rung packages with the same Options need not clear it.
func (c *Course) PublishLadderTo(store *blobstore.Store, opts studio.Options, tiers []studio.Tier) (*gamepack.Manifest, error) {
	blob, err := c.BuildLadderPackage(opts, tiers)
	if err != nil {
		return nil, err
	}
	man, err := gamepack.DepositChunks(blob, store)
	if err != nil {
		return nil, fmt.Errorf("content: %w", err)
	}
	return man, nil
}
