// Multi-tier streaming: the client half of the quality ladder. A
// RemoteGame carries one rung per video section in the manifest (the
// canonical "video" plus every "video@<tier>"); segments are fetched from
// whichever rung the ABR picker (or an explicit caller) selects, and the
// frame path decodes each landed chunk against the head of the rung that
// produced it. Per-tier wire bytes are accounted on the client exactly as
// the server accounts them on /chunk/, which is what lets E19 reconcile
// the two to the byte.
package netstream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gamepack"
	"repro/internal/media/container"
)

// tierRung is one quality rung's fetch plan: its chunk run, precomputed
// offsets, payload size, and a lazily grown head (the canonical rung's
// head is set at open; other rungs pay for theirs on first use).
type tierRung struct {
	chunks []gamepack.ChunkRef
	offs   []int
	size   int

	mu   sync.Mutex
	head *container.Head
}

// Tiers lists the quality rungs this game can fetch, canonical ("")
// first. A single-quality package yields [""].
func (g *RemoteGame) Tiers() []string {
	out := make([]string, 0, len(g.rungs))
	for tier := range g.rungs {
		out = append(out, tier)
	}
	sort.Strings(out) // "" sorts first
	return out
}

// ABR returns the game's tier picker.
func (g *RemoteGame) ABR() *ABRPicker { return g.abr }

// ladderPicker builds the throughput/buffer-driven tier picker sized from
// the ladder itself: each rung's media rate is its payload size over the
// video's duration.
func (g *RemoteGame) ladderPicker() (*ABRPicker, error) {
	meta := g.head.Meta()
	if meta.FPS <= 0 || meta.FrameCount <= 0 {
		return nil, fmt.Errorf("netstream: cannot size ABR ladder from %d frames at %d fps", meta.FrameCount, meta.FPS)
	}
	dur := float64(meta.FrameCount) / float64(meta.FPS)
	infos := make([]TierInfo, 0, len(g.rungs))
	for tier, rung := range g.rungs {
		infos = append(infos, TierInfo{Name: tier, Rate: float64(rung.size) / dur})
	}
	return NewABRPicker(infos)
}

// TierBytes snapshots the wire bytes fetched per tier by this game
// (video chunks only, cache hits excluded) — the client side of the
// ledger the server's netstream_tier_bytes_total counters keep.
func (g *RemoteGame) TierBytes() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.tierBytes))
	for tier, n := range g.tierBytes {
		out[tier] = n
	}
	return out
}

// SegmentTier reports which tier a fetched segment landed at.
func (g *RemoteGame) SegmentTier(name string) (string, bool) {
	r := g.landedFor(name)
	if r == nil {
		return "", false
	}
	return r.tier, true
}

// FetchSegmentTier pulls a segment from an explicit quality rung,
// reporting the transfer cost. Tier "" is the canonical full-quality
// rung. An already-fetched segment is kept at whatever tier landed — until
// a segment sharing its preceding keyframe is fetched, which re-lands both
// at that fetch's tier (see ensureSegmentTier).
func (g *RemoteGame) FetchSegmentTier(name, tier string) (Stats, error) {
	var st Stats
	began := time.Now()
	err := g.ensureSegmentTier(name, tier, &st)
	st.Elapsed = time.Since(began)
	return st, err
}

// getTierChunk fetches one of a rung's chunks, attributing any wire
// bytes (cache hits transfer none) to the tier's client-side ledger.
func (g *RemoteGame) getTierChunk(tier string, rung *tierRung, i int, st *Stats) ([]byte, error) {
	before := st.BytesFetched
	data, err := g.client.getChunk(g.base, rung.chunks[i], g.cache, st)
	if err != nil {
		return nil, err
	}
	if d := st.BytesFetched - before; d > 0 {
		g.mu.Lock()
		g.tierBytes[tier] += int64(d)
		g.mu.Unlock()
	}
	return data, nil
}

// rungHead returns a rung's parsed head, growing it chunk by chunk on
// first use (video chunking cuts the head/data boundary, so this is one
// chunk in the common case). The first chunk is parsed where it lies — a
// Head keeps none of the bytes it was parsed from — so the common case
// copies nothing; a head spanning chunks is joined into a buffer sized
// from the manifest.
func (g *RemoteGame) rungHead(tier string, rung *tierRung, st *Stats) (*container.Head, error) {
	rung.mu.Lock()
	defer rung.mu.Unlock()
	if rung.head != nil {
		return rung.head, nil
	}
	var buf []byte
	for i := range rung.chunks {
		data, err := g.getTierChunk(tier, rung, i, st)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			buf = data
		} else {
			buf = append(append(make([]byte, 0, rung.offs[i]+len(data)), buf...), data...)
		}
		head, err := container.ParseHead(buf)
		if err == nil {
			rung.head = head
			return head, nil
		}
		if !errors.Is(err, container.ErrTruncated) {
			return nil, fmt.Errorf("netstream: tier %q head: %w", tier, err)
		}
	}
	return nil, fmt.Errorf("netstream: tier %q head: %w", tier, container.ErrTruncated)
}

// fetchRungRange materializes bytes [lo, hi) of one rung's video payload
// from the chunks that cover it, into one buffer of exactly that size.
func (g *RemoteGame) fetchRungRange(tier string, rung *tierRung, lo, hi int, st *Stats) ([]byte, error) {
	i := sort.Search(len(rung.offs), func(i int) bool {
		return rung.offs[i]+rung.chunks[i].Size > lo
	})
	if i == len(rung.offs) || hi > rung.size {
		return nil, fmt.Errorf("netstream: tier %q video range [%d,%d) beyond manifest", tier, lo, hi)
	}
	buf := make([]byte, 0, hi-lo)
	for ; i < len(rung.chunks) && rung.offs[i] < hi; i++ {
		data, err := g.getTierChunk(tier, rung, i, st)
		if err != nil {
			return nil, err
		}
		from, to := 0, len(data)
		if rung.offs[i] < lo {
			from = lo - rung.offs[i]
		}
		if rung.offs[i]+to > hi {
			to = hi - rung.offs[i]
		}
		buf = append(buf, data[from:to]...)
	}
	if len(buf) != hi-lo {
		return nil, fmt.Errorf("netstream: tier %q video range [%d,%d): got %d bytes", tier, lo, hi, len(buf))
	}
	return buf, nil
}

// ensureSegmentTier fetches the byte range covering a segment (from its
// preceding keyframe) from the given rung, if no landed run already covers
// it. Chapter and keyframe geometry are shared across rungs (BuildLadder
// validates this), so the canonical head answers "which frames"; the
// selected rung's head answers "which bytes".
//
// Two segments can share a preceding keyframe (chapter cuts need not be
// GOP-aligned). Fetching the later one then lands a wider run under the
// same key, at the tier of this fetch: the earlier segment's frames come
// from the new run from then on, which is what SegmentTier reports, and the
// decode cursor re-seeks because the run it held is no longer the landed
// one.
func (g *RemoteGame) ensureSegmentTier(name, tier string, st *Stats) error {
	ch, ok := g.head.ChapterByName(name)
	if !ok {
		return fmt.Errorf("netstream: no segment %q", name)
	}
	k, err := g.head.KeyframeAtOrBefore(ch.Start)
	if err != nil {
		return err
	}
	covered := func() bool {
		r := g.landed[k]
		return r != nil && r.end >= ch.End
	}
	g.mu.Lock()
	have := covered()
	g.mu.Unlock()
	if have {
		return nil
	}
	rung := g.rungs[tier]
	if rung == nil {
		return fmt.Errorf("netstream: no quality tier %q (have %v)", tier, g.Tiers())
	}
	run := &landedRun{from: k, end: ch.End, tier: tier}
	if run.head, err = g.rungHead(tier, rung, st); err != nil {
		return err
	}
	lo, hi, err := run.head.ByteRange(k, ch.End)
	if err != nil {
		return err
	}
	if run.data, err = g.fetchRungRange(tier, rung, lo, hi, st); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if covered() {
		return nil // a concurrent fetch landed a run at least as wide; keep it
	}
	if g.landed[k] == nil {
		g.starts = append(g.starts, k)
		sort.Ints(g.starts)
	}
	g.landed[k] = run
	return nil
}

// ProgressiveOpenABR is the progressive open: manifest → project → video
// head → the start segment's chunks, fetched from the smallest rung (fast
// startup on an unknown link), so play begins after a small prefix whose
// size does not grow with the film. Chunks already in the cache — fetched
// by any learner sharing it, or by a previous DownloadDelta — are reused,
// so a second learner's startup often transfers nothing but the manifest.
// Subsequent segment fetches through a StreamPlayer ride the game's ABR
// picker; a single-quality package is a one-rung ladder.
// The returned Stats are the startup cost E8 reports. The ABRConfig
// argument is the empty type: the picker's tuning is fixed.
func (c *Client) ProgressiveOpenABR(url string, cache *PackageCache, _ ABRConfig) (*RemoteGame, Stats, error) {
	var st Stats
	began := time.Now()
	base, name, ok := splitPkgURL(url)
	if !ok {
		return nil, st, fmt.Errorf("netstream: progressive open needs a /pkg/ URL, got %q", url)
	}
	man, _, _, err := c.fetchManifest(base+"/manifest/"+name, "", &st)
	if err != nil {
		return nil, st, err
	}
	g, err := c.openChunked(base, man, cache, &st)
	if err != nil {
		return nil, st, err
	}
	st.Elapsed = time.Since(began)
	return g, st, nil
}
