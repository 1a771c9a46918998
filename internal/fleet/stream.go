// Streaming fleet: N learners adaptively streaming one course, each on
// its own (optionally fault-injected) link with its own cache — the
// load shape where every learner pays for its bandwidth, unlike the
// play fleet's shared-cache delta sync. This is what the loadtest's
// -abr flags and experiment E19 drive.
package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netstream"
)

// StreamConfig sizes a streaming fleet run.
type StreamConfig struct {
	ServerURL string // netstream server base URL
	Package   string // published ladder package name

	Learners    int // fleet size (default 20)
	Concurrency int // max simultaneously streaming learners (default min(Learners, 32))

	// Profile names the faultnet link condition every learner streams
	// over ("clean", "wifi-flaky", "mobile-3g", "cap-<N>k"; default
	// clean). Each learner gets its own seeded transport.
	Profile string
	Seed    int64 // base RNG seed for the fault transports (offset per learner)

	Speed float64 // playhead media-seconds per wall-second (default 1)
	// DecodeFrames makes every learner decode each segment's first
	// frame, proving fetched tiers actually play.
	DecodeFrames bool
}

// StreamSummary aggregates a streaming fleet run.
type StreamSummary struct {
	Learners     int
	Profile      string
	Segments     int
	Rebuffers    int
	Stalled      time.Duration
	Startup      Latency          // per-learner open cost (manifest → first playable segment)
	TierSegments map[string]int   // segments played per tier (TierLabel keys)
	TierBytes    map[string]int64 // wire bytes fetched per tier (TierLabel keys)
	BytesFetched int64            // total wire bytes across all learners
	Elapsed      time.Duration
}

// String renders the per-tier streaming table the load-test CLI prints.
func (s *StreamSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "STREAMING FLEET — %d learners over %q\n", s.Learners, s.Profile)
	fmt.Fprintf(&b, "  wall time        : %v\n", s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  segments played  : %d (%d rebuffers, %v stalled)\n",
		s.Segments, s.Rebuffers, s.Stalled.Round(time.Millisecond))
	fmt.Fprintf(&b, "  startup latency  : %s\n", s.Startup)
	fmt.Fprintf(&b, "  bytes fetched    : %d\n", s.BytesFetched)
	tiers := make([]string, 0, len(s.TierSegments))
	for tier := range s.TierSegments {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		fmt.Fprintf(&b, "  tier %-10s : %d segments, %d bytes\n", tier, s.TierSegments[tier], s.TierBytes[tier])
	}
	return b.String()
}

// RunStreamers streams the package through cfg.Learners adaptive
// players and aggregates their reports. Any learner error fails the run
// — a streaming fleet that silently drops learners would undercount
// rebuffers.
func RunStreamers(cfg StreamConfig) (*StreamSummary, error) {
	if cfg.ServerURL == "" || cfg.Package == "" {
		return nil, fmt.Errorf("fleet: need ServerURL and Package")
	}
	if cfg.Learners <= 0 {
		cfg.Learners = 20
	}
	if cfg.Concurrency <= 0 || cfg.Concurrency > cfg.Learners {
		cfg.Concurrency = cfg.Learners
	}
	if cfg.Concurrency > 32 {
		cfg.Concurrency = 32
	}
	profile, ok := faultnet.Lookup(cfg.Profile)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown faultnet profile %q", cfg.Profile)
	}
	url := cfg.ServerURL + "/pkg/" + cfg.Package

	sum := &StreamSummary{
		Learners:     cfg.Learners,
		Profile:      profile.Name,
		TierSegments: map[string]int{},
		TierBytes:    map[string]int64{},
	}
	var (
		mu       sync.Mutex
		startups []time.Duration
		firstErr error
	)
	began := time.Now()
	sem := make(chan struct{}, cfg.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Learners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each learner rides its own seeded fault transport and its
			// own cache: a streaming fleet measures links, not cache
			// sharing.
			client := &netstream.Client{HTTP: faultnet.WrapClient(nil, profile, cfg.Seed+int64(i))}
			g, open, err := client.ProgressiveOpenABR(url, netstream.NewPackageCache(), netstream.ABRConfig{})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: learner %d open: %w", i, err)
				}
				mu.Unlock()
				return
			}
			player := &netstream.StreamPlayer{Game: g, Speed: cfg.Speed, DecodeFrames: cfg.DecodeFrames}
			rep, err := player.Play()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: learner %d: %w", i, err)
				}
				return
			}
			startups = append(startups, open.Elapsed+rep.Startup)
			sum.Segments += rep.Segments
			sum.Rebuffers += rep.Rebuffers
			sum.Stalled += rep.Stalled
			sum.BytesFetched += int64(open.BytesFetched + rep.Stats.BytesFetched)
			for tier, n := range rep.TierPicks {
				sum.TierSegments[netstream.TierLabel(tier)] += n
			}
			for tier, n := range g.TierBytes() {
				sum.TierBytes[netstream.TierLabel(tier)] += n
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sum.Startup = quantiles(startups)
	sum.Elapsed = time.Since(began)
	return sum, nil
}
