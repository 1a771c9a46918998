// Adaptive bitrate selection. The picker is a small state machine fed by
// two signals — an EWMA throughput estimate over recent chunk fetches and
// the player's buffer level — and it answers one question per segment:
// which rung of the quality ladder to fetch next.
//
// Tier-selection rules (see DESIGN.md §"Adaptive streaming & quality
// ladder" for the rationale):
//
//  1. Buffer panic: below abrMinBuffer seconds of buffered media, pick
//     the lowest rung unconditionally. Surviving is better than pretty.
//  2. Throughput budget: otherwise the candidate is the highest rung
//     whose media rate fits within abrSafety × estimated throughput.
//  3. Downward switches apply immediately (the link got worse; waiting
//     makes it a rebuffer).
//  4. Until the first downward switch or buffer panic, an upward switch
//     goes straight to the candidate: the link has not yet shown that it
//     flaps, and a short course ends before a damped climb gets anywhere.
//  5. From then on upward switches are damped: the candidate must stay
//     above the current rung for abrUpHold consecutive picks, and the
//     picker then climbs one rung per pick — a link flapping around a tier
//     boundary oscillates the estimate, not the video.
//
// With no throughput estimate yet the picker sits on the lowest rung,
// which doubles as fast startup; the progressive open feeds it the start
// segment's fetch, so the next pick has an estimate.
package netstream

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// TierInfo describes one rung to the picker: its name and its media rate
// — how many bytes of this rung the player consumes per second of
// playback.
type TierInfo struct {
	Name string
	Rate float64 // bytes per media-second
}

// ABRConfig is ProgressiveOpenABR's picker argument, an empty type: the
// picker's tuning is the constants below.
type ABRConfig struct{}

const (
	// abrSafety discounts the throughput estimate before comparing it to
	// tier rates: a rung is only affordable if it fits in 70% of what the
	// link recently delivered.
	abrSafety = 0.7
	// abrMinBuffer is the panic threshold in buffered media seconds: below
	// it the picker drops to the lowest rung.
	abrMinBuffer = 1.5
	// abrUpHold is how many consecutive picks must support a higher rung
	// before the picker starts climbing.
	abrUpHold = 2
	// abrAlpha is the EWMA weight of each new throughput sample.
	abrAlpha = 0.4
)

// ABRCounts snapshots the picker's decision counters.
type ABRCounts struct {
	Picks    int // Pick calls
	Switches int // picks that changed the tier
	Panics   int // buffer-panic drops to the lowest rung
}

// ABRPicker selects a quality tier per segment fetch. Safe for
// concurrent use (one picker per playing client is the normal shape).
type ABRPicker struct {
	mu       sync.Mutex
	tiers    []TierInfo // sorted ascending by Rate
	est      float64    // EWMA throughput, bytes/sec; 0 = no estimate yet
	cur      int        // current rung index
	upStreak int        // consecutive picks supporting a higher rung
	damped   bool       // a downward switch or panic happened: climbs wait out the hold
	counts   ABRCounts
}

// NewABRPicker builds a picker over a ladder. Tiers are sorted by rate
// internally; at least one tier is required.
func NewABRPicker(tiers []TierInfo) (*ABRPicker, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("netstream: ABR picker needs at least one tier")
	}
	sorted := append([]TierInfo(nil), tiers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rate < sorted[j].Rate })
	return &ABRPicker{tiers: sorted}, nil
}

// Observe feeds one fetch's throughput sample (wire bytes over wall
// time) into the EWMA. Cache hits and degenerate timings are ignored —
// a zero-byte or sub-100µs "fetch" says nothing about the link.
func (p *ABRPicker) Observe(bytes int, elapsed time.Duration) {
	if bytes <= 0 || elapsed < 100*time.Microsecond {
		return
	}
	sample := float64(bytes) / elapsed.Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.est == 0 {
		p.est = sample
		return
	}
	p.est = abrAlpha*sample + (1-abrAlpha)*p.est
}

// Throughput reports the current EWMA estimate in bytes/sec (0 before
// the first observation).
func (p *ABRPicker) Throughput() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.est
}

// Pick selects the tier for the next segment given the player's buffer
// level in media seconds, advancing the picker's state machine.
func (p *ABRPicker) Pick(bufferSec float64) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts.Picks++
	target := 0
	if p.est > 0 {
		budget := abrSafety * p.est
		for i, t := range p.tiers {
			if t.Rate <= budget {
				target = i
			}
		}
	}
	if bufferSec < abrMinBuffer {
		// Buffer panic: the only rule that overrides the estimate.
		if p.cur != 0 {
			p.counts.Panics++
		}
		target = 0
		p.damped = true
	}
	prev := p.cur
	switch {
	case target > p.cur && !p.damped:
		p.cur = target
	case target > p.cur:
		p.upStreak++
		if p.upStreak >= abrUpHold {
			p.cur++ // climb one rung per pick once the hold is met
			if p.cur == target {
				// Reached the supported rung: any further climb is a new
				// decision and must earn its own hold, or a link flapping
				// around a boundary would ratchet upward.
				p.upStreak = 0
			}
		}
	case target < p.cur:
		p.upStreak = 0
		p.cur = target // downward switches are immediate
		p.damped = true
	default:
		p.upStreak = 0
	}
	if p.cur != prev {
		p.counts.Switches++
	}
	return p.tiers[p.cur].Name
}

// CurrentTier reports the rung the picker last settled on without
// advancing any state.
func (p *ABRPicker) CurrentTier() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tiers[p.cur].Name
}

// Counts snapshots the decision counters.
func (p *ABRPicker) Counts() ABRCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// TierLabel maps a tier name to its metrics label value: the canonical
// "" tier is exported as "full" so the Prometheus series stays legible.
func TierLabel(tier string) string {
	if tier == "" {
		return "full"
	}
	return tier
}
