// Package obs is the repo's observability core: fixed-bucket histograms
// whose hot path allocates nothing, a process-wide Registry that exposes
// every component's counters, gauges and histograms as Prometheus text (or
// JSON), and a lightweight trace context (trace/span/parent ids riding an
// X-Vgbl-Trace header) with a bounded per-node span ring.
//
// The package is dependency-free by design — every service layer
// (playsvc, netstream, blobstore, telemetry, the cluster gateway)
// instruments itself with these primitives and registers them on one
// Registry per node, so `GET /metrics` on any node covers the whole
// process. A component owns its instruments whether or not anything
// scrapes them — histograms built with NewHistogram, counters and gauges
// as atomics or reads of its own state — and attaches them to a Registry
// afterwards with RegisterHistogram, CounterFunc and GaugeFunc, keeping
// their contention behavior unchanged.
//
// The registry is the one definition of every server-side scalar. A
// component names its families once, registers them on a registry of its
// own as well as the process one, and serves its JSON stats endpoint as
// that registry's Flat view; readers of a scraped snapshot go through
// Value and Hist rather than walking series.
package obs

import (
	"sync/atomic"
	"time"
)

// LatencyBounds are the default duration buckets, in nanoseconds: 50ns up
// to 10s, roughly exponential. The low end exists for the chunk store's
// hot tier (tens of ns); the high end covers cold restores and drains.
var LatencyBounds = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// SizeBounds are the default byte-size buckets (256 B – 64 MiB).
var SizeBounds = []int64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// CountBounds are small-integer buckets (gateway hop counts and the like).
var CountBounds = []int64{0, 1, 2, 3, 4, 6, 8, 16}

// Histogram is a fixed-bucket integer histogram. Observe is wait-free and
// allocation-free: a binary search over the immutable bounds plus two
// atomic adds, so it is safe on paths pinned at 0 allocs/op (the play
// service's frame path, the chunk store's hot tier). Values are whatever
// unit the owner chose — nanoseconds for latency, bytes for sizes; the
// Registry's unit field tells the exporter how to scale them.
type Histogram struct {
	bounds []int64        // upper bounds, ascending; bucket i covers (bounds[i-1], bounds[i]]
	counts []atomic.Int64 // len(bounds)+1; the extra bucket is +Inf
	sum    atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is retained and must not be mutated.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// Snapshot copies the current bucket counts. Under concurrent writers the
// buckets are each exact but may be mutually skewed by in-flight
// observations; once writers stop, the snapshot is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, and the shape
// scraped clients (the fleet's percentile table) compute quantiles from.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"` // upper bounds in the owner's unit (ns, bytes, ...)
	Counts []int64 `json:"counts"` // len(Bounds)+1; the last bucket is +Inf
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket — the usual Prometheus
// estimate. Values landing in the +Inf bucket report the largest finite
// bound. An empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := int64(0)
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		frac := 1 - (cum-rank)/float64(c)
		return lower + int64(frac*float64(upper-lower))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one metric dimension (e.g. {tier, hot}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sampler admits every n-th call — the cheap gate for timing paths whose
// own cost is tens of nanoseconds (the chunk store's hot tier), where an
// unconditional pair of time.Now calls would dominate the measurement.
// Tick is one atomic add and a mask; it never allocates.
type Sampler struct {
	n    atomic.Int64
	mask int64
}

// NewSampler samples roughly one call in every (rounded up to a power of
// two). every ≤ 1 samples every call.
func NewSampler(every int64) *Sampler {
	m := int64(1)
	for m < every {
		m <<= 1
	}
	return &Sampler{mask: m - 1}
}

// Tick reports whether this call is sampled.
func (s *Sampler) Tick() bool { return s.n.Add(1)&s.mask == 0 }
