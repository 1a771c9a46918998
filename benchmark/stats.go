package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// sample is one kind of duration the harness times from outside.
type sample int

const (
	sAct     sample = iota // one sim.Game act call (Click … Advance)
	sFrame                 // Watch / FrameAt until the frame is in hand
	sSession               // Dial → Close, whole stream iteration, whole publish round
	sStartup               // start → first picture
	sCourse                // whole course played / watched / published
	sResync                // Close, warm DownloadDelta, reassembly from the store
	sPublish               // publish round (three PublishLadderTo calls)
	sDial
	sOpen      // ProgressiveOpenABR
	sSegFetch  // FetchSegmentTier that fetched something
	sDeltaFill // first DownloadDelta on the partially filled cache
	sRecord    // RecordLadderVideo per round (traced publish)
	sBuild     // BuildLadder per round
	sDeposit   // DepositChunks per round
	sampleKinds
)

// samples holds one worker's timings, one slice per kind. A worker is
// one goroutine, so appends need no lock.
type samples [sampleKinds][]time.Duration

func (w *worker) add(k sample, d time.Duration) { w.s[k] = append(w.s[k], d) }

// merged concatenates one kind across workers.
func merged(ws []*worker, k sample) []time.Duration {
	var out []time.Duration
	for _, w := range ws {
		out = append(out, w.s[k]...)
	}
	return out
}

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics (the same rule at every q, so p50 of an even-sized
// sample is the mean of the middle two). 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns q1, median, q3 of vs as Python's
// statistics.quantiles(vs, n=4) gives them (the "exclusive" method) —
// the rule the driver applies to the ten-seed agreement sets.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads back: it
// emits exactly these names in these units, and -compare applies these
// bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads or metrics", path)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name → value for one run.
type metrics map[string]value

// conform checks m against the specs: every named metric present once
// (a map cannot hold it twice), finite, in the spec's unit, and nothing
// extra. End-to-end metrics must also be non-zero, so a ratio against a
// parent run is always defined. Names in omitted may be absent.
func (m metrics) conform(specs []metricSpec, nonZero bool, omitted []string) error {
	skip := map[string]bool{}
	for _, name := range omitted {
		skip[name] = true
	}
	for _, sp := range specs {
		v, ok := m[sp.Name]
		switch {
		case !ok && skip[sp.Name]:
		case !ok:
			return fmt.Errorf("metric %s not emitted", sp.Name)
		case v.Unit != sp.Unit:
			return fmt.Errorf("metric %s in %q, spec says %q", sp.Name, v.Unit, sp.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is not finite", sp.Name)
		case nonZero && v.Value == 0:
			return fmt.Errorf("metric %s is zero", sp.Name)
		}
	}
	if len(m) != len(specs)-len(omitted) {
		known := map[string]bool{}
		for _, sp := range specs {
			known[sp.Name] = true
		}
		for name := range m {
			if !known[name] {
				return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
