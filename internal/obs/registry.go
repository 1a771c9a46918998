package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled member of a family. Exactly one of value/hist is
// set; value reads a counter or gauge through its owner's closure.
type series struct {
	labels []Label
	value  func() int64
	hist   *Histogram
}

// family is one named metric with its labeled series.
type family struct {
	name, help, unit string
	kind             kind
	series           []*series
}

// Registry is one process's (or one cluster node's) metric namespace. All
// methods are safe for concurrent use; registration is expected at wiring
// time, scraping at runtime.
type Registry struct {
	namespace string

	mu       sync.Mutex
	families []*family // registration order, the exposition order
	index    map[string]*family
}

// NewRegistry builds an empty registry. namespace prefixes every exposed
// metric name ("vgbl" → vgbl_playsvc_acts_total).
func NewRegistry(namespace string) *Registry {
	return &Registry{namespace: namespace, index: map[string]*family{}}
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// register finds or creates the family and appends/returns the series for
// the exact label set. Re-registering the same (name, labels) returns the
// existing series; re-registering a name with a different kind panics —
// that is a wiring bug, not a runtime condition.
func (r *Registry) register(name, help, unit string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, unit: unit, kind: k}
		r.index[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.series = append(f.series, s)
	return s
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters that already live as atomics in a service
// (playsvc session counters, gateway routing stats). fn must be
// monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, "", kindCounter, labels)
	r.mu.Lock()
	s.value = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sourced from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.register(name, help, "", kindGauge, labels)
	r.mu.Lock()
	s.value = fn
	r.mu.Unlock()
}

// RegisterHistogram attaches a component-owned histogram (built with
// NewHistogram at construction time, observed whether or not anything
// scrapes) to the registry. unit declares how observed values scale in
// the exposition: "seconds" means observations are nanoseconds and are
// divided by 1e9 on output; anything else ("bytes", "") is exported raw.
func (r *Registry) RegisterHistogram(name, help, unit string, h *Histogram, labels ...Label) {
	s := r.register(name, help, unit, kindHistogram, labels)
	r.mu.Lock()
	s.hist = h
	r.mu.Unlock()
}

// snapshotFamilies copies the family/series structure under the lock so
// exposition can read values without holding it.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	for i, f := range r.families {
		cp := &family{name: f.name, help: f.help, unit: f.unit, kind: f.kind}
		cp.series = append(cp.series, f.series...)
		out[i] = cp
	}
	return out
}

// SeriesSnapshot is one labeled series in a registry snapshot.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *int64             `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// MetricSnapshot is one family in a registry snapshot. Name carries the
// namespace prefix, matching the Prometheus exposition.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Help   string           `json:"help,omitempty"`
	Unit   string           `json:"unit,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// RegistrySnapshot is the ?format=json payload of the /metrics endpoint —
// what scrapers decode and read through Value and Hist.
type RegistrySnapshot struct {
	Namespace string           `json:"namespace"`
	Metrics   []MetricSnapshot `json:"metrics"`
}

// Metric finds a family by its fully-prefixed name (nil when absent).
func (s RegistrySnapshot) Metric(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// has reports whether the series carries every given label.
func (ss *SeriesSnapshot) has(labels []Label) bool {
	for _, l := range labels {
		if ss.Labels[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// Value reads a counter or gauge family by its fully-prefixed name: the
// sum over the series carrying every given label (all of them when none
// is given). An absent family reads 0.
func (s RegistrySnapshot) Value(name string, labels ...Label) (n int64) {
	if m := s.Metric(name); m != nil {
		for i := range m.Series {
			if ss := &m.Series[i]; ss.Value != nil && ss.has(labels) {
				n += *ss.Value
			}
		}
	}
	return n
}

// Hist reads a histogram family by its fully-prefixed name: the first
// series carrying every given label, nil when there is none.
func (s RegistrySnapshot) Hist(name string, labels ...Label) *HistogramSnapshot {
	if m := s.Metric(name); m != nil {
		for i := range m.Series {
			if ss := &m.Series[i]; ss.Histogram != nil && ss.has(labels) {
				return ss.Histogram
			}
		}
	}
	return nil
}

// Flat is the scalar view of one component ("playsvc", "gateway",
// "telemetry") — what the JSON stats endpoints serve: every counter and
// gauge family under the component's prefix, summed over its series and
// keyed by the family name less that prefix and the _total suffix, so
// playsvc_sessions_created_total reads as sessions_created. The endpoints
// cannot name a scalar /metrics lacks, or spell it differently. It reads
// the registry directly — no structured snapshot, no histogram copies —
// because a stats endpoint may be polled.
func (r *Registry) Flat(component string) map[string]int64 {
	prefix := component + "_"
	out := map[string]int64{}
	for _, f := range r.snapshotFamilies() {
		if f.kind == kindHistogram || !strings.HasPrefix(f.name, prefix) {
			continue
		}
		key := strings.TrimSuffix(f.name[len(prefix):], "_total")
		for _, s := range f.series {
			if s.value != nil {
				out[key] += s.value()
			}
		}
	}
	return out
}

// prefixed joins namespace and metric name.
func (r *Registry) prefixed(name string) string {
	if r.namespace == "" {
		return name
	}
	return r.namespace + "_" + name
}

// Snapshot reads every series.
func (r *Registry) Snapshot() RegistrySnapshot {
	out := RegistrySnapshot{Namespace: r.namespace}
	for _, f := range r.snapshotFamilies() {
		m := MetricSnapshot{Name: r.prefixed(f.name), Kind: f.kind.String(), Help: f.help, Unit: f.unit}
		for _, s := range f.series {
			ss := SeriesSnapshot{}
			if len(s.labels) > 0 {
				ss.Labels = map[string]string{}
				for _, l := range s.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch {
			case s.hist != nil:
				hs := s.hist.Snapshot()
				ss.Histogram = &hs
			case s.value != nil:
				v := s.value()
				ss.Value = &v
			default:
				continue
			}
			m.Series = append(m.Series, ss)
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatLabels renders {k="v",...}; extra appends one more pair (le).
func formatLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// scaled renders a bound or sum in the family's exposition unit.
func scaled(unit string, v int64) string {
	if unit == "seconds" {
		return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.FormatInt(v, 10)
}

// WritePrometheus writes the text exposition format (# HELP / # TYPE plus
// one line per series; histograms expand to _bucket/_sum/_count).
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.snapshotFamilies() {
		name := r.prefixed(f.name)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind.String())
		for _, s := range f.series {
			if f.kind == kindHistogram {
				if s.hist == nil {
					continue
				}
				hs := s.hist.Snapshot()
				var cum int64
				for i, c := range hs.Counts {
					cum += c
					le := "+Inf"
					if i < len(hs.Bounds) {
						le = scaled(f.unit, hs.Bounds[i])
					}
					fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(s.labels, "le", le), cum)
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(s.labels, "", ""), scaled(f.unit, hs.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(s.labels, "", ""), hs.Count)
				continue
			}
			if s.value == nil {
				continue
			}
			fmt.Fprintf(w, "%s%s %d\n", name, formatLabels(s.labels, "", ""), s.value())
		}
	}
}

// Handler serves the registry: Prometheus text by default,
// ?format=json for the structured snapshot.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
