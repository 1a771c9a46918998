package obs

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramConcurrency hammers one histogram from N writers and
// checks the merged snapshot is exact — run under -race in CI, this is
// the data-race and lost-update guard for the hot-path instrument.
func TestHistogramConcurrency(t *testing.T) {
	h := NewHistogram(LatencyBounds)
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWriter; i++ {
				// A deterministic LCG spreads observations over buckets.
				v = v*6364136223846793005 + 1442695040888963407
				x := v % 10_000_000_000
				if x < 0 {
					x = -x
				}
				h.Observe(x)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(writers * perWriter); s.Count != want {
		t.Fatalf("merged count = %d, want %d", s.Count, want)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for v := int64(1); v <= 10; v++ {
		h.Observe(v) // all land in bucket 0 (≤10)
	}
	h.Observe(50)    // bucket 1
	h.Observe(5000)  // +Inf bucket
	h.Observe(10000) // +Inf bucket
	s := h.Snapshot()
	if got := s.Counts[0]; got != 10 {
		t.Fatalf("bucket ≤10 = %d, want 10", got)
	}
	if got := s.Counts[1]; got != 1 {
		t.Fatalf("bucket ≤100 = %d, want 1", got)
	}
	if got := s.Counts[3]; got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
	if s.Count != 13 {
		t.Fatalf("count = %d, want 13", s.Count)
	}
	// Median of 13 observations sits in the first bucket.
	if q := s.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("p50 = %d, want in (0,10]", q)
	}
	// Tail quantiles clamp to the largest finite bound for +Inf residents.
	if q := s.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (largest finite bound)", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
}

func TestRegistryPrometheusAndJSON(t *testing.T) {
	r := NewRegistry("vgbl")
	var widgets atomic.Int64
	widgets.Add(3)
	r.CounterFunc("widgets_total", "widgets made", widgets.Load)
	r.GaugeFunc("queue_depth", "items queued", func() int64 { return 7 })
	r.CounterFunc("sourced_total", "from a closure", func() int64 { return 42 })
	h := NewHistogram([]int64{1_000_000, 1_000_000_000})
	r.RegisterHistogram("op_seconds", "op latency", "seconds", h, L("path", "act"))
	h.Observe(500_000)     // 0.5ms
	h.Observe(2_000_000)   // 2ms
	h.Observe(5_000_000_0) // 50ms → +Inf? no: ≤1s bucket

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE vgbl_widgets_total counter",
		"vgbl_widgets_total 3",
		"# TYPE vgbl_queue_depth gauge",
		"vgbl_queue_depth 7",
		"vgbl_sourced_total 42",
		"# TYPE vgbl_op_seconds histogram",
		`vgbl_op_seconds_bucket{path="act",le="0.001"} 1`,
		`vgbl_op_seconds_bucket{path="act",le="1"} 3`,
		`vgbl_op_seconds_bucket{path="act",le="+Inf"} 3`,
		`vgbl_op_seconds_count{path="act"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}

	// The JSON form round-trips through the scrape-side decoder.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if h := snap.Hist("vgbl_op_seconds", L("path", "act")); h == nil || h.Count != 3 {
		t.Fatalf("json snapshot lacks the labeled histogram: %+v", snap)
	}
	if snap.Hist("vgbl_op_seconds", L("path", "frame")) != nil || snap.Hist("vgbl_widgets_total") != nil {
		t.Fatalf("Hist matched a series that is not there")
	}
	if got := snap.Value("vgbl_widgets_total"); got != 3 {
		t.Fatalf("counter over json = %d, want 3", got)
	}
}

// TestSnapshotReaders pins Value's label-subset sum and Flat's key rule:
// one component's counters and gauges, prefix and _total suffix dropped,
// labeled series summed, histograms and other components left out.
func TestSnapshotReaders(t *testing.T) {
	r := NewRegistry("vgbl")
	value := func(n int64) func() int64 { return func() int64 { return n } }
	r.CounterFunc("svc_jobs_total", "jobs", value(5))
	r.GaugeFunc("svc_depth", "queued", value(2))
	r.CounterFunc("svc_bytes_total", "bytes", value(10), L("tier", "low"), L("zone", "a"))
	r.CounterFunc("svc_bytes_total", "bytes", value(30), L("tier", "full"), L("zone", "a"))
	h := NewHistogram(nil)
	h.Observe(1)
	r.RegisterHistogram("svc_seconds", "latency", "seconds", h)
	r.CounterFunc("svcs_other_total", "another component", value(1))
	snap := r.Snapshot()
	for _, c := range []struct {
		name   string
		labels []Label
		want   int64
	}{
		{"vgbl_svc_jobs_total", nil, 5},
		{"vgbl_svc_bytes_total", nil, 40},
		{"vgbl_svc_bytes_total", []Label{L("tier", "low")}, 10},
		{"vgbl_svc_bytes_total", []Label{L("zone", "a"), L("tier", "full")}, 30},
		{"vgbl_svc_bytes_total", []Label{L("tier", "med")}, 0},
		{"vgbl_svc_seconds", nil, 0},
		{"svc_jobs_total", nil, 0}, // names carry the namespace
	} {
		if got := snap.Value(c.name, c.labels...); got != c.want {
			t.Errorf("Value(%s, %v) = %d, want %d", c.name, c.labels, got, c.want)
		}
	}
	want := map[string]int64{"jobs": 5, "depth": 2, "bytes": 40}
	if got := r.Flat("svc"); !reflect.DeepEqual(got, want) {
		t.Errorf("Flat(svc) = %v, want %v", got, want)
	}
}

func TestRegistryReregistration(t *testing.T) {
	r := NewRegistry("vgbl")
	r.CounterFunc("x_total", "x", func() int64 { return 1 })
	hot, cold := NewHistogram(nil), NewHistogram(nil)
	r.RegisterHistogram("h_seconds", "h", "seconds", hot, L("tier", "hot"))
	r.RegisterHistogram("h_seconds", "h", "seconds", cold, L("tier", "cold"))
	hot.Observe(1)
	snap := r.Snapshot()
	if h1, h2 := snap.Hist("vgbl_h_seconds", L("tier", "hot")), snap.Hist("vgbl_h_seconds", L("tier", "cold")); h1 == nil || h2 == nil || h1.Count == h2.Count {
		t.Fatalf("distinct label sets must get distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("kind conflict must panic")
		}
	}()
	r.GaugeFunc("x_total", "now a gauge?!", func() int64 { return 1 })
}

func TestTraceContext(t *testing.T) {
	tc := NewTrace()
	if !tc.Valid() || tc.Trace == "" || tc.Span == "" || tc.Parent != "" {
		t.Fatalf("bad root context: %+v", tc)
	}
	child := tc.Child()
	if child.Trace != tc.Trace || child.Parent != tc.Span || child.Span == tc.Span {
		t.Fatalf("bad child derivation: %+v from %+v", child, tc)
	}
	round, ok := ParseTrace(child.String())
	if !ok || round != child {
		t.Fatalf("header round-trip: %+v → %q → %+v", child, child.String(), round)
	}
	if (TraceContext{}).Child().Valid() {
		t.Fatalf("child of the zero context must stay invalid")
	}
	long := strings.Repeat("a", 64<<10)
	for _, bad := range []string{"", "/", "a", "//b", "a/b/c/d",
		long + "/b", "a/" + long, "a/b/" + long, strings.Repeat("a", 33) + "/b",
		"A/b", "a/B", "g/b", "a/b/z", "a b/c", "a/b//", "-1/2"} {
		if _, ok := ParseTrace(bad); ok {
			t.Fatalf("ParseTrace(%q) accepted garbage", bad)
		}
	}
}

// FuzzParseTrace: an accepted header round-trips through String, and no
// field it yields is longer than the ids NewTrace and Child mint allow.
func FuzzParseTrace(f *testing.F) {
	tc := NewTrace()
	for _, seed := range []string{tc.String(), tc.Child().String(), "a/b", "a/b/", "a/b/c", "", "/", "a/b/c/d", "A/b", strings.Repeat("f", 33) + "/0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTrace(s)
		if !ok {
			return
		}
		if len(tc.Trace) > 32 || len(tc.Span) > 32 || len(tc.Parent) > 32 {
			t.Fatalf("ParseTrace(%q) kept a field past 32 bytes: %+v", s, tc)
		}
		if round, ok := ParseTrace(tc.String()); !ok || round != tc {
			t.Fatalf("ParseTrace(%q) = %+v, but %q parses back to %+v, %v", s, tc, tc.String(), round, ok)
		}
	})
}

func TestSpanRing(t *testing.T) {
	ring := NewSpanRing("node-1", 4)
	tc := NewTrace()
	other := NewTrace()
	base := time.Now()
	ring.Record(tc, "a", base, nil)
	ring.Record(other, "b", base, errors.New("boom"))
	ring.Record(tc.Child(), "c", base, nil)
	// An invalid context must be dropped, not recorded.
	ring.Record(TraceContext{}, "ghost", base, nil)
	if got := len(ring.Spans("", 0)); got != 3 {
		t.Fatalf("retained %d spans, want 3", got)
	}
	mine := ring.Spans(tc.Trace, 0)
	if len(mine) != 2 {
		t.Fatalf("trace filter kept %d spans, want 2", len(mine))
	}
	if mine[0].Name != "c" || mine[1].Name != "a" {
		t.Fatalf("spans not newest-first: %v", []string{mine[0].Name, mine[1].Name})
	}
	if mine[0].Node != "node-1" {
		t.Fatalf("span missing node stamp")
	}
	// Overflow: the ring keeps the newest `capacity` spans.
	for i := 0; i < 10; i++ {
		ring.Record(other, "fill", base, nil)
	}
	if got := len(ring.Spans("", 0)); got != 4 {
		t.Fatalf("ring retained %d spans after overflow, want 4", got)
	}
	if ring.Total() != 13 {
		t.Fatalf("total = %d, want 13", ring.Total())
	}
}

func TestHealthHandler(t *testing.T) {
	h := NewHealth().
		Set("pending", func() any { return 5 }).
		Set("queue_saturation", func() any { return 0.25 })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var got struct {
		Status          string  `json:"status"`
		UptimeSeconds   float64 `json:"uptime_seconds"`
		Pending         int     `json:"pending"`
		QueueSaturation float64 `json:"queue_saturation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("health payload is not JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Status != "ok" || got.Pending != 5 || got.QueueSaturation != 0.25 {
		t.Fatalf("bad health payload: %s", rec.Body.String())
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(LatencyBounds)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocated %.1f/op, want 0", n)
	}
	s := NewSampler(64)
	if n := testing.AllocsPerRun(1000, func() { s.Tick() }); n != 0 {
		t.Fatalf("Sampler.Tick allocated %.1f/op, want 0", n)
	}
}
