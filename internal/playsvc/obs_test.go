package playsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/obs"
)

// TestActPathZeroAllocWithMetrics pins the instrumentation overhead of the
// act path: the exported Act (histogram observe + span-ring record) must
// allocate exactly as much as the uninstrumented inner act. The act path
// itself allocates (the reply is a deep copy), so the guard is a delta,
// not an absolute zero — the metrics layer contributes nothing.
func TestActPathZeroAllocWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	m := NewManager(Options{Shards: 1, TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := m.Create(&CreateRequest{Course: "classroom"})
	if err != nil {
		t.Fatal(err)
	}
	req := &ActRequest{Session: r.Session, Kind: ActTick, Ticks: 1}
	step := func(do func(*ActRequest) (*Reply, error)) {
		reply, err := do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Ack the tails so every iteration carries the same (empty) event
		// and message slices and the allocation profile stays flat.
		req.SeenEvents = reply.EventCount
		req.SeenMessages = reply.MessageCount
	}
	for i := 0; i < 50; i++ {
		step(m.Act)
	}
	// Act minus ActBatch's admission, histogram and span.
	bare := func(a *ActRequest) (*Reply, error) {
		out, err := m.actBatch(a.batch())
		if err != nil {
			return nil, err
		}
		return out.single()
	}
	base := testing.AllocsPerRun(200, func() { step(bare) })
	instrumented := testing.AllocsPerRun(200, func() { step(m.Act) })
	if instrumented > base {
		t.Fatalf("metrics add %.1f allocs per act (bare %.1f, instrumented %.1f), want 0",
			instrumented-base, base, instrumented)
	}
}

// TestTracePropagationAcrossHandoff is the end-to-end tracing gate: one
// client-supplied trace id must show up on the gateway's routed-call span,
// the old owner's handoff span, and the new owner's thaw + act spans when
// an act forces a rescue migration.
func TestTracePropagationAcrossHandoff(t *testing.T) {
	cl, ts := liveCluster(t, 1, Options{})
	const n = 24
	ids := make([]string, n)
	for i := range ids {
		c := dial(t, ts, nil)
		c.Talk("teacher")
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		ids[i] = c.SessionID()
	}
	// A second node takes over part of the ring; every session still lives
	// on node-1, so acting on a reassigned id forces handoff → thaw.
	if _, err := cl.StartNode(); err != nil {
		t.Fatal(err)
	}
	var stray string
	for _, id := range ids {
		owner, err := cl.Gateway().ownerOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if owner.name == "node-2" {
			stray = id
			break
		}
	}
	if stray == "" {
		t.Fatal("no session moved to the new node (vanishingly unlikely)")
	}

	tc := obs.NewTrace()
	body, _ := json.Marshal(&ActRequest{Session: stray, Kind: ActTick, Ticks: 1})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+ActPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	tc.Inject(hreq.Header)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("act across handoff: %s: %s", resp.Status, msg)
	}

	names := func(ring *obs.SpanRing) map[string]bool {
		out := map[string]bool{}
		for _, sp := range ring.Spans(tc.Trace, 0) {
			if sp.Trace != tc.Trace {
				t.Fatalf("span %q carries trace %s, want %s", sp.Name, sp.Trace, tc.Trace)
			}
			out[sp.Name] = true
		}
		return out
	}
	gw := names(cl.Gateway().Ring())
	if !gw["gw "+ActPath] {
		t.Fatalf("gateway ring has no routed-act span for the trace: %v", gw)
	}
	oldOwner := names(cl.Node("node-1").Manager.Ring())
	if !oldOwner["play.handoff"] {
		t.Fatalf("old owner recorded no handoff span for the trace: %v", oldOwner)
	}
	newOwner := names(cl.Node("node-2").Manager.Ring())
	if !newOwner["play.thaw"] || !newOwner["play.act"] {
		t.Fatalf("new owner missing thaw/act spans for the trace: %v", newOwner)
	}
	if got := cl.Gateway().Stats().Rescues; got != 1 {
		t.Fatalf("rescues = %d, want 1", got)
	}
	if hs := cl.Gateway().rescueNs.Snapshot(); hs.Count != 1 {
		t.Fatalf("rescue histogram holds %d observations, want 1", hs.Count)
	}
}

// TestClientTraceInjection: a Client configured with a trace context
// stamps every request, so the server-side spans for its create and acts
// all link back to the caller's trace id.
func TestClientTraceInjection(t *testing.T) {
	ts, m := liveService(t, Options{Shards: 1, TTL: -1})
	tc := obs.NewTrace()
	c, err := Dial(ClientOptions{
		BaseURL: ts.URL,
		Course:  "classroom",
		Project: content.Classroom().Project,
		Trace:   tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seen := map[string]bool{}
	for _, sp := range m.Ring().Spans(tc.Trace, 0) {
		if sp.Parent == "" {
			t.Fatalf("span %q has no parent; client requests must send child contexts", sp.Name)
		}
		seen[sp.Name] = true
	}
	if !seen["play.create"] || !seen["play.act"] {
		t.Fatalf("server spans for the client trace = %v, want play.create and play.act", seen)
	}
}

// TestClusterNodeMetricsEndpoint: every node serves a Prometheus scrape
// covering the playsvc and blobstore families, the JSON form exposes the
// act histogram the fleet's percentile table reads, and /healthz reports
// readiness.
func TestClusterNodeMetricsEndpoint(t *testing.T) {
	cl, ts := liveCluster(t, 2, Options{})
	c := dial(t, ts, nil)
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range cl.NodeNames() {
		url := cl.Node(name).URL
		text := fetch(t, url+"/metrics")
		for _, family := range []string{
			"vgbl_playsvc_sessions_live", "vgbl_playsvc_acts_total",
			"vgbl_playsvc_act_seconds_bucket", "vgbl_blobstore_hits_total",
		} {
			if !strings.Contains(text, family) {
				t.Fatalf("node %s /metrics missing %s:\n%s", name, family, text)
			}
		}
		var snap obs.RegistrySnapshot
		if err := json.Unmarshal([]byte(fetch(t, url+"/metrics?format=json")), &snap); err != nil {
			t.Fatalf("node %s json metrics: %v", name, err)
		}
		m := snap.Metric("vgbl_playsvc_act_seconds")
		if m == nil || len(m.Series) == 0 || m.Series[0].Histogram == nil {
			t.Fatalf("node %s json metrics missing the act histogram", name)
		}
		var health struct {
			Status string `json:"status"`
			Node   string `json:"node"`
		}
		if err := json.Unmarshal([]byte(fetch(t, url+"/healthz")), &health); err != nil {
			t.Fatalf("node %s healthz: %v", name, err)
		}
		if health.Status != "ok" || health.Node != name {
			t.Fatalf("node %s healthz = %+v", name, health)
		}
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// TestStatsMerge checks the documented counter-vs-gauge contract: Merge
// sums every monotonic counter and the SessionsLive gauge, and leaves
// per-node facts (uptime, courses, shard breakdown) alone.
func TestStatsMerge(t *testing.T) {
	a := Stats{UptimeSeconds: 10, Courses: []string{"classroom"}, SessionsLive: 2,
		SessionsCreated: 5, SessionsClosed: 3, SessionsFrozen: 1, SessionsResumed: 1,
		Checkpoints: 4, Acts: 100, Frames: 7, Shards: []ShardStats{{Live: 2}}}
	b := Stats{UptimeSeconds: 99, SessionsLive: 3, SessionsCreated: 8, SessionsClosed: 5,
		SessionsEvicted: 2, Checkpoints: 1, Acts: 50}
	a.Merge(b)
	want := Stats{UptimeSeconds: 10, Courses: []string{"classroom"}, SessionsLive: 5,
		SessionsCreated: 13, SessionsClosed: 8, SessionsEvicted: 2, SessionsFrozen: 1,
		SessionsResumed: 1, Checkpoints: 5, Acts: 150, Frames: 7, Shards: []ShardStats{{Live: 2}}}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", want) {
		t.Fatalf("merged = %+v\nwant     %+v", a, want)
	}
}
