package playsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

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
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
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
	if got := stat(t, cl.Gateway().Stats().Gateway, "rescues"); got != 1 {
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
	ts, m := liveService(t, Options{TTL: -1})
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

// TestOversizedTraceHeaderNotKept: a trace header is an outside caller's
// bytes, and every span ring slot that records it would keep them. An act
// for an unknown session carrying a 64 KB trace id is answered as usual,
// and neither the gateway's ring nor any node's holds a span with that id:
// the gateway traces the request under an id of its own.
func TestOversizedTraceHeaderNotKept(t *testing.T) {
	cl, ts := liveCluster(t, 2, Options{})
	long := strings.Repeat("a", 64<<10)
	body, _ := json.Marshal(&ActRequest{Session: "no-such-session", Kind: ActTick, Ticks: 1})
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+ActPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, long+"/"+long[:8])
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("act for an unknown session answered %s, want 404", resp.Status)
	}
	rings := map[string]*obs.SpanRing{"gateway": cl.Gateway().Ring()}
	for _, name := range cl.NodeNames() {
		rings[name] = cl.Node(name).Manager.Ring()
	}
	if len(rings["gateway"].Spans("", 0)) == 0 {
		t.Fatal("the gateway recorded no span for the act; the test proved nothing")
	}
	for name, ring := range rings {
		for _, sp := range ring.Spans("", 0) {
			if n := len(sp.Trace) + len(sp.Span) + len(sp.Parent); n > 96 {
				t.Errorf("%s ring keeps span %q with %d bytes of trace ids", name, sp.Name, n)
			}
		}
	}
}

// TestClusterNodeMetricsEndpoint: every node serves a Prometheus scrape
// covering the playsvc families, the JSON form exposes the
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
			"vgbl_playsvc_act_seconds_bucket",
		} {
			if !strings.Contains(text, family) {
				t.Fatalf("node %s /metrics missing %s:\n%s", name, family, text)
			}
		}
		var snap obs.RegistrySnapshot
		if err := json.Unmarshal([]byte(fetch(t, url+"/metrics?format=json")), &snap); err != nil {
			t.Fatalf("node %s json metrics: %v", name, err)
		}
		if snap.Hist("vgbl_playsvc_act_seconds") == nil {
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

func fetch(t testing.TB, url string) string {
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

// stat reads one key of a flat stats view. An absent key fails the test,
// so a misspelt name cannot read as 0.
func stat(t testing.TB, flat map[string]int64, key string) int64 {
	t.Helper()
	v, ok := flat[key]
	if !ok {
		t.Fatalf("stats have no key %q: %v", key, flat)
	}
	return v
}

// scalarFamilies is the oracle the JSON stats endpoints are held to,
// worked out from a /metrics?format=json body without obs.Flat: every
// counter and gauge family under vgbl_<component>_, keyed by the rest of
// its name less a _total suffix.
func scalarFamilies(t testing.TB, metricsJSON, component string) map[string]int64 {
	t.Helper()
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal([]byte(metricsJSON), &snap); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, m := range snap.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "vgbl_"+component+"_")
		if !ok || m.Kind == "histogram" {
			continue
		}
		for _, ss := range m.Series {
			if ss.Value == nil || len(ss.Labels) != 0 {
				t.Fatalf("%s is not an unlabeled scalar: %+v", m.Name, ss)
			}
			out[strings.TrimSuffix(rest, "_total")] += *ss.Value
		}
	}
	return out
}

// checkNodeSurfaces asserts a play node's /play/stats and /metrics agree
// both ways — same keys, same values — and returns the flat view.
func checkNodeSurfaces(t testing.TB, url string) map[string]int64 {
	t.Helper()
	body := fetch(t, url+StatsPath)
	flat, err := decodeFlat([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["courses"]; !ok || len(raw) != len(flat)+1 {
		t.Fatalf("%s%s: want integer scalars plus courses, got %s", url, StatsPath, body)
	}
	if want := scalarFamilies(t, fetch(t, url+"/metrics?format=json"), "playsvc"); !reflect.DeepEqual(flat, want) {
		t.Fatalf("%s: /play/stats and /metrics disagree:\n stats   %v\n metrics %v", url, flat, want)
	}
	// The shape benchmark/server.go decodes.
	var ps struct {
		Created int64 `json:"sessions_created"`
		Closed  int64 `json:"sessions_closed"`
	}
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatal(err)
	}
	if ps.Created != stat(t, flat, "sessions_created") || ps.Closed != stat(t, flat, "sessions_closed") {
		t.Fatalf("%s: benchmark shape read %+v from %v", url, ps, flat)
	}
	return flat
}

// playClass drives the traffic the stats surfaces are compared under: one
// session left, one evicted while idle, one kept live (returned), a few
// frames, and a room with two watchers, a publication and a quiz answer.
// evict sweeps every manager behind baseURL.
func playClass(t testing.TB, baseURL string, evict func()) *Client {
	t.Helper()
	left := dialOpts(t, baseURL, nil, nil)
	left.Talk("teacher")
	for i := 0; i < 3; i++ {
		if _, err := left.Frame(); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Close(); err != nil {
		t.Fatal(err)
	}
	idle := dialOpts(t, baseURL, nil, nil)
	if err := idle.Advance(1); err != nil {
		t.Fatal(err)
	}
	evict()
	live := dialOpts(t, baseURL, nil, nil)
	if err := live.Advance(1); err != nil {
		t.Fatal(err)
	}

	driver, err := Dial(ClientOptions{BaseURL: baseURL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	watchers := make([]*RoomClient, 2)
	for i := range watchers {
		wc, err := JoinRoom(RoomClientOptions{BaseURL: baseURL, Room: roomID, Pkg: classroomPkg(t)})
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = wc
	}
	driver.Talk("teacher")
	driver.Examine("computer") // opens q-diagnosis
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	for _, wc := range watchers {
		if _, err := wc.Poll(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := watchers[0].Answer("q-diagnosis", 1); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestStatsSurfacesAgree holds the JSON stats endpoints to the registry
// they project: on a single node and on every node of a cluster,
// /play/stats and /metrics report the same scalars under the same names,
// both ways; the gateway's cluster view is the key-wise sum of its nodes'
// views and its own scalars are its gateway_* families. No key is listed
// here: a family added to Register is covered, a key served from anywhere
// else fails.
func TestStatsSurfacesAgree(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		m := NewManager(Options{TTL: -1})
		t.Cleanup(m.Close)
		if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry("vgbl")
		m.Register(reg)
		mux := http.NewServeMux()
		mux.Handle("/play/", m.Handler())
		mux.Handle("/room/", m.Handler())
		mux.Handle("/metrics", reg.Handler())
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		playClass(t, ts.URL, func() { m.ExpireIdle(time.Now().Add(time.Minute)) })

		flat := checkNodeSurfaces(t, ts.URL)
		for key, want := range map[string]int64{
			"sessions_created": 4, "sessions_closed": 1, "sessions_evicted": 1, "sessions_live": 2,
			"frames": 3, "rooms": 1, "room_frames_delivered": 2, "room_answers": 1, "video_buffers": 1,
		} {
			if got := stat(t, flat, key); got != want {
				t.Errorf("%s = %d, want %d (%v)", key, got, want, flat)
			}
		}
		if stat(t, flat, "framecache_bytes") == 0 {
			t.Errorf("the frame caches hold nothing: %v", flat)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		cl, ts := liveCluster(t, 2, Options{})
		reg := obs.NewRegistry("vgbl")
		cl.Gateway().Register(reg)
		check := func() GatewayStats {
			t.Helper()
			var gs GatewayStats
			if err := json.Unmarshal([]byte(fetch(t, ts.URL+StatsPath)), &gs); err != nil {
				t.Fatal(err)
			}
			if gs.NodesQueried != len(cl.NodeNames()) || len(gs.Nodes) != gs.NodesQueried {
				t.Fatalf("gateway reached %d of %d nodes: %+v", gs.NodesQueried, len(cl.NodeNames()), gs)
			}
			sum := map[string]int64{}
			for _, n := range gs.Nodes {
				if direct := checkNodeSurfaces(t, n.URL); !reflect.DeepEqual(n.Stats, direct) {
					t.Fatalf("%s: gateway relays %v, node serves %v", n.Name, n.Stats, direct)
				}
				for k, v := range n.Stats {
					sum[k] += v
				}
			}
			if !reflect.DeepEqual(gs.Cluster, sum) {
				t.Fatalf("cluster view is not the key-wise sum of the nodes:\n cluster %v\n sum     %v", gs.Cluster, sum)
			}
			metricsJSON, err := json.Marshal(reg.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if want := scalarFamilies(t, string(metricsJSON), "gateway"); !reflect.DeepEqual(gs.Gateway, want) {
				t.Fatalf("gateway scalars and gateway_* families disagree:\n stats   %v\n metrics %v", gs.Gateway, want)
			}
			return gs
		}

		live := playClass(t, ts.URL, func() {
			for _, name := range cl.NodeNames() {
				cl.Node(name).Manager.ExpireIdle(time.Now().Add(time.Minute))
			}
		})
		gs := check()
		if stat(t, gs.Gateway, "creates") == 0 || stat(t, gs.Cluster, "sessions_created") != 4 ||
			stat(t, gs.Cluster, "sessions_frozen") != 1 || stat(t, gs.Cluster, "room_frames_delivered") != 2 {
			t.Fatalf("cluster accounting off: %+v", gs)
		}

		// Node removal: the live session's owner drains (freeze), a fresh
		// node joins, and the session's next act thaws it elsewhere.
		var owner string
		for _, name := range cl.NodeNames() {
			for _, id := range cl.Node(name).Manager.LiveSessions() {
				if id == live.SessionID() {
					owner = name
				}
			}
		}
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
		if err := cl.StopNode(owner); err != nil {
			t.Fatal(err)
		}
		if err := live.Advance(1); err != nil {
			t.Fatal(err)
		}
		if gs = check(); stat(t, gs.Cluster, "sessions_resumed") == 0 {
			t.Fatalf("no session resumed after node removal: %+v", gs)
		}
	})
}
