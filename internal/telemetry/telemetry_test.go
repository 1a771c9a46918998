package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// sessionEvents is a small classroom-flavoured event stream.
func sessionEvents() []runtime.Event {
	return []runtime.Event{
		{Tick: 0, Kind: "say", Detail: "welcome"},
		{Tick: 2, Kind: "examine", Detail: "computer"},
		{Tick: 3, Kind: "learn", Detail: "ram-identification"},
		{Tick: 8, Kind: "goto", Detail: "market"},
		{Tick: 10, Kind: "take", Detail: "stall-ram"},
		{Tick: 14, Kind: "goto", Detail: "classroom"},
		{Tick: 16, Kind: "use", Detail: "ram module on computer"},
		{Tick: 16, Kind: "learn", Detail: "ram-installation"},
		{Tick: 16, Kind: "reward", Detail: "repair-badge"},
		{Tick: 16, Kind: "end", Detail: "victory"},
	}
}

func digestOf(events []runtime.Event, start string) *analytics.Report {
	c := &analytics.Collector{}
	for _, e := range events {
		c.Record(e)
	}
	return c.Digest(start)
}

func TestStoreFoldMatchesDigest(t *testing.T) {
	st := NewStore()
	events := sessionEvents()
	// Deliver in two batches, then close the session.
	if err := st.Append(Batch{Course: "classroom", Session: "s1", Start: "classroom", Events: events[:4]}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Batch{Course: "classroom", Session: "s1", Events: events[4:]}); err != nil {
		t.Fatal(err)
	}
	if got := st.LiveSessions(); got != 1 {
		t.Fatalf("live sessions = %d", got)
	}
	if err := st.Append(Batch{Course: "classroom", Session: "s1", Done: true}); err != nil {
		t.Fatal(err)
	}
	if got := st.LiveSessions(); got != 0 {
		t.Fatalf("live sessions after done = %d", got)
	}
	want := digestOf(events, "classroom")
	cs := st.Snapshot()["classroom"]
	if cs.SessionsStarted != 1 || cs.SessionsEnded != 1 || cs.Completed != 1 {
		t.Errorf("session counts: %+v", cs)
	}
	if cs.Events != want.TotalEvents || cs.Decisions != want.Decisions ||
		cs.Knowledge != len(want.Knowledge) || cs.Rewards != len(want.Rewards) ||
		cs.Ticks != want.LastTick || cs.UniqueKnowledge != len(want.UniqueKnowledge()) {
		t.Errorf("stats = %+v\nwant report %+v", cs, want)
	}
	if cs.Outcomes["victory"] != 1 {
		t.Errorf("outcomes = %v", cs.Outcomes)
	}
	// LastTick 16 lands in the first (≤25) histogram bucket.
	if cs.TickHist[0] != 1 {
		t.Errorf("tick hist = %v", cs.TickHist)
	}
}

func TestStoreValidationAndRebind(t *testing.T) {
	st := NewStore()
	if err := st.Append(Batch{Session: "x"}); err == nil {
		t.Error("courseless batch accepted")
	}
	if err := st.Append(Batch{Course: "c"}); err == nil {
		t.Error("sessionless batch accepted")
	}
	if err := st.Append(Batch{Course: "a", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Batch{Course: "b", Session: "s"}); err == nil {
		t.Error("session rebound to another course")
	}
	// A negative seq would skip both dedup and the gap check: every replay
	// would be applied again.
	for i := 0; i < 3; i++ {
		if err := st.Append(Batch{Course: "a", Session: "neg", Seq: -1, Events: sessionEvents()[:2]}); err == nil {
			t.Fatal("negative seq accepted")
		}
	}
	if n := st.liveEvents("neg"); n != 0 {
		t.Errorf("replays of a negative-seq batch left %d events", n)
	}
}

func TestStoreConcurrentSessions(t *testing.T) {
	st := NewStore()
	const sessions = 200
	events := sessionEvents()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", i)
			for j := 0; j < len(events); j += 3 {
				hi := j + 3
				if hi > len(events) {
					hi = len(events)
				}
				if err := st.Append(Batch{Course: "classroom", Session: id, Start: "classroom", Events: events[j:hi]}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := st.Append(Batch{Course: "classroom", Session: id, Done: true}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	want := digestOf(events, "classroom")
	cs := st.Snapshot()["classroom"]
	if cs.SessionsEnded != sessions || cs.SessionsStarted != sessions {
		t.Fatalf("sessions = %+v", cs)
	}
	if cs.Events != sessions*want.TotalEvents || cs.Decisions != sessions*want.Decisions {
		t.Errorf("totals drifted: %+v", cs)
	}
	if cs.KnowledgeCounts["ram-installation"] != sessions {
		t.Errorf("knowledge counts = %v", cs.KnowledgeCounts)
	}
}

func TestServiceEndpoints(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Healthz.
	resp, err := http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" {
		t.Errorf("healthz = %+v", health)
	}

	// Method and body validation.
	resp, _ = http.Get(ts.URL + IngestPath)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest = %s", resp.Status)
	}
	resp, _ = http.Post(ts.URL+IngestPath, BatchContentType, strings.NewReader("{not json"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk body = %s", resp.Status)
	}
	resp, _ = postBatch(ts.URL, Batch{Session: "s"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("courseless batch = %s", resp.Status)
	}

	// A real session through the client.
	c, err := NewClient(ClientOptions{
		BaseURL: ts.URL, Course: "classroom", Session: "svc-1", Start: "classroom",
		FlushEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := sessionEvents()
	for _, e := range events {
		c.Record(e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		BadRequests int64                  `json:"bad_requests"`
		Courses     map[string]CourseStats `json:"courses"`
	}
	resp, err = http.Get(ts.URL + StatsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := digestOf(events, "classroom")
	cs := snap.Courses["classroom"]
	if cs.SessionsEnded != 1 || cs.Events != want.TotalEvents || cs.Decisions != want.Decisions {
		t.Errorf("stats = %+v, want report %+v", cs, want)
	}
	if snap.BadRequests != 2 {
		t.Errorf("bad requests = %d, want 2", snap.BadRequests)
	}
	// FlushEvery 4 with 10 events + done: at least 3 batches.
	if st := c.Stats(); st.Batches < 3 || st.Events != len(events) {
		t.Errorf("client stats = %+v", st)
	}
}

func TestServiceBackpressure(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	s.inFlight = make(chan struct{}, 1) // maxInFlight, shrunk in place
	s.applyDelay.Store(int64(20 * time.Millisecond))

	// With every slot taken, a post is shed before its body is read.
	s.inFlight <- struct{}{}
	body := &readCounter{r: bytes.NewReader(EncodeBatch(&Batch{Course: "c", Session: "unread"}))}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, IngestPath, body))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" || body.n != 0 {
		t.Fatalf("at the bound: %d, Retry-After %q, %d body bytes read; want 429, 1, 0",
			rec.Code, rec.Header().Get("Retry-After"), body.n)
	}
	<-s.inFlight

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Slam one session from many goroutines: the in-flight bound must shed
	// with 429, never block or drop silently.
	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				resp, err := postBatch(ts.URL, Batch{Course: "c", Session: "hot", Events: []runtime.Event{{Tick: 1, Kind: "click", Detail: "x"}}})
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %s", resp.Status)
				}
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Error("no batch was shed despite a saturated service")
	}
	if n := stat(t, s.Snapshot(), "batches_rejected"); n != shed.Load()+1 {
		t.Errorf("rejected %d, want the %d shed posts and the unread one", n, shed.Load())
	}
	// A 202 means applied: every accepted event is already in the store —
	// none lost, none duplicated.
	if applied := stat(t, s.Snapshot(), "batches_applied"); applied != accepted.Load() {
		t.Errorf("applied %d of %d accepted", applied, accepted.Load())
	}
	if got := s.store.Snapshot()["c"].Events + s.store.liveEvents("hot"); int64(got) != accepted.Load() {
		t.Errorf("stored events = %d, accepted = %d", got, accepted.Load())
	}
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.Reader
	n int
}

func (rc *readCounter) Read(p []byte) (int, error) {
	n, err := rc.r.Read(p)
	rc.n += n
	return n, err
}

// TestServiceRefusedBatchIs409: a batch the store refuses — a sequence gap,
// or a session bound to another course — is answered 409 and counted under
// apply_errors, not acknowledged and lost; the client takes the 409 as a
// definitive rejection and counts the batch's events as dropped. A seq the
// store cannot order (negative, or past int32) never reaches it: 400.
func TestServiceRefusedBatchIs409(t *testing.T) {
	s := NewService(Options{IdleTimeout: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	click := func(tick int) []runtime.Event { return []runtime.Event{{Tick: tick, Kind: "click"}} }
	var pastWire int64 = math.MaxInt32 + 1 // as an int it wraps negative on 32-bit targets, refused there too
	for _, tc := range []struct {
		body Batch
		want int
	}{
		{Batch{Course: "c", Session: "s", Seq: 1, Events: click(1)}, http.StatusAccepted},
		{Batch{Course: "c", Session: "s", Seq: 3, Events: click(2)}, http.StatusConflict}, // gap
		{Batch{Course: "other", Session: "s", Seq: 2}, http.StatusConflict},               // rebind
		{Batch{Course: "c", Session: "s", Seq: 1, Events: click(1)}, http.StatusAccepted}, // replay
		{Batch{Course: "c", Session: "s", Seq: -1, Events: click(2)}, http.StatusBadRequest},
		{Batch{Course: "c", Session: "s", Seq: int(pastWire), Events: click(2)}, http.StatusBadRequest},
	} {
		resp, err := postBatch(ts.URL, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%+v: %s, want %d", tc.body, resp.Status, tc.want)
		}
	}
	snap := s.Snapshot()
	if stat(t, snap, "apply_errors") != 2 || stat(t, snap, "batches_applied") != 2 {
		t.Errorf("apply_errors %d, batches_applied %d; want 2 and 2", snap["apply_errors"], snap["batches_applied"])
	}
	if got := s.store.liveEvents("s"); got != 1 {
		t.Errorf("session holds %d events, want the first batch's 1", got)
	}

	// Through the client: a session id already bound to course "c".
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "b", Session: "s", FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Record(runtime.Event{Tick: 1, Kind: "click"})
	c.Record(runtime.Event{Tick: 2, Kind: "click"})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("client error after a refused batch: %v", err)
	}
	if st := c.Stats(); st.Dropped != 2 || st.Events != 0 || st.Posts != 1 {
		t.Errorf("client stats = %+v, want 2 dropped after one post", st)
	}
	if n := stat(t, s.Snapshot(), "apply_errors"); n != 3 {
		t.Errorf("apply_errors = %d, want 3", n)
	}
}

// TestNewServiceStartsOnlyTheJanitor: ingest runs on the request's own
// goroutine, so a service starts one goroutine, the idle janitor, and none
// when expiry is off; Close stops it.
func TestNewServiceStartsOnlyTheJanitor(t *testing.T) {
	// started returns the stacks of the goroutines NewService started, once
	// they have settled (begun running, or finished exiting) or after 1s.
	started := func(want int) []string {
		var gs []string
		for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
			buf := make([]byte, 1<<20)
			buf = buf[:goruntime.Stack(buf, true)]
			gs = gs[:0]
			for _, g := range strings.Split(string(buf), "\n\n") {
				if strings.Contains(g, "created by repro/internal/telemetry.NewService") {
					gs = append(gs, g)
				}
			}
			if (len(gs) == want && (want == 0 || strings.Contains(gs[0], ".runJanitor("))) || time.Now().After(deadline) {
				return gs
			}
		}
	}
	if got := started(0); len(got) != 0 {
		t.Fatalf("goroutines left by earlier services: %v", got)
	}
	off := NewService(Options{IdleTimeout: -1})
	if got := started(0); len(got) != 0 {
		t.Errorf("with expiry off NewService started %v", got)
	}
	off.Close()
	s := NewService(Options{})
	if got := started(1); len(got) != 1 || !strings.Contains(got[0], "telemetry.(*Service).runJanitor(") {
		t.Errorf("NewService started %v, want only the janitor", got)
	}
	s.Close()
	if got := started(0); len(got) != 0 {
		t.Errorf("Close left %v running", got)
	}
}

// liveEvents counts buffered events of one live session (test helper).
func (st *Store) liveEvents(session string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if log, ok := st.sessions[session]; ok {
		return len(log.events)
	}
	return 0
}

func TestClientRetriesOn429(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "full", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Record(runtime.Event{Kind: "click"})
	if err := c.Err(); err != nil {
		t.Fatalf("flush failed despite retries: %v", err)
	}
	st := c.Stats()
	if st.Retries != 3 || st.Batches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestClientRequeuesAfterExhaustedShed: a batch the server keeps shedding
// is held (honoring the advertised Retry-After), not dropped — once the
// server recovers, the pending batch lands first and every event is
// accounted for exactly once.
func TestClientRequeuesAfterExhaustedShed(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	inner := s.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == IngestPath && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "full", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.retry.Attempts = 2 // postAttempts, shrunk in place
	var slept []time.Duration
	c.retry.Sleep = func(d time.Duration) { slept = append(slept, d) }
	c.Record(runtime.Event{Tick: 1, Kind: "click", Detail: "door"})
	// The first flush exhausted its retry budget against the shedding
	// server: the batch is re-queued, not dropped, and the error is not
	// sticky.
	if err := c.Err(); err != nil {
		t.Fatalf("sticky error after shed: %v", err)
	}
	if st := c.Stats(); st.Dropped != 0 || st.Batches != 0 || st.Posts != 2 {
		t.Fatalf("stats after shed = %+v", st)
	}
	// The retry slept the server's Retry-After, not the default backoff.
	if len(slept) != 1 || slept[0] != time.Second {
		t.Fatalf("slept %v, want [1s]", slept)
	}
	// The next flush delivers the pending batch first, then the new one;
	// Close lands the done marker.
	c.Record(runtime.Event{Tick: 2, Kind: "click", Detail: "desk"})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := s.Store().Snapshot()["c"]; cs.Events != 2 || cs.SessionsEnded != 1 {
		t.Errorf("store stats = %+v", cs)
	}
	if st := c.Stats(); st.Dropped != 0 || st.Events != 2 {
		t.Errorf("client stats = %+v", st)
	}
}

func TestClientIntervalFlush(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := NewClient(ClientOptions{
		BaseURL: ts.URL, Course: "c", Session: "tick", Start: "start",
		FlushEvery: 1000, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Record(runtime.Event{Tick: 1, Kind: "click", Detail: "door"})
	// Well under FlushEvery, so only the timer can deliver this.
	deadline := time.Now().Add(5 * time.Second)
	for c.Buffered() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Buffered() != 0 {
		t.Fatal("interval flush never fired")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if cs := s.Store().Snapshot()["c"]; cs.Events != 1 || cs.SessionsEnded != 1 {
		t.Errorf("stats = %+v", cs)
	}
}

func TestClientRecordAfterCloseDropped(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, _ := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s"})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Record(runtime.Event{Kind: "click"})
	if got := c.Buffered(); got != 0 {
		t.Errorf("post-close record buffered (%d)", got)
	}
	if err := c.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

func TestStoreDuplicateDeliveryDropped(t *testing.T) {
	st := NewStore()
	events := sessionEvents()
	b1 := Batch{Course: "c", Session: "s", Start: "classroom", Seq: 1, Events: events[:5]}
	for i := 0; i < 3; i++ { // at-least-once: same batch delivered thrice
		if err := st.Append(b1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(Batch{Course: "c", Session: "s", Seq: 2, Events: events[5:]}); err != nil {
		t.Fatal(err)
	}
	// A gap is a client bug and is refused.
	if err := st.Append(Batch{Course: "c", Session: "s", Seq: 9}); err == nil {
		t.Error("sequence gap accepted")
	}
	done := Batch{Course: "c", Session: "s", Seq: 3, Done: true}
	if err := st.Append(done); err != nil {
		t.Fatal(err)
	}
	// Replayed done (lost ack) and any stale batch are absorbed by the
	// tombstone without re-counting the session.
	if err := st.Append(done); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	want := digestOf(events, "classroom")
	cs := st.Snapshot()["c"]
	if cs.SessionsStarted != 1 || cs.SessionsEnded != 1 {
		t.Fatalf("session counts after replays: %+v", cs)
	}
	if cs.Events != want.TotalEvents || cs.Decisions != want.Decisions {
		t.Errorf("totals after duplicate deliveries: %+v, want %+v", cs, want)
	}
	if cs.LiveSessions != 0 {
		t.Errorf("tombstone counted as live: %+v", cs)
	}
}

func TestClientStopsAfterStickyError(t *testing.T) {
	// A definitive rejection (not a shed) is sticky: the client stops
	// posting — the server would refuse the sequence gap anyway.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.retry.Attempts = 2
	c.Record(runtime.Event{Kind: "click"})
	if c.Err() == nil {
		t.Fatal("expected sticky error")
	}
	posts := c.Stats().Posts
	// Further records must not post: the server would reject the sequence
	// gap anyway.
	c.Record(runtime.Event{Kind: "click"})
	if got := c.Stats().Posts; got != posts {
		t.Errorf("posts grew from %d to %d after sticky error", posts, got)
	}
	if err := c.Close(); err == nil {
		t.Error("Close did not report the delivery failure")
	}
}

func TestClientBatchesCarrySequence(t *testing.T) {
	var mu sync.Mutex
	var seqs []int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		b, _ := ParseBatch(body)
		mu.Lock()
		seqs = append(seqs, b.Seq)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Record(runtime.Event{Tick: i, Kind: "click"})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 3 { // 2+2, then 1 event + done
		t.Fatalf("batches = %v", seqs)
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("seqs = %v, want 1..3", seqs)
		}
	}
}

func TestStoreExpireIdle(t *testing.T) {
	st := NewStore()
	events := sessionEvents()
	// An abandoned session: batches arrive, Done never does.
	if err := st.Append(Batch{Course: "c", Session: "orphan", Start: "classroom", Seq: 1, Events: events[:6]}); err != nil {
		t.Fatal(err)
	}
	// A finished session leaves a tombstone.
	if err := st.Append(Batch{Course: "c", Session: "finished", Start: "classroom", Seq: 1, Events: events, Done: true}); err != nil {
		t.Fatal(err)
	}
	if got := st.LiveSessions(); got != 1 {
		t.Fatalf("live = %d", got)
	}
	// Nothing is idle yet.
	if n := st.ExpireIdle(time.Now().Add(-time.Hour)); n != 0 {
		t.Fatalf("expired %d fresh sessions", n)
	}
	// Everything is idle against a future cutoff: the orphan folds, the
	// tombstone is discarded.
	if n := st.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("expired = %d, want 1", n)
	}
	cs := st.Snapshot()["c"]
	// started = ended + expired + live.
	if cs.SessionsEnded != 1 || cs.SessionsExpired != 1 || cs.LiveSessions != 0 || cs.SessionsStarted != 2 {
		t.Fatalf("after expiry: %+v", cs)
	}
	// The orphan's partial activity is in the totals.
	wantOrphan := digestOf(events[:6], "classroom")
	wantFull := digestOf(events, "classroom")
	if cs.Events != wantOrphan.TotalEvents+wantFull.TotalEvents {
		t.Errorf("events = %d, want %d", cs.Events, wantOrphan.TotalEvents+wantFull.TotalEvents)
	}
	// Second sweep deletes the remaining tombstones; replays of the
	// finished session now recreate it (documented trade-off).
	st.ExpireIdle(time.Now().Add(time.Hour))
	if live, marks := storeEntries(st); live+marks != 0 {
		t.Errorf("%d sessions and %d fold marks survived two sweeps", live, marks)
	}
}

// storeEntries counts what the store holds per session: live logs and the
// marks folded sessions leave behind.
func storeEntries(st *Store) (live, marks int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions), len(st.folded)
}

// TestStoreFoldMarks: a folded session leaves a mark — its course and when
// it was last heard from — where it used to leave its whole log entry, and
// the mark must do everything the entry did: drop a replayed Done batch and
// any stale one without re-counting the session, still refuse a replay that
// names another course, age out on ExpireIdle's cutoff and not before, and
// never let started = ended + expired + live be observed broken.
func TestStoreFoldMarks(t *testing.T) {
	st := NewStore()
	events := sessionEvents()
	invariant := func(when string) CourseStats {
		t.Helper()
		cs := st.Snapshot()["c"]
		if cs.SessionsStarted != cs.SessionsEnded+cs.SessionsExpired+cs.LiveSessions {
			t.Fatalf("%s: started %d != ended %d + expired %d + live %d", when,
				cs.SessionsStarted, cs.SessionsEnded, cs.SessionsExpired, cs.LiveSessions)
		}
		return cs
	}
	first := Batch{Course: "c", Session: "s", Start: "classroom", Seq: 1, Events: events[:5]}
	done := Batch{Course: "c", Session: "s", Seq: 2, Events: events[5:], Done: true}
	for _, b := range []Batch{first, done} {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		invariant("while playing")
	}
	if live, marks := storeEntries(st); live != 0 || marks != 1 {
		t.Fatalf("a folded session leaves %d logs and %d marks, want 0 and 1", live, marks)
	}
	// Replays after the fold: the lost-ack Done, a stale first batch, and a
	// hand-posted batch without a seq — all absorbed.
	for _, b := range []Batch{done, first, {Course: "c", Session: "s", Events: events[:2]}} {
		if err := st.Append(b); err != nil {
			t.Fatalf("replayed batch seq %d: %v", b.Seq, err)
		}
	}
	cs := invariant("after replays")
	if want := digestOf(events, "classroom"); cs.SessionsStarted != 1 || cs.SessionsEnded != 1 || cs.Events != want.TotalEvents {
		t.Fatalf("replays were counted: %+v", cs)
	}
	// The mark still binds the session id to its course.
	if err := st.Append(Batch{Course: "other", Session: "s", Seq: 2, Done: true}); err == nil || !strings.Contains(err.Error(), `bound to course "c"`) {
		t.Fatalf("a replay naming another course: %v", err)
	}
	if _, ok := st.Snapshot()["other"]; ok {
		t.Fatal("the refused replay registered its course")
	}

	// An abandoned session beside it, then the sweeps.
	if err := st.Append(Batch{Course: "c", Session: "orphan", Start: "classroom", Seq: 1, Events: events[:3]}); err != nil {
		t.Fatal(err)
	}
	invariant("with an orphan")
	if n := st.ExpireIdle(time.Now().Add(-time.Minute)); n != 0 {
		t.Fatalf("a cutoff in the past expired %d sessions", n)
	}
	if live, marks := storeEntries(st); live != 1 || marks != 1 {
		t.Fatalf("a cutoff in the past left %d logs and %d marks, want 1 and 1", live, marks)
	}
	if n := st.ExpireIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("expired %d sessions, want the orphan", n)
	}
	cs = invariant("after the sweep")
	if cs.SessionsExpired != 1 || cs.LiveSessions != 0 {
		t.Fatalf("after the sweep: %+v", cs)
	}
	// The finished session's mark was past the cutoff and is gone; the
	// orphan's was made by this sweep and waits for the next.
	if live, marks := storeEntries(st); live != 0 || marks != 1 {
		t.Fatalf("the sweep left %d logs and %d marks, want 0 and the orphan's", live, marks)
	}
	if err := st.Append(Batch{Course: "c", Session: "orphan", Seq: 2, Done: true}); err != nil {
		t.Fatal(err)
	}
	if cs := invariant("after the orphan's late Done"); cs.SessionsStarted != 2 || cs.SessionsEnded != 1 {
		t.Fatalf("the expired orphan's late Done was counted: %+v", cs)
	}
}

func TestServiceJanitorReclaimsIdleSessions(t *testing.T) {
	// IdleTimeout 1s → janitor ticks every second.
	s := NewService(Options{IdleTimeout: time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := postBatch(ts.URL, Batch{Course: "c", Session: "abandoned", Seq: 1, Events: []runtime.Event{{Tick: 1, Kind: "click"}}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap := s.Snapshot()
		if stat(t, snap, "sessions_expired") == 1 && stat(t, snap, "live_sessions") == 0 {
			if cs := s.store.Snapshot()["c"]; cs.SessionsExpired != 1 || cs.SessionsEnded != 0 || cs.Events != 1 {
				t.Fatalf("expired session not folded: %+v", cs)
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("janitor never reclaimed the abandoned session")
}

func TestClientShedsBufferAfterStickyError(t *testing.T) {
	// Once delivery fails definitively, buffering is pointless (the server
	// would reject the sequence gap): everything recorded after the sticky
	// error is shed and counted.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.retry.Attempts = 2
	for i := 0; i < 100; i++ {
		c.Record(runtime.Event{Tick: i, Kind: "click"})
	}
	if c.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if got := c.Buffered(); got != 0 {
		t.Errorf("%d events still buffered after sticky failure", got)
	}
	if st := c.Stats(); st.Dropped != 100 || st.Events != 0 {
		t.Errorf("stats = %+v, want all 100 events dropped", st)
	}
}

func TestStoreGapOnUnknownSessionLeavesNoTrace(t *testing.T) {
	st := NewStore()
	// A first-contact batch claiming seq 2 is a gap: it must be rejected
	// without registering a phantom session or touching course aggregates.
	if err := st.Append(Batch{Course: "c", Session: "ghost", Seq: 2, Events: sessionEvents()[:2]}); err == nil {
		t.Fatal("first-contact gap accepted")
	}
	if got := st.LiveSessions(); got != 0 {
		t.Errorf("phantom session registered (live = %d)", got)
	}
	if _, ok := st.Snapshot()["c"]; ok {
		t.Errorf("course aggregate created by a rejected batch: %+v", st.Snapshot()["c"])
	}
	// Expiry has nothing to reclaim.
	if n := st.ExpireIdle(time.Now().Add(time.Hour)); n != 0 {
		t.Errorf("expired %d sessions after only rejected batches", n)
	}
}

func TestClientCountsDropOnServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, _ := NewClient(ClientOptions{BaseURL: ts.URL, Course: "c", Session: "s", FlushEvery: 3})
	for i := 0; i < 3; i++ {
		c.Record(runtime.Event{Tick: i, Kind: "click"})
	}
	if c.Err() == nil {
		t.Fatal("500 not sticky")
	}
	// Events + Dropped = recorded, even for the first failing batch.
	if st := c.Stats(); st.Events != 0 || st.Dropped != 3 {
		t.Errorf("stats = %+v, want 3 dropped", st)
	}
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

// TestStatsSurfacesAgree holds /telemetry/stats to the registry it
// projects: every integer scalar it serves is a telemetry_* family on
// /metrics under the same name and value, and the other way round; beside
// them sit only the per-course aggregates and their tick bounds. No key is
// listed here, so a family added to Register is covered and a scalar
// served from anywhere else fails.
func TestStatsSurfacesAgree(t *testing.T) {
	s := NewService(Options{IdleTimeout: -1})
	defer s.Close()
	reg := obs.NewRegistry("vgbl")
	s.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/telemetry/", s.Handler())
	mux.Handle("/metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	post := func(body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+IngestPath, BatchContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	click := func(ticks ...int) (out []runtime.Event) {
		for _, tick := range ticks {
			out = append(out, runtime.Event{Tick: tick, Kind: "click"})
		}
		return out
	}
	post(EncodeBatch(&Batch{Course: "c", Session: "ended", Seq: 1, Events: click(1, 2), Done: true}))
	post(EncodeBatch(&Batch{Course: "c", Session: "open", Seq: 1, Events: click(1)}))
	post(EncodeBatch(&Batch{Course: "c", Session: "open", Seq: 3, Events: click(2)})) // gap: an apply error
	post([]byte("VTLM\x01"))                                                          // a bad request
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v", path, resp.Status, err)
		}
		return body
	}

	// The oracle, worked out from the /metrics JSON without obs.Flat.
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(get("/metrics?format=json"), &snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, m := range snap.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "vgbl_telemetry_")
		if !ok {
			continue
		}
		for _, ss := range m.Series {
			if ss.Value == nil || len(ss.Labels) != 0 {
				t.Fatalf("%s is not an unlabeled scalar: %+v", m.Name, ss)
			}
			want[strings.TrimSuffix(rest, "_total")] += *ss.Value
		}
	}

	body := get(StatsPath)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for k, v := range raw {
		if k == "courses" || k == "tick_buckets" {
			continue
		}
		var n int64
		if err := json.Unmarshal(v, &n); err != nil {
			t.Fatalf("%s key %q is neither an integer scalar nor courses/tick_buckets: %s", StatsPath, k, v)
		}
		got[k] = n
	}
	if !reflect.DeepEqual(got, want) || len(raw) != len(got)+2 {
		t.Fatalf("%s and /metrics disagree:\n stats   %v\n metrics %v", StatsPath, got, want)
	}
	if !reflect.DeepEqual(got, s.Snapshot()) {
		t.Fatalf("Service.Snapshot %v differs from %s %v", s.Snapshot(), StatsPath, got)
	}
	for key, n := range map[string]int64{
		"batches_applied": 2, "apply_errors": 1, "bad_requests": 1,
		"live_sessions": 1,
	} {
		if stat(t, got, key) != n {
			t.Errorf("%s = %d, want %d (%v)", key, got[key], n, got)
		}
	}

	// The shape benchmark/server.go decodes.
	var bench struct {
		Pending int `json:"pending"`
		Courses map[string]struct {
			Events int `json:"events"`
		} `json:"courses"`
	}
	if err := json.Unmarshal(body, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Pending != 0 || bench.Courses["c"].Events != 2 {
		t.Fatalf("benchmark shape read %+v from %s", bench, body)
	}
}
