package playsvc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// countingTransport counts requests per URL path.
type countingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.mu.Lock()
	if ct.paths == nil {
		ct.paths = map[string]int{}
	}
	ct.paths[r.URL.Path]++
	ct.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (ct *countingTransport) count(path string) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.paths[path]
}

// jsonRequests counts a transport's requests on the JSON play route.
func (ct *countingTransport) jsonRequests() int {
	return ct.count(ActPath)
}

// TestThinOneRequestPerAct pins what the single act path promises a thin
// client: Dial is one framed create on /play/actv2, N act calls are exactly
// N more framed requests there (reads in between cost nothing), and Close
// is one framed leave — N + 2 frames, and not one request on a JSON route.
func TestThinOneRequestPerAct(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	ct := &countingTransport{}
	c := dialOpts(t, ts.URL, nil, func(o *ClientOptions) { o.HTTP = &http.Client{Transport: ct} })
	if got := ct.count(ActV2Path); got != 1 {
		t.Fatalf("Dial sent %d frames, want the one create", got)
	}

	acts := 0
	act := func(do func()) {
		do()
		acts++
		// A guided learner reads the view after every act.
		c.State()
		c.Messages()
		c.PendingQuiz()
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	}
	act(func() { c.Click(5, 5) })
	act(func() { c.Talk("teacher") })
	act(func() { c.Examine("computer") })
	act(func() { c.Take("teacher") })
	act(func() { c.UseItemOn("nothing", "computer") })
	act(func() { c.ClearSelection() })
	act(func() {
		if _, err := c.AnswerQuiz("q-diagnosis", 1); err != nil {
			t.Fatal(err)
		}
	})
	act(func() {
		// A refused act is still one request, and leaves the client usable.
		if err := c.SelectItem("no-such-item"); err == nil {
			t.Fatal("selecting an unheld item succeeded")
		}
	})
	act(func() {
		if err := c.Advance(3); err != nil {
			t.Fatal(err)
		}
	})

	if got := ct.count(ActV2Path); got != acts+1 {
		t.Fatalf("%d acts cost %d %s requests after the create, want one each", acts, got-1, ActV2Path)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ct.count(ActV2Path); got != acts+2 {
		t.Fatalf("a session of %d acts cost %d %s requests, want %d", acts, got, ActV2Path, acts+2)
	}
	if got := ct.jsonRequests(); got != 0 {
		t.Fatalf("a thin session sent %d requests on the JSON routes, want 0", got)
	}
}

// TestMirrorSessionExchanges pins what the framed create and leave buy a
// thick client: Dial makes no request, and a session of n acts costs
// exactly ceil((n+1)/mirrorBatch) frames — the create rides in front of the
// first, the leave at the end of the last — and nothing on a JSON route,
// with every entry and act event delivered once.
func TestMirrorSessionExchanges(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 15, 16, 31, 32} {
		ct := &countingTransport{}
		var rec recorder
		c := dialOpts(t, ts.URL, &rec, func(o *ClientOptions) {
			o.HTTP = &http.Client{Transport: ct}
			o.LocalMirror, o.Pkg = true, pkg
		})
		if got := ct.count(ActV2Path) + ct.jsonRequests(); got != 0 {
			t.Fatalf("n=%d: a mirror Dial sent %d requests, want 0", n, got)
		}
		var local recorder
		ref, err := runtime.NewSessionFromPackage(pkg, runtime.Options{Observer: &local})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				c.Talk("teacher")
				ref.Talk("teacher")
				continue
			}
			if err := c.Advance(1); err != nil {
				t.Fatal(err)
			}
			ref.Advance(1)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := ct.count(ActV2Path), (n+1+mirrorBatch-1)/mirrorBatch; got != want {
			t.Fatalf("a mirror session of %d acts cost %d frames, want %d", n, got, want)
		}
		if got := ct.jsonRequests(); got != 0 {
			t.Fatalf("n=%d: a mirror session sent %d requests on the JSON routes, want 0", n, got)
		}
		if got, want := rec.log(), local.log(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: observer got %v, want the replica's %v", n, got, want)
		}
	}
	st := m.Snapshot()
	if st["sessions_created"] != 5 || st["sessions_closed"] != 5 || m.Live() != 0 {
		t.Fatalf("created %d, closed %d, live %d after 5 sessions", st["sessions_created"], st["sessions_closed"], m.Live())
	}
}

// TestResumedClientSendsNoJSON: a resume is a frame too. A client that
// resumes a session at Dial, acts, syncs and leaves sends four frames on
// /play/actv2 — the resume, the act, the sync's resume, the leave — and
// not one request on the JSON route, and the resume alone rebuilds its
// view: the course's geometry, the transcript, the event log.
func TestResumedClientSendsNoJSON(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	first := dialOpts(t, ts.URL, nil, nil)
	first.Talk("teacher")
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	var rec recorder
	c := dialOpts(t, ts.URL, &rec, func(o *ClientOptions) {
		o.Course, o.Resume = "", first.SessionID()
		o.HTTP = &http.Client{Transport: ct}
	})
	if w, _, _ := c.VideoMeta(); w == 0 || len(rec.log()) == 0 || !reflect.DeepEqual(c.Messages(), first.Messages()) {
		t.Fatalf("the resume rebuilt width %d, %d events, transcript %q; want the course, the log and %q",
			w, len(rec.log()), c.Messages(), first.Messages())
	}
	c.Examine("computer")
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ct.count(ActV2Path); got != 4 {
		t.Fatalf("resume, act, sync and leave cost %d frames, want 4", got)
	}
	if got := ct.jsonRequests(); got != 0 {
		t.Fatalf("a resumed and synced client sent %d requests on the JSON route, want 0", got)
	}
}

// stubPlayServer answers a framed create like a play service and hands
// every other request — its body unread — to the given handler.
func stubPlayServer(t *testing.T, rest http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ActV2Path {
			body, _ := io.ReadAll(r.Body)
			if req, err := ParseActFrame(body); err == nil && req.Create != "" && len(req.Acts) == 0 {
				w.Write(EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: req.Session, Course: req.Create,
					Width: 160, Height: 120, FPS: 10, State: core.NewState(content.Classroom().Project)}}))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rest(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// isLeaveFrame reports whether a request is a framed batch ending in a
// leave, leaving its body readable.
func isLeaveFrame(r *http.Request) bool {
	if r.URL.Path != ActV2Path {
		return false
	}
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	req, err := ParseActFrame(body)
	return err == nil && req.leaves()
}

// TestFrameGeometryRejected: geometry off the wire sizes a client's pixel
// buffer — the X-Frame headers on the session frame route — so a garbled
// or hostile response must be refused before anything is allocated:
// out-of-range sides, and a byte count that contradicts the claimed
// geometry. (A watcher renders its replica's frame; no geometry reaches it
// off the wire.)
func TestFrameGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name, w, h string
		body       int
		want       string
	}{
		{"huge-width", "1000000", "120", 16, "geometry"},
		{"huge-height", "160", "1000000", 16, "geometry"},
		{"overflowing", "9223372036854775807", "3", 16, "geometry"},
		{"zero", "0", "120", 16, "geometry"},
		{"length-mismatch", "160", "120", 16, "carries 16 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := stubPlayServer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Frame-Width", tc.w)
				w.Header().Set("X-Frame-Height", tc.h)
				w.Write(make([]byte, tc.body))
			})
			c := dialOpts(t, ts.URL, nil, nil)
			if _, err := c.Frame(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Frame() = %v, want a %q refusal", err, tc.want)
			}
			if cap(c.frame.Pix) != 0 {
				t.Fatalf("refused frame still allocated a %d-byte buffer", cap(c.frame.Pix))
			}
		})
	}
}

// TestCloseFailedClientBounded: closing an already-failed client still
// sends the best-effort leave, but through the same deadline and trace
// header as every other request — a hung node cannot block Close, even on
// a caller-supplied http.Client without timeouts.
func TestCloseFailedClientBounded(t *testing.T) {
	release := make(chan struct{})
	leaveTrace := make(chan string, 1)
	ts := stubPlayServer(t, func(w http.ResponseWriter, r *http.Request) {
		if isLeaveFrame(r) {
			leaveTrace <- r.Header.Get(obs.TraceHeader)
			<-release // a hung node: never answers the leave
			return
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	})
	defer close(release)

	c := dialOpts(t, ts.URL, nil, func(o *ClientOptions) {
		o.HTTP = &http.Client{} // no timeouts of its own
		o.Trace = obs.NewTrace()
	})
	c.timeout = 100 * time.Millisecond // clientTimeout, shrunk in place
	c.Talk("teacher")
	sticky := c.Err()
	if sticky == nil {
		t.Fatal("a 500 on the act route did not stick")
	}
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != sticky {
			t.Fatalf("Close() = %v, want the sticky error %v", err, sticky)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a hung node")
	}
	if got := <-leaveTrace; got == "" {
		t.Fatal("the best-effort leave carried no trace header")
	}
}
