package playsvc

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/obs"
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

// TestThinOneRequestPerAct pins what the single act path promises a thin
// client: N act calls are exactly N framed requests on /play/actv2 (reads
// in between cost nothing), nothing touches /play/act until Close, and
// Close sends exactly one leave there.
func TestThinOneRequestPerAct(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	ct := &countingTransport{}
	c := dialOpts(t, ts.URL, nil, func(o *ClientOptions) { o.HTTP = &http.Client{Transport: ct} })

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

	if got := ct.count(ActV2Path); got != acts {
		t.Fatalf("%d acts cost %d %s requests, want one each", acts, got, ActV2Path)
	}
	if got := ct.count(ActPath); got != 0 {
		t.Fatalf("%d requests on %s before Close, want 0", got, ActPath)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ct.count(ActPath); got != 1 {
		t.Fatalf("Close sent %d requests on %s, want exactly the leave", got, ActPath)
	}
	if got := ct.count(ActV2Path); got != acts {
		t.Fatalf("Close moved the %s count to %d", ActV2Path, got)
	}
}

// stubPlayServer answers the create like a play service and hands every
// other route to the given handler.
func stubPlayServer(t *testing.T, rest http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(CreatePath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, &Reply{Session: "stub", Course: "classroom", Width: 160, Height: 120, FPS: 10,
			State: core.NewState(content.Classroom().Project)})
	})
	mux.HandleFunc("/", rest)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestFrameGeometryRejected: geometry off the wire sizes a client's pixel
// buffer — the X-Frame headers on the session frame route, the geometry
// record of a watch chunk on the room route — so a garbled or hostile
// response must be refused before anything is allocated: out-of-range
// sides, and a byte count that contradicts the claimed geometry.
func TestFrameGeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name, w, h string
		body       int
		watch      bool // deliver as a watch chunk to RoomClient.Poll
		want       string
	}{
		{"huge-width", "1000000", "120", 16, false, "geometry"},
		{"huge-height", "160", "1000000", 16, false, "geometry"},
		{"overflowing", "9223372036854775807", "3", 16, false, "geometry"},
		{"zero", "0", "120", 16, false, "geometry"},
		{"length-mismatch", "160", "120", 16, false, "carries 16 bytes"},
		{"watch-huge-width", "1000000", "120", 16, true, "geometry"},
		{"watch-huge-height", "160", "1000000", 16, true, "geometry"},
		{"watch-overflowing", "9223372036854775807", "3", 16, true, "malformed width"},
		{"watch-zero", "0", "120", 0, true, "geometry"},
		{"watch-length-mismatch", "1000", "1000", 3, true, "claims 3 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.watch {
				pw, _ := strconv.ParseUint(tc.w, 10, 64)
				ph, _ := strconv.ParseUint(tc.h, 10, 64)
				ts := stubPlayServer(t, func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == RoomJoinPath {
						writeJSON(w, &RoomJoinReply{Room: "r", Watcher: "w"})
						return
					}
					p := &pub{seq: 1, w: int(pw), h: int(ph), pix: make([]byte, tc.body)}
					w.Write(appendWatchChunk(nil, p, 0, watchTails{}, 0, 0))
					w.Write(p.pix)
				})
				wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: "r"})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := wc.Poll(time.Second); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Poll() = %v, want a %q ErrBadFrame refusal", err, tc.want)
				}
				if cap(wc.frame.Pix) != 0 {
					t.Fatalf("refused chunk still allocated a %d-byte buffer", cap(wc.frame.Pix))
				}
				return
			}
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
		if r.URL.Path == ActPath {
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
