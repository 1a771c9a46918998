// RoomClient: the watcher-side counterpart of Room. A watcher is a replica:
// it holds the opened course package, builds its own session from it, and
// follows a shared session by long-polling for its driver's acts — each
// watch names the seq its replica holds — and replaying them through the
// function the node applies them with. Its frame, events, messages and
// pending quiz are its replica's. It also answers cohort quizzes; every
// request names the room in its query. The server keeps nothing per
// watcher, so there is no join or leave on the wire. The driver seat is
// NOT here — a room is the session its driver's create opens, so the
// instructor opens and drives the room through an ordinary Client (Dial
// with Room set; the room id is its SessionID), and a second driver seat
// is a Client resumed onto the room id.
package playsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/runtime"
)

// RoomClientOptions configures a watcher.
type RoomClientOptions struct {
	BaseURL string // server base, e.g. "http://127.0.0.1:8807"
	Room    string // room id to watch
	// Pkg is the opened course package the room's driver runs (required):
	// the watcher's replica is built from it.
	Pkg *gamepack.Package
	// HTTP defaults to faultnet.DefaultHTTPClient().
	HTTP *http.Client
}

// RoomClient is one watcher. Like Client, it is driven by a single
// goroutine: polls reuse its frame and reply buffers.
type RoomClient struct {
	opts    RoomClientOptions
	retry   faultnet.RetryPolicy // Client's default policy
	watcher string

	// replica is the watcher's session, rebuilt by each reply that carries
	// a create; seq is how many of the driver's acts it has applied, and
	// tag the state tag the last reply named, which the replica matched.
	replica   *runtime.Session
	events    eventLog
	seq       int64
	tag       uint64
	enc       runtime.StateEncoder
	delivered int64

	frame raster.Frame // reusable render buffer
	body  []byte       // reusable reply buffer
	err   error        // sticky failure
}

// eventLog records a replica's events: the watcher's transcript.
type eventLog struct{ events []runtime.Event }

func (l *eventLog) Record(e runtime.Event) { l.events = append(l.events, e) }

// JoinRoom returns a watcher client for a room. It sends nothing: the
// watcher mints its own id, which names only its quiz votes, and its
// first Poll returns the room's create and every act its driver has
// applied (at once when there is one), from which the replica is built. A
// room that does not exist is that Poll's 404.
func JoinRoom(o RoomClientOptions) (*RoomClient, error) {
	if o.BaseURL == "" || o.Room == "" || o.Pkg == nil {
		return nil, fmt.Errorf("playsvc: room client needs BaseURL, Room and the course Pkg")
	}
	return &RoomClient{opts: o, watcher: newSessionID("w"), retry: faultnet.RetryPolicy{Budget: clientRetryBudget}}, nil
}

// Seq returns how many of the driver's acts the replica has applied.
func (c *RoomClient) Seq() int64 { return c.seq }

// StateTag returns the state tag of the replica's state (0 before the
// first reply): the driver's at Seq.
func (c *RoomClient) StateTag() uint64 { return c.tag }

// Delivered returns how many watch replies this client has applied.
func (c *RoomClient) Delivered() int64 { return c.delivered }

// PendingQuiz returns the replica's pending quiz id ("" = none, and ""
// before the first Poll).
func (c *RoomClient) PendingQuiz() string {
	if c.replica == nil {
		return ""
	}
	if q, ok := c.replica.PendingQuiz(); ok {
		return q.ID
	}
	return ""
}

// Events returns the replica's event transcript since the room's create.
func (c *RoomClient) Events() []runtime.Event {
	return append([]runtime.Event(nil), c.events.events...)
}

// Messages returns the replica's classroom transcript.
func (c *RoomClient) Messages() []string {
	if c.replica == nil {
		return nil
	}
	return c.replica.Messages()
}

func (c *RoomClient) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// do sends one of this watcher's requests under the same policy and
// per-attempt deadline as Client, the deadline stretched by hold (a
// poll's server-side wait). Every room request is safe to repeat: a watch
// reads the room's log past the seq it names, so a watch retried after a
// lost reply returns the same acts at once, and answers are last-wins per
// (watcher, quiz). A 404 is terminal — the driver left, the class is
// dismissed — so it returns without a backoff sleep.
func (c *RoomClient) do(method, url string, payload []byte, hold time.Duration, what string, decode decoder) error {
	return call(c.opts.HTTP, &c.retry, &faultnet.Request{
		Method: method, URL: url, ContentType: "application/json", Body: payload,
		Timeout: clientTimeout + hold,
	}, what, false, decode)
}

// mustJSON marshals a value that cannot fail (plain request structs).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// watchURL builds the watch query for the replica's seq.
func (c *RoomClient) watchURL(wait time.Duration) string {
	q := url.Values{}
	q.Set("room", c.opts.Room)
	q.Set("seq", strconv.FormatInt(c.seq, 10))
	q.Set("wait_ms", strconv.Itoa(int(wait/time.Millisecond)))
	return c.opts.BaseURL + RoomWatchPath + "?" + q.Encode()
}

// Poll long-polls for the driver's next acts, replays them on the replica
// and renders its frame into the client's reusable buffer. A (nil, nil)
// return means the hold expired with nothing new — poll again. A reply the
// replica cannot follow — one that does not start at its seq, an act it
// refuses, or a state tag it does not reach — fails the watcher for good,
// as a mirror client fails on a divergence: every frame after it would be
// suspect.
func (c *RoomClient) Poll(wait time.Duration) (*raster.Frame, error) {
	if c.err != nil {
		return nil, c.err
	}
	var req *BatchRequest
	// The attempt deadline must outlast the requested server-side hold. A
	// reply cut mid-body re-polls from the same seq: the same acts come
	// again.
	err := c.do(http.MethodGet, c.watchURL(wait), nil, wait, "room watch", func(resp *http.Response) (error, bool) {
		if resp.StatusCode == http.StatusNoContent {
			return nil, false
		}
		var err error
		if c.body, err = readInto(c.body[:0], io.LimitReader(resp.Body, maxProxyBody)); err != nil {
			return fmt.Errorf("playsvc: room watch: read: %w", err), true
		}
		if req, err = ParseActFrame(c.body); err != nil {
			return fmt.Errorf("playsvc: room watch: %w", err), true
		}
		return nil, false
	})
	if err != nil {
		return nil, c.fail(err)
	}
	if req == nil {
		return nil, nil
	}
	if err := c.replay(req); err != nil {
		return nil, c.fail(err)
	}
	if err := c.replica.FrameInto(&c.frame); err != nil {
		return nil, c.fail(err)
	}
	c.delivered++
	return &c.frame, nil
}

// replay applies one watch reply to the replica: a create rebuilds it
// from the package, then each act applies as it did on the driver's
// session, and the state they leave must carry the reply's tag.
func (c *RoomClient) replay(req *BatchRequest) error {
	switch {
	case req.Session != c.opts.Room:
		return fmt.Errorf("playsvc: room %q: watch reply names session %q", c.opts.Room, req.Session)
	case req.Create != "":
		if req.BaseSeq != 1 {
			return fmt.Errorf("playsvc: room %q: a create at base seq %d", c.opts.Room, req.BaseSeq)
		}
		c.events.events = c.events.events[:0]
		replica, err := runtime.NewSessionFromPackage(c.opts.Pkg, runtime.Options{Observer: &c.events})
		if err != nil {
			return fmt.Errorf("playsvc: room %q replica: %w", c.opts.Room, err)
		}
		c.replica = replica
	case c.replica == nil || req.BaseSeq != c.seq+1:
		return fmt.Errorf("playsvc: room %q: a reply from seq %d reached a replica at seq %d", c.opts.Room, req.BaseSeq-1, c.seq)
	}
	for i := range req.Acts {
		if _, aerr := applyAct(c.replica, &req.Acts[i]); aerr != nil {
			return fmt.Errorf("playsvc: room %q: the replica refused act %d: %v", c.opts.Room, req.BaseSeq+int64(i), aerr)
		}
	}
	c.seq = req.BaseSeq - 1 + int64(len(req.Acts))
	if c.tag = stateTag(c.enc.Encode(c.replica.State())); c.tag != req.StateTag {
		return fmt.Errorf("playsvc: room %q replica diverged at seq %d: state %016x, the driver's %016x", c.opts.Room, c.seq, c.tag, req.StateTag)
	}
	return nil
}

// Answer records this watcher's answer to a quiz and returns the cohort
// tally so far.
func (c *RoomClient) Answer(quizID string, choice int) (*RoomAnswerReply, error) {
	if c.err != nil {
		return nil, c.err
	}
	var reply RoomAnswerReply
	err := c.do(http.MethodPost, c.opts.BaseURL+RoomAnswerPath+"?room="+url.QueryEscape(c.opts.Room),
		mustJSON(&RoomAnswerRequest{Watcher: c.watcher, Quiz: quizID, Choice: choice}), 0, "room "+RoomAnswerPath,
		func(resp *http.Response) (error, bool) {
			// A body cut mid-reply re-fetches cleanly: the answer is last-wins.
			return json.NewDecoder(resp.Body).Decode(&reply), true
		})
	if err != nil {
		if pe, ok := err.(*Error); ok && pe.Status == http.StatusBadRequest {
			return nil, err // caller mistake; the watcher stays usable
		}
		return nil, c.fail(err)
	}
	return &reply, nil
}

// Close ends the watcher and reports its sticky failure, if any. It sends
// nothing: the room keeps no state for a watcher to release, and the
// driver owns the session.
func (c *RoomClient) Close() error { return c.err }
