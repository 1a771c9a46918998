// RoomClient: the watcher-side counterpart of Room. A watcher joins a
// shared session, follows the fan-out by long-polling and answers cohort
// quizzes; every request names the room in its query. The driver seat is
// NOT here — a room is the session its driver's create opens, so the
// instructor opens and drives the room through an ordinary Client (Dial
// with Room set; the room id is its SessionID), and a second driver seat
// is a Client resumed onto the room id.
package playsvc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/faultnet"
	"repro/internal/media/raster"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// RoomClientOptions configures a watcher.
type RoomClientOptions struct {
	BaseURL string // server base, e.g. "http://127.0.0.1:8807"
	Room    string // room id to join
	// Watcher optionally fixes the watcher id; left empty, JoinRoom mints
	// one. Either way the join names its watcher, so a join retried after
	// a lost reply reattaches instead of double-subscribing.
	Watcher string
	// Trace, when valid, stamps every request (see ClientOptions.Trace).
	Trace obs.TraceContext
	// HTTP defaults to faultnet.DefaultHTTPClient().
	HTTP *http.Client
}

// RoomClient is one watcher subscription. Like Client, it is driven by a
// single goroutine: polls reuse its frame and header buffers.
type RoomClient struct {
	opts    RoomClientOptions
	retry   faultnet.RetryPolicy // Client's default policy
	room    string
	watcher string

	seenEvents   int
	seenMessages int
	seq          int64 // last publication sequence received
	quiz         string
	skipped      int64 // cumulative server-reported skip count
	delivered    int64

	events   []runtime.Event
	messages []string

	frame  raster.Frame // reusable pixel buffer
	header []byte       // reusable chunk-header buffer
	err    error        // sticky transport failure
}

// JoinRoom subscribes to a room and returns the watcher client, primed
// with the join snapshot (state, transcript tails, pending quiz).
func JoinRoom(o RoomClientOptions) (*RoomClient, error) {
	if o.BaseURL == "" || o.Room == "" {
		return nil, fmt.Errorf("playsvc: room client needs BaseURL and Room")
	}
	if o.Watcher == "" {
		o.Watcher = newSessionID("w")
	}
	c := &RoomClient{opts: o, room: o.Room, watcher: o.Watcher, retry: faultnet.RetryPolicy{Budget: clientRetryBudget}}
	var reply RoomJoinReply
	if err := c.postJSON(RoomJoinPath, &RoomJoinRequest{Watcher: o.Watcher, Trace: o.Trace}, &reply); err != nil {
		return nil, err
	}
	c.seq = reply.Seq
	c.seenEvents = reply.EventCount
	c.seenMessages = reply.MessageCount
	c.quiz = reply.Quiz
	c.events = append(c.events, reply.Events...)
	c.messages = append(c.messages, reply.Messages...)
	return c, nil
}

// WatcherID returns the subscription id (RoomClientOptions.Watcher, or the
// one JoinRoom minted).
func (c *RoomClient) WatcherID() string { return c.watcher }

// Seq returns the last received publication sequence number.
func (c *RoomClient) Seq() int64 { return c.seq }

// Skipped returns the server's cumulative skip count for this watcher —
// frames the fan-out dropped because this subscriber fell behind.
func (c *RoomClient) Skipped() int64 { return c.skipped }

// Delivered returns how many frames this client has received.
func (c *RoomClient) Delivered() int64 { return c.delivered }

// PendingQuiz returns the pending quiz id at the last update ("" = none).
func (c *RoomClient) PendingQuiz() string { return c.quiz }

// Events returns the accumulated session event transcript (join tail plus
// every update's delta, in absolute order — frames skip, events do not).
func (c *RoomClient) Events() []runtime.Event { return append([]runtime.Event(nil), c.events...) }

// Messages returns the accumulated classroom transcript.
func (c *RoomClient) Messages() []string { return append([]string(nil), c.messages...) }

func (c *RoomClient) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// do sends one of this watcher's requests under the same policy and
// per-attempt deadline as Client, the deadline stretched by hold (a
// poll's server-side wait). Every room request is safe to repeat: join is
// idempotent per watcher id, answers are last-wins per (watcher, quiz),
// event and message tails are cut at the presented seen-counts, frames are
// at-most-once by design. A 404 is terminal — the driver left, the class
// is dismissed — so it returns without a backoff sleep.
func (c *RoomClient) do(method, url string, payload []byte, hold time.Duration, what string, decode decoder) error {
	return call(c.opts.HTTP, &c.retry, &faultnet.Request{
		Method: method, URL: url, ContentType: "application/json", Body: payload,
		Trace: c.opts.Trace, Timeout: clientTimeout + hold,
	}, what, false, decode)
}

// decodeJSON decodes a reply body into out (nil discards it). A body cut
// mid-reply re-fetches cleanly.
func decodeJSON(out any) decoder {
	return func(resp *http.Response) (error, bool) {
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil, false
		}
		return json.NewDecoder(resp.Body).Decode(out), true
	}
}

// mustJSON marshals a value that cannot fail (plain request structs).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// roomURL is a room route's URL, naming the room in the query.
func (c *RoomClient) roomURL(path string) string {
	return c.opts.BaseURL + path + "?room=" + url.QueryEscape(c.room)
}

// postJSON sends one JSON request and decodes the reply into out.
func (c *RoomClient) postJSON(path string, body, out any) error {
	return c.do(http.MethodPost, c.roomURL(path), mustJSON(body), 0, "room "+path, decodeJSON(out))
}

// watchURL builds the watch query for the current seen-counts.
func (c *RoomClient) watchURL(wait time.Duration) string {
	q := url.Values{}
	q.Set("room", c.room)
	q.Set("watcher", c.watcher)
	q.Set("events", strconv.Itoa(c.seenEvents))
	q.Set("messages", strconv.Itoa(c.seenMessages))
	q.Set("wait_ms", strconv.Itoa(int(wait/time.Millisecond)))
	return c.opts.BaseURL + RoomWatchPath + "?" + q.Encode()
}

// fold applies one parsed update to the client mirror. Event and message
// tails never overlap across updates (the server trims to the presented
// seen-counts), so plain appends rebuild the transcripts in order.
func (c *RoomClient) fold(u *WatchUpdate) {
	c.seq = u.Seq
	c.skipped = u.Skipped
	c.quiz = u.Quiz
	c.seenEvents = u.EventCount
	c.seenMessages = u.MessageCount
	c.events = append(c.events, u.Events...)
	c.messages = append(c.messages, u.Messages...)
	c.delivered++
}

// Poll long-polls for the next publication: the update (frame metadata,
// event/message tails, pending quiz) plus the frame pixels in the client's
// reusable buffer. A (nil, nil, nil) return means the hold expired with
// nothing new — poll again. The poll acknowledges everything the previous
// one returned.
func (c *RoomClient) Poll(wait time.Duration) (*WatchUpdate, *raster.Frame, error) {
	if c.err != nil {
		return nil, nil, c.err
	}
	var u *WatchUpdate
	// The attempt deadline must outlast the requested server-side hold. A
	// chunk cut mid-body re-polls from the same seen-counts: its events
	// and messages come again, only the frame is skipped.
	err := c.do(http.MethodGet, c.watchURL(wait), nil, wait, "room watch", func(resp *http.Response) (err error, retry bool) {
		if resp.StatusCode == http.StatusNoContent {
			return nil, false
		}
		u, err = c.readChunk(resp.Body)
		return err, true
	})
	if err != nil {
		return nil, nil, c.fail(err)
	}
	if u == nil {
		return nil, nil, nil
	}
	c.fold(u)
	return u, &c.frame, nil
}

// readChunk reads one watch chunk (length-prefixed header + pixels) into
// the client's reusable buffers.
func (c *RoomClient) readChunk(r io.Reader) (*WatchUpdate, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, fmt.Errorf("playsvc: short watch chunk: %w", err)
	}
	n := int(binary.BigEndian.Uint32(lenb[:]))
	if n <= 0 || n > maxBody {
		return nil, frameBadf("watch header claims %d bytes", n)
	}
	if cap(c.header) < n {
		c.header = make([]byte, n)
	}
	c.header = c.header[:n]
	if _, err := io.ReadFull(r, c.header); err != nil {
		return nil, fmt.Errorf("playsvc: short watch header: %w", err)
	}
	u, err := ParseWatchChunk(c.header)
	if err != nil {
		return nil, err
	}
	if cap(c.frame.Pix) < u.PixLen {
		c.frame.Pix = make([]uint8, u.PixLen)
	}
	c.frame.Pix = c.frame.Pix[:u.PixLen]
	c.frame.W, c.frame.H = u.W, u.H
	if _, err := io.ReadFull(r, c.frame.Pix); err != nil {
		return nil, fmt.Errorf("playsvc: short watch frame: %w", err)
	}
	return u, nil
}

// Answer records this watcher's answer to a quiz and returns the cohort
// tally so far.
func (c *RoomClient) Answer(quizID string, choice int) (*RoomAnswerReply, error) {
	if c.err != nil {
		return nil, c.err
	}
	var reply RoomAnswerReply
	err := c.postJSON(RoomAnswerPath, &RoomAnswerRequest{
		Watcher: c.watcher, Quiz: quizID, Choice: choice, Trace: c.opts.Trace,
	}, &reply)
	if err != nil {
		if pe, ok := err.(*Error); ok && pe.Status == http.StatusBadRequest {
			return nil, err // caller mistake; subscription stays usable
		}
		return nil, c.fail(err)
	}
	return &reply, nil
}

// RoomStats fetches the room's counters and cohort tallies.
func (c *RoomClient) RoomStats() (RoomStats, error) {
	var st RoomStats
	err := c.do(http.MethodGet, c.roomURL(RoomStatsPath), nil, 0, "room stats", decodeJSON(&st))
	return st, err
}

// Close unsubscribes the watcher. The room (and its driven session) is
// untouched — watchers come and go; the driver owns the session.
func (c *RoomClient) Close() error {
	err := c.postJSON(RoomLeavePath, &RoomJoinRequest{Watcher: c.watcher}, nil)
	if c.err != nil {
		return c.err
	}
	return err
}
