package playsvc

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// ClientOptions configures a play-service client.
type ClientOptions struct {
	BaseURL string // server base, e.g. "http://127.0.0.1:8807"
	Course  string // published course name to create a session on
	// Resume reattaches to an existing (possibly frozen) session instead
	// of creating a new one: Dial sends a resume frame and rebuilds the
	// client's view from the returned state and full transcript. Course
	// may be left empty; the reply names it.
	Resume string
	// Room opens the session as a classroom room: its create carries a
	// room record, and Dial sends it at once in either mode, so watchers
	// can watch (JoinRoom with Room set to SessionID) as soon as Dial
	// returns. The client is the room's driver; its Close ends the class.
	// Exclusive with Resume.
	Room bool
	// Project is the course document (from the downloaded package); the
	// client resolves scenarios, objects and quizzes against it locally so
	// policies can plan without a round trip.
	Project *core.Project
	// Observer, when set, receives every remote event in arrival order —
	// the hook the fleet plugs its analytics collector and telemetry
	// client into, exactly as for a local session.
	Observer runtime.Observer
	// Trace, when valid, is injected into every request's X-Vgbl-Trace
	// header (a fresh child span per request), so the spans the gateway
	// and nodes record all link back to this client's trace id. The zero
	// value disables tracing; servers mint their own roots.
	Trace obs.TraceContext
	// HTTP is the client requests ride; nil means the shared
	// faultnet.DefaultHTTPClient() — real connect/header timeouts.
	HTTP *http.Client
	// LocalMirror is the one mode switch. A thin client (the default)
	// ships every act at once as a framed batch of one on /play/actv2 and
	// waits for the hosted session's answer. A LocalMirror client is a
	// thick client: it runs a full deterministic replica of the hosted
	// session over Pkg, answers every read AND every act result from the
	// replica, and ships acts to the server in framed batches of
	// mirrorBatch (flushed early on Sync and Close). The golden-replay
	// guarantee — same acts, same session, bit for bit — is what makes the
	// replica's answers exact; every batch reply is reconciled against the
	// replica (event count and tick), and any divergence is a sticky
	// error. Frames render locally from the replica, so Watch costs no
	// round trip. The server session stays authoritative for delivery:
	// observers receive the server's events, exactly once, as replies
	// arrive. Both modes create, resume and leave inside act frames: a thin
	// client sends its create at Dial and its leave at Close, each a frame
	// of its own; a mirror's create rides in front of its first batch and
	// its leave at the end of its last, so a session of n acts costs
	// ceil((n+1)/mirrorBatch) requests. A resume (Dial with Resume, the
	// fallback after a lost node, Sync) is a frame of its own. Only frames
	// leave for the raw /play/frame route; a Client sends no JSON.
	LocalMirror bool
	// Pkg is the opened course package (required by LocalMirror; the
	// fleet already holds it for local play). Every mirror on one Pkg
	// shares its parsed container, compiled scripts and decoded frames, so
	// a process mirroring many learners opens the course once and decodes
	// each presented frame once.
	Pkg *gamepack.Package
}

// Client drives one server-hosted session over HTTP. It implements
// sim.Game, so simulator policies (and sim.Replay) work against it
// unchanged. A Client mirrors the hosted session's state after every act;
// it is not safe for concurrent use — like a runtime.Session, one learner
// drives it.
type Client struct {
	opts ClientOptions
	id   string
	// The hop's constants: every request rides retry, a wall-clock budget
	// of clientRetryBudget (held by value so Dial allocates nothing for
	// it), under a per-attempt deadline of clientTimeout. Retries are safe
	// by construction: Dial mints the session id client-side so creates
	// are idempotent, and every act — the leave included — carries a
	// sequence number the server deduplicates on.
	retry   faultnet.RetryPolicy
	timeout time.Duration

	w, h, fps int
	tick      int
	state     *core.State
	// stateTag names the state the client holds, and rides every batch so
	// the reply leaves that state out while it holds: a thin client's is
	// the tag of state, a mirror's its replica's, encoded with enc once a
	// flush.
	stateTag uint64
	enc      runtime.StateEncoder
	messages []string
	seen     int    // events forwarded to the observer so far
	quiz     string // pending quiz id ("" = none)
	seq      int64  // act sequence number (server-side retry dedup)
	// create is the course the next batch opens the session on; it clears
	// when a reply confirms the session exists.
	create string

	// pending holds acts handed to send and not yet shipped: at most one
	// for a thin client, up to mirrorBatch for a mirror client.
	pending []ActRequest
	// Mirror mode: the local replica, its cumulative event count, and the
	// replica's (event count, tick) recorded as each act was queued —
	// the reconciliation values the matching server reply must reproduce.
	mirror        *runtime.Session
	mirrorCounter eventCounter
	pendingEvents []int64
	pendingTicks  []int

	frame raster.Frame // reusable fetched-frame buffer
	body  []byte       // reusable reply-frame buffer (the parse copies out what it keeps)
	err   error        // sticky transport/session failure
}

// eventCounter counts the replica's emitted events for reconciliation.
type eventCounter struct{ n int64 }

func (e *eventCounter) Record(runtime.Event) { e.n++ }

// Interface check: the simulator must be able to drive a remote session
// exactly like a local one.
var _ sim.Game = (*Client)(nil)

// clientTimeout is the per-attempt request deadline of both clients (a
// watcher's poll adds its server-side hold).
const clientTimeout = 10 * time.Second

// clientRetryBudget is the wall-clock retry budget of both clients: an
// interactive client rides out brief correlated outages by wall-clock,
// not attempt count, and this is long enough that a brief full partition
// (hundreds of milliseconds) always sees one attempt land after
// connectivity returns.
const clientRetryBudget = 2 * time.Second

// Dial creates a hosted session on the server and returns a client bound
// to it. A thin client's Dial sends the create and delivers the events
// emitted while entering the start scenario to the observer before it
// returns, mirroring runtime.NewSession. A LocalMirror client's Dial builds
// the replica from Pkg and, unless it opens a room, makes no request: the
// create rides in front of the first batch, so its observer gets the entry
// events with the first reply rather than before Dial returns — in the
// same order, exactly once.
//
// Dial mints the session id itself (unless resuming): the create names it,
// so a retried create whose first reply was lost reattaches to the session
// the server already built instead of leaking a duplicate.
func Dial(o ClientOptions) (*Client, error) {
	if o.BaseURL == "" || (o.Course == "" && o.Resume == "") {
		return nil, fmt.Errorf("playsvc: client needs BaseURL and a Course or Resume id")
	}
	if o.Room && o.Resume != "" {
		return nil, fmt.Errorf("playsvc: a room opens with a create, not a resume")
	}
	if o.Project == nil {
		return nil, fmt.Errorf("playsvc: client needs the course Project")
	}
	if o.LocalMirror {
		if o.Resume != "" {
			return nil, fmt.Errorf("playsvc: LocalMirror cannot resume a session (no local history to rebuild the replica from)")
		}
		if o.Pkg == nil {
			return nil, fmt.Errorf("playsvc: LocalMirror needs the opened course Pkg")
		}
	}
	c := &Client{opts: o, retry: faultnet.RetryPolicy{Budget: clientRetryBudget}, timeout: clientTimeout}
	if o.Resume != "" {
		c.id = o.Resume
		if err := c.resumeOnce(); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.id, c.create = newSessionID(o.Course), o.Course
	if o.LocalMirror {
		mirror, err := runtime.NewSessionFromPackage(o.Pkg, runtime.Options{Observer: &c.mirrorCounter})
		if err != nil {
			return nil, fmt.Errorf("playsvc: local mirror: %w", err)
		}
		c.mirror = mirror
		c.w, c.h, c.fps = mirror.VideoMeta()
		if !o.Room {
			return c, nil
		}
	}
	if _, err := c.flush(); err != nil {
		return nil, err
	}
	return c, nil
}

// SessionID returns the session identifier.
func (c *Client) SessionID() string { return c.id }

// VideoMeta returns the hosted video's geometry (from the create reply, or
// a mirror's package).
func (c *Client) VideoMeta() (w, h, fps int) { return c.w, c.h, c.fps }

// Err returns the sticky failure ("" path errors like a wrong quiz answer
// id are returned to the caller instead and do not stick).
func (c *Client) Err() error { return c.err }

// apply folds a server reply into the client mirror and forwards unseen
// events to the observer. A thin client adopts the reply's state and tag;
// a reply that names a state it neither carries nor matches the client's
// is refused — the client would go on showing a state the session left.
// A mirror's replica is its state, and flush holds the tag to it.
func (c *Client) apply(r *Reply) error {
	if c.mirror == nil {
		switch {
		case r.State != nil:
			c.state, c.stateTag = r.State, r.StateTag
		case r.StateTag != 0 && r.StateTag != c.stateTag:
			return fmt.Errorf("playsvc: reply names state %016x without carrying it; the client holds %016x", r.StateTag, c.stateTag)
		}
	}
	if r.Course != "" {
		c.opts.Course = r.Course
		c.w, c.h, c.fps = r.Width, r.Height, r.FPS
	}
	c.tick = r.Tick
	c.messages = append(c.messages, r.Messages...)
	c.quiz = r.Quiz
	if c.opts.Observer != nil {
		for _, e := range r.Events {
			c.opts.Observer.Record(e)
		}
	}
	c.seen = r.EventCount
	return nil
}

// fail records a sticky failure: the session is gone or unreachable, so
// every later call fails fast with the same error.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// finalize applies the sticky-failure rule after retries (and the resume
// fallback) are spent. A 400 is the caller's mistake (wrong quiz id, bad
// argument) and leaves the session usable; every other failure sticks.
// This rule is load-bearing for the fleet's failure model.
func (c *Client) finalize(err error) error {
	if err == nil {
		return nil
	}
	if pe, ok := err.(*Error); ok && pe.Status == http.StatusBadRequest {
		return err
	}
	return c.fail(err)
}

// decoder consumes a 200 response; the bool reports whether a decode
// failure is worth retrying (a mangled or truncated body re-fetches
// cleanly: every request this package's clients send is safe to repeat).
type decoder func(*http.Response) (error, bool)

// call is where both clients meet the wire: one faultnet.Exchange whose
// handler gives a 200 (or a poll's idle 204) to decode and turns anything
// else into a typed *Error, retried — after the server's Retry-After,
// when it sent one — on a transient status (load shedding, 502/503/504).
// What a 404 means is the caller's: a thin client retries it, because a
// session mid-handoff 404s until its new owner thaws it; a watcher's 404
// is "class dismissed" and must return at once.
func call(httpc *http.Client, policy *faultnet.RetryPolicy, req *faultnet.Request, what string, retry404 bool, decode decoder) error {
	return faultnet.Exchange(httpc, policy, req, func(resp *http.Response) (error, bool) {
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
			return decode(resp)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := errf(resp.StatusCode, "playsvc: %s: %s: %s", what, resp.Status, bytes.TrimSpace(msg))
		if faultnet.RetryableStatus(resp.StatusCode) || (retry404 && resp.StatusCode == http.StatusNotFound) {
			return faultnet.WithRetryAfter(resp, err), true
		}
		return err, false
	})
}

// do sends one of this client's requests under policy (nil = a single
// attempt). Retrying is safe for every request a Client sends: frame GETs
// and resumes are idempotent, creates carry a client-minted id, and acts
// carry a sequence number the server dedups on. It never sticks — the caller decides after
// the budget.
func (c *Client) do(policy *faultnet.RetryPolicy, method, url, contentType string, payload []byte, what string, decode decoder) error {
	return call(c.opts.HTTP, policy, &faultnet.Request{
		Method: method, URL: url, ContentType: contentType, Body: payload,
		Trace: c.opts.Trace, Timeout: c.timeout,
	}, what, true, decode)
}

// postFrame exchanges one encoded act frame for its reply frame.
func (c *Client) postFrame(payload []byte) (*BatchReply, error) {
	var out *BatchReply
	err := c.do(&c.retry, http.MethodPost, c.opts.BaseURL+ActV2Path, FrameContentType, payload, "actv2", func(resp *http.Response) (error, bool) {
		var err error
		if c.body, err = readInto(c.body[:0], io.LimitReader(resp.Body, maxProxyBody)); err != nil {
			return fmt.Errorf("playsvc: actv2: read: %w", err), true
		}
		if out, err = ParseReplyFrame(c.body); err != nil {
			// A mangled frame re-fetches cleanly: the server dedups the retry.
			return fmt.Errorf("playsvc: actv2: %w", err), true
		}
		return nil, false
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maxFrameDim bounds the presentation-frame geometry a server may claim
// per side (vcodec's maxDim: no published video is larger).
const maxFrameDim = 1 << 14

// readFrame decodes a frame response into the client's reusable buffer.
// The geometry headers come off the wire and size the buffer, so they are
// held to maxFrameDim — and to the Content-Length, when the server sent
// one — before anything is allocated.
func (c *Client) readFrame(resp *http.Response) (error, bool) {
	w, _ := strconv.Atoi(resp.Header.Get("X-Frame-Width"))
	h, _ := strconv.Atoi(resp.Header.Get("X-Frame-Height"))
	if w < 1 || h < 1 || w > maxFrameDim || h > maxFrameDim {
		return fmt.Errorf("playsvc: frame response geometry %q x %q outside 1..%d",
			resp.Header.Get("X-Frame-Width"), resp.Header.Get("X-Frame-Height"), maxFrameDim), false
	}
	n := 3 * w * h
	if resp.ContentLength >= 0 && resp.ContentLength != int64(n) {
		return fmt.Errorf("playsvc: frame response carries %d bytes, a %dx%d frame needs %d", resp.ContentLength, w, h, n), false
	}
	tick := c.tick
	if v := resp.Header.Get("X-Frame-Tick"); v != "" {
		tick, _ = strconv.Atoi(v)
	}
	if cap(c.frame.Pix) < n {
		c.frame.Pix = make([]uint8, n)
	}
	c.frame.Pix = c.frame.Pix[:n]
	c.frame.W, c.frame.H = w, h
	if _, err := io.ReadFull(resp.Body, c.frame.Pix); err != nil {
		// A truncated body (reset mid-stream) re-fetches cleanly.
		return fmt.Errorf("playsvc: short frame body: %w", err), true
	}
	c.tick = tick
	return nil, false
}

// recoverable reports whether a terminal error may mean "the hosting
// node died but the session snapshot survives" — the case the resume
// fallback exists for. Client mistakes (400), conflicts and explicit
// shedding are not session loss.
func recoverable(err error) bool {
	if pe, ok := err.(*Error); ok {
		return pe.Status == http.StatusNotFound || pe.Status == http.StatusServiceUnavailable
	}
	// Transport-class failure: the node (or path to it) is gone.
	return true
}

// resumeOnce reattaches to the session via the snapshot path: a resume
// frame thaws the latest released-or-checkpoint snapshot (the gateway
// re-routes it to the session's current ring owner) and the reply
// refreshes the client's view with the tails beyond its seen-counts.
func (c *Client) resumeOnce() error {
	out, err := c.postFrame(EncodeActFrame(&BatchRequest{Session: c.id, Resume: true,
		SeenEvents: c.seen, SeenMessages: len(c.messages), StateTag: c.stateTag}))
	if err != nil {
		return err
	}
	return c.apply(out.Reply)
}

// mirrorBatch is how many replica-answered acts a LocalMirror client ships
// per frame. Nothing waits on a mirror flush, so the batch is deep; a thin
// client's caller waits on every act, so its batch is always one.
const mirrorBatch = 16

// send is the one act path: every sim.Game act arrives here as an
// ActRequest. A thin client ships it at once as a framed batch of one and
// returns the hosted session's result (and any act-level error). A mirror
// client's replica has already answered the caller; the act is queued with
// the replica's post-act event count and tick — the values the server
// reply covering it must reproduce — and the queue ships at mirrorBatch.
func (c *Client) send(req *ActRequest) (ActResult, error) {
	if c.err != nil {
		return ActResult{}, c.err
	}
	c.queue(req)
	if c.mirror != nil && len(c.pending) < mirrorBatch {
		return ActResult{}, nil
	}
	return c.flush()
}

// queue appends an act to the pending batch; a mirror client records with
// it the replica's event count and tick after the act.
func (c *Client) queue(req *ActRequest) {
	c.pending = append(c.pending, *req)
	if c.mirror != nil {
		c.pendingEvents = append(c.pendingEvents, c.mirrorCounter.n)
		c.pendingTicks = append(c.pendingTicks, c.mirror.Ticks())
	}
}

// trimPending drops the first n queued acts (and, in mirror mode, their
// recorded reconciliation values).
func (c *Client) trimPending(n int) {
	c.pending = append(c.pending[:0], c.pending[n:]...)
	if c.mirror != nil {
		c.pendingEvents = append(c.pendingEvents[:0], c.pendingEvents[n:]...)
		c.pendingTicks = append(c.pendingTicks[:0], c.pendingTicks[n:]...)
	}
}

// flush ships the queued acts — behind the create while the session is
// unconfirmed — as one framed batch. The returned result and error
// describe the LAST queued act — for a thin client the only one, whose
// caller is waiting. An act-level error on an earlier act drops that act
// and ships the rest: only a mirror client queues more than one, and its
// replica already gave the refusal to the caller. (In practice only
// select, quiz, goto and tick can be refused.) A mirror tags its replica
// once, up front: the replica has already run every queued act, so that is
// the state the batch must leave the hosted session in.
func (c *Client) flush() (ActResult, error) {
	var last ActResult
	if c.mirror != nil && (len(c.pending) > 0 || c.create != "") {
		c.stateTag = stateTag(c.enc.Encode(c.mirror.State()))
	}
	for len(c.pending) > 0 || c.create != "" {
		if c.err != nil {
			c.trimPending(len(c.pending))
			return ActResult{}, c.err
		}
		n := len(c.pending)
		out, err := c.sendBatch(c.pending)
		if err != nil {
			c.trimPending(n)
			return ActResult{}, err
		}
		// A reply proves the session exists, whatever became of the acts.
		c.create = ""
		if out.ActErr != nil {
			// A reply claiming more results than acts sent is not trusted
			// to index the queue.
			applied := min(len(out.Results), n-1)
			c.trimPending(applied + 1)
			if applied == n-1 {
				return ActResult{}, c.finalize(out.ActErr)
			}
			continue
		}
		// Mirror mode: the reply covering this batch must land exactly
		// where the replica was when the batch's last act was queued — or
		// where it is now, for a batch that is only the create — and in the
		// replica's state (a leave's reply names none). Anything else means
		// replica and hosted session disagree, and every local answer after
		// the divergence point is suspect.
		if c.mirror != nil {
			events, tick := c.mirrorCounter.n, c.mirror.Ticks()
			if n > 0 {
				events, tick = c.pendingEvents[n-1], c.pendingTicks[n-1]
			}
			if r := out.Reply; int64(r.EventCount) != events || r.Tick != tick || (r.StateTag != 0 && r.StateTag != c.stateTag) {
				return ActResult{}, c.fail(fmt.Errorf(
					"playsvc: local mirror diverged: replica at %d events/tick %d/state %016x, hosted session at %d/%d/%016x",
					events, tick, c.stateTag, r.EventCount, r.Tick, r.StateTag))
			}
		}
		if len(out.Results) > 0 {
			last = out.Results[len(out.Results)-1]
		}
		c.trimPending(n)
	}
	return last, nil
}

// resuming runs one retried operation; if it fails in a way that may mean
// the session's node died, the client resumes from the snapshot path and
// runs it once more. op re-reads the seen-counts each time, so the replay
// carries the view the resume refreshed. The sticky-failure rule applies
// to whatever error is left.
func (c *Client) resuming(op func() error) error {
	err := op()
	if err != nil && recoverable(err) && c.resumeOnce() == nil {
		err = op()
	}
	return c.finalize(err)
}

// sendBatch posts one framed batch, the pending create in front of it. The
// batch keeps its BaseSeq across retries and the post-resume replay, so
// the server's (base, len) dedup — or, for a batch that ended the
// session, its tombstone — recognizes a batch whose reply was lost and
// applies each act at most once.
func (c *Client) sendBatch(acts []ActRequest) (*BatchReply, error) {
	req := &BatchRequest{Session: c.id, Create: c.create, Room: c.opts.Room && c.create != "", StateTag: c.stateTag, Acts: acts}
	if len(acts) > 0 {
		req.BaseSeq = c.seq + 1
		c.seq += int64(len(acts))
	}
	var out *BatchReply
	post := func() (err error) {
		req.SeenEvents, req.SeenMessages = c.seen, len(c.messages)
		out, err = c.postFrame(EncodeActFrame(req))
		return err
	}
	var err error
	if req.leaves() {
		// Replayed directly, never through a resume: resuming a session
		// that the first attempt already released would either fail (404,
		// reading as session loss) or thaw it back to life, and the
		// server's tombstone makes the bare replay safe (same seq → same
		// final view).
		if err = post(); err != nil && recoverable(err) {
			err = post()
		}
		err = c.finalize(err)
	} else {
		err = c.resuming(post)
	}
	if err != nil {
		return nil, err
	}
	if err := c.apply(out.Reply); err != nil {
		return nil, c.fail(err)
	}
	return out, nil
}

// Sync ships a mirror client's queued acts, then fetches the session view
// with a resume frame, folding in — and thereby acknowledging — any event
// or message tail the server still retains. After a Sync the server holds
// no unacknowledged state for this client, which makes it the natural last
// call before a planned handoff.
func (c *Client) Sync() error {
	c.flush() // a mirror client's queued tail; errors stick
	if c.err != nil {
		return c.err
	}
	return c.finalize(c.resumeOnce())
}

// Project implements sim.Game.
func (c *Client) Project() *core.Project { return c.opts.Project }

// State implements sim.Game: the mirrored server-side state after the
// last act. Treat it as read-only.
func (c *Client) State() *core.State {
	if c.mirror != nil {
		return c.mirror.State()
	}
	return c.state
}

// Scenario implements sim.Game.
func (c *Client) Scenario() *core.Scenario {
	if c.mirror != nil {
		return c.mirror.Scenario()
	}
	return c.opts.Project.ScenarioByID(c.state.Scenario)
}

// Ended implements sim.Game.
func (c *Client) Ended() bool {
	if c.mirror != nil {
		return c.mirror.Ended()
	}
	return c.state.Ended
}

// Outcome returns the end label ("" while running).
func (c *Client) Outcome() string {
	if c.mirror != nil {
		return c.mirror.Outcome()
	}
	return c.state.Outcome
}

// Ticks returns the hosted session's tick counter after the last act.
func (c *Client) Ticks() int {
	if c.mirror != nil {
		return c.mirror.Ticks()
	}
	return c.tick
}

// Messages implements sim.Game.
func (c *Client) Messages() []string {
	if c.mirror != nil {
		return c.mirror.Messages()
	}
	return append([]string(nil), c.messages...)
}

// PendingQuiz implements sim.Game.
func (c *Client) PendingQuiz() (*core.Quiz, bool) {
	if c.mirror != nil {
		return c.mirror.PendingQuiz()
	}
	if c.quiz == "" {
		return nil, false
	}
	q := c.opts.Project.QuizByID(c.quiz)
	return q, q != nil
}

// AnswerQuiz implements sim.Game.
func (c *Client) AnswerQuiz(quizID string, choice int) (bool, error) {
	req := &ActRequest{Kind: ActQuiz, Quiz: quizID, Choice: choice}
	if c.mirror != nil {
		correct, err := c.mirror.AnswerQuiz(quizID, choice)
		c.send(req)
		return correct, err
	}
	res, err := c.send(req)
	return res.HasCorrect && res.Correct, err
}

// Click implements sim.Game.
func (c *Client) Click(vx, vy int) {
	if c.mirror != nil {
		c.mirror.Click(vx, vy)
	}
	c.send(&ActRequest{Kind: ActClick, X: vx, Y: vy})
}

// Examine implements sim.Game.
func (c *Client) Examine(objectID string) {
	if c.mirror != nil {
		c.mirror.Examine(objectID)
	}
	c.send(&ActRequest{Kind: ActExamine, Object: objectID})
}

// Talk implements sim.Game.
func (c *Client) Talk(objectID string) {
	if c.mirror != nil {
		c.mirror.Talk(objectID)
	}
	c.send(&ActRequest{Kind: ActTalk, Object: objectID})
}

// Take implements sim.Game.
func (c *Client) Take(objectID string) bool {
	req := &ActRequest{Kind: ActTake, Object: objectID}
	if c.mirror != nil {
		took := c.mirror.Take(objectID)
		c.send(req)
		return took
	}
	res, err := c.send(req)
	return err == nil && res.HasTook && res.Took
}

// UseItemOn implements sim.Game.
func (c *Client) UseItemOn(item, objectID string) {
	if c.mirror != nil {
		c.mirror.UseItemOn(item, objectID)
	}
	c.send(&ActRequest{Kind: ActUse, Item: item, Object: objectID})
}

// SelectItem implements sim.Game.
func (c *Client) SelectItem(item string) error {
	req := &ActRequest{Kind: ActSelect, Item: item}
	if c.mirror != nil {
		err := c.mirror.SelectItem(item)
		c.send(req)
		return err
	}
	_, err := c.send(req)
	return err
}

// ClearSelection implements sim.Game.
func (c *Client) ClearSelection() {
	if c.mirror != nil {
		c.mirror.ClearSelection()
	}
	c.send(&ActRequest{Kind: ActClear})
}

// GotoScenario implements sim.Game.
func (c *Client) GotoScenario(id string) error {
	req := &ActRequest{Kind: ActGoto, Object: id}
	if c.mirror != nil {
		err := c.mirror.GotoScenario(id)
		c.send(req)
		return err
	}
	_, err := c.send(req)
	return err
}

// Advance implements sim.Game: one act regardless of tick count.
func (c *Client) Advance(ticks int) error {
	if ticks <= 0 {
		return c.err
	}
	req := &ActRequest{Kind: ActTick, Ticks: ticks}
	if c.mirror != nil {
		err := c.mirror.Advance(ticks)
		c.send(req)
		return err
	}
	_, err := c.send(req)
	return err
}

// Watch implements sim.Game: it fetches the current presentation frame
// into the client's reusable buffer (see Frame).
func (c *Client) Watch() error {
	_, err := c.Frame()
	return err
}

// Frame fetches the hosted session's presentation frame. The returned
// frame is client-owned and recycled by the next fetch. In mirror mode
// the replica renders it locally — same package, same cursor position,
// same pixels — and no round trip happens at all.
func (c *Client) Frame() (*raster.Frame, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.mirror != nil {
		if err := c.mirror.FrameInto(&c.frame); err != nil {
			return nil, err
		}
		return &c.frame, nil
	}
	// A frame GET is idempotent; re-fetching after a lost response just
	// renders again.
	url := c.opts.BaseURL + FramePath + "?session=" + c.id
	if err := c.resuming(func() error {
		return c.do(&c.retry, http.MethodGet, url, "", nil, "frame", c.readFrame)
	}); err != nil {
		return nil, err
	}
	return &c.frame, nil
}

// Close releases the hosted session: the leave is the last act of the last
// batch, behind whatever a mirror client still has queued, so events
// emitted by the final interactions are still delivered to the observer.
// Closing an already-failed client still attempts the leave — if the
// session survived whatever broke the client, it should not linger until
// TTL eviction — and returns the sticky error.
func (c *Client) Close() error {
	defer func() {
		if c.mirror != nil {
			// The replica goes; its last state stays readable.
			c.state, c.mirror = c.mirror.State(), nil
		}
	}()
	leave := ActRequest{Kind: ActLeave}
	if c.err != nil {
		// Best effort: one attempt, under the same per-attempt deadline
		// and trace header as every other request; the answer is unread.
		c.seq++
		frame := EncodeActFrame(&BatchRequest{Session: c.id, BaseSeq: c.seq, Acts: []ActRequest{leave},
			SeenEvents: c.seen, SeenMessages: len(c.messages)})
		c.do(nil, http.MethodPost, c.opts.BaseURL+ActV2Path, FrameContentType, frame, "leave",
			func(*http.Response) (error, bool) { return nil, false })
		return c.err
	}
	c.queue(&leave)
	_, err := c.flush()
	return err
}
