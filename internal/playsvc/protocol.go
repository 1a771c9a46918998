package playsvc

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Routes served by Manager.Handler. Mount the handler at "/play/" on a
// netstream.Server (or any mux).
const (
	ActV2Path   = "/play/actv2"   // POST binary act frame → binary reply frame (create, room or resume, acts, leave)
	ActPath     = "/play/act"     // POST ActRequest → Reply (the JSON adapter over the same batch)
	FramePath   = "/play/frame"   // GET ?session=&advance=N → raw RGB bytes
	StatsPath   = "/play/stats"   // GET → Stats
	HandoffPath = "/play/handoff" // POST HandoffRequest → freeze one session to the shared directory
	DrainPath   = "/play/drain"   // POST → freeze every session (graceful node removal)
	RecoverPath = "/play/recover" // POST HandoffRequest → thaw even from a checkpoint (crash recovery)
)

// Room routes, served by the same Manager.Handler (mount it at "/room/"
// alongside "/play/"). A room is opened by its driver's create, carrying a
// room record, on the act path; the room id is the driven session's id, so
// a cluster gateway hashes watcher traffic onto the driver's node. Every
// room route names its room in the query.
const (
	RoomJoinPath   = "/room/join"   // POST ?room= RoomJoinRequest → RoomJoinReply
	RoomWatchPath  = "/room/watch"  // GET ?room=&watcher=&events=&messages=&wait_ms= → one watch chunk (long poll; 204 = idle)
	RoomAnswerPath = "/room/answer" // POST ?room= RoomAnswerRequest → RoomAnswerReply
	RoomStatsPath  = "/room/stats"  // GET ?room= → RoomStats
	RoomLeavePath  = "/room/leave"  // POST ?room= RoomJoinRequest → unsubscribe
)

// Action kinds accepted by ActPath. "tick" advances playback; "leave"
// releases the session (the polite alternative to idle eviction).
const (
	ActClick   = "click"
	ActExamine = "examine"
	ActTalk    = "talk"
	ActTake    = "take"
	ActUse     = "use"
	ActSelect  = "select"
	ActClear   = "clear"
	ActQuiz    = "quiz"
	ActGoto    = "goto"
	ActTick    = "tick"
	ActLeave   = "leave"
)

// HandoffRequest freezes one session into the shared snapshot directory so
// another node can thaw it — the gateway's migration primitive.
type HandoffRequest struct {
	Session string `json:"session"`
}

// ActRequest applies one interaction to a hosted session. As the body of
// POST /play/act it is a batch of at most one act: Course opens the session
// first (create-if-absent), Room with it opens a room, Resume reattaches
// it, and an empty Kind means no act — so
// {"session":"s1","course":"classroom"} is a create,
// {"session":"r1","course":"classroom","room":true} opens a room and
// {"session":"s1","resume":true} is a resume. The caller names the session.
type ActRequest struct {
	Session string `json:"session"`
	Course  string `json:"course,omitempty"` // create the session on this course first
	Room    bool   `json:"room,omitempty"`   // the create opens a room
	Resume  bool   `json:"resume,omitempty"` // reattach the session first
	Kind    string `json:"kind,omitempty"`
	Object  string `json:"object,omitempty"` // examine/talk/take/use/goto target
	Item    string `json:"item,omitempty"`   // use/select item
	X       int    `json:"x,omitempty"`      // click coordinates
	Y       int    `json:"y,omitempty"`
	Quiz    string `json:"quiz,omitempty"` // quiz id being answered
	Choice  int    `json:"choice"`
	Ticks   int    `json:"ticks,omitempty"` // tick count (default 1)
	// Seq is the client's per-session act sequence number (1, 2, 3…).
	// The server remembers the last applied seq and its reply: a retry of
	// an already-applied act (its response was lost in flight) returns the
	// cached reply instead of applying the act twice. Zero disables
	// deduplication (hand-written curl requests keep working).
	Seq int64 `json:"seq,omitempty"`
	// SeenEvents and SeenMessages tell the server how much of the session's
	// event log and say-transcript the client already holds; the reply
	// carries only the tails beyond these counts. SeenEvents is also an
	// acknowledgment: the server releases the acked event prefix, so a
	// long-lived session retains only unacknowledged events.
	SeenEvents   int `json:"seen_events,omitempty"`
	SeenMessages int `json:"seen_messages,omitempty"`

	// Trace is the request's trace context. It rides the X-Vgbl-Trace
	// header, not the JSON body; the HTTP handlers fill it in.
	Trace obs.TraceContext `json:"-"`
}

// BatchRequest applies a sequence of acts to one session in a single
// round trip (the /play/actv2 payload, framed by EncodeActFrame). The
// batch applies atomically under the session lock, in order — the create
// and its room, the acts, the leave — stopping at the first act-level
// error. Act sequence numbers are implicit: act i carries BaseSeq+i, and
// the server deduplicates a retried batch on (BaseSeq, len(Acts)) — the
// reply was lost, not the work.
type BatchRequest struct {
	Session string
	// Create, when set, names the course the batch opens Session on before
	// its acts apply. It is create-if-absent: a session this node holds, or
	// one the snapshot directory holds, is reattached or thawed, so a
	// retried create never mints the session twice. A batch may carry a
	// create and no acts.
	Create string
	// Room, beside a Create, opens the session as a classroom room before
	// the acts apply: a broadcast hub attaches under the session's id and
	// renders publication seq 1, the frame every joiner's ring starts
	// from. A retried create reattaches to the hub it opened. Legal only
	// with a Create.
	Room bool
	// Resume reattaches Session before the acts apply: a live session
	// answers at once, an absent one thaws from the snapshot directory —
	// checkpoint entries included, since the client asserts the node that
	// held it is gone. Exclusive with Create; a batch may carry a resume
	// and no acts. The reply names the course and is marked Resumed.
	Resume bool
	// BaseSeq is the first act's sequence number (acts are BaseSeq..
	// BaseSeq+len(Acts)-1). Zero disables deduplication, as for ActRequest.
	BaseSeq int64
	// SeenEvents/SeenMessages acknowledge the tails the client already
	// folded in, exactly as on a single act; acknowledgment — and the
	// event-log compaction it permits — happens before any act applies.
	SeenEvents   int
	SeenMessages int
	// StateTag names the state the client holds (a reply's StateTag; 0 =
	// none). The reply leaves its state out when the session's state has
	// this tag, so a client that echoes the tag it last adopted is sent a
	// state only when it changed — and a retried batch, which carries the
	// same tag, is sent again whatever state its lost reply carried.
	StateTag uint64
	// Acts are the interactions, in order. Only Kind, Object, Item, X, Y,
	// Quiz, Choice and Ticks are meaningful; per-act Session, Course,
	// Room, Resume, Seq and Seen fields are ignored. ActLeave is legal only
	// as the last act (400 anywhere else): it releases the session once
	// the acts before it have applied, and the reply then carries the
	// final tails and no state.
	Acts []ActRequest

	Trace obs.TraceContext
}

// leaves reports whether the batch ends its session.
func (b *BatchRequest) leaves() bool {
	return len(b.Acts) > 0 && b.Acts[len(b.Acts)-1].Kind == ActLeave
}

// ActResult is one act's result bits within a batch reply.
type ActResult struct {
	HasCorrect bool // act was a quiz answer
	Correct    bool
	HasTook    bool // act was a take
	Took       bool
}

func (r ActResult) bits() byte {
	var b byte
	if r.HasCorrect {
		b |= resHasCorrect
	}
	if r.Correct {
		b |= resCorrect
	}
	if r.HasTook {
		b |= resHasTook
	}
	if r.Took {
		b |= resTook
	}
	return b
}

func resultFromBits(b byte) ActResult {
	return ActResult{
		HasCorrect: b&resHasCorrect != 0,
		Correct:    b&resCorrect != 0,
		HasTook:    b&resHasTook != 0,
		Took:       b&resTook != 0,
	}
}

// BatchReply is the server's answer to a BatchRequest: one result per
// applied act plus a single coalesced state/event/message tail (the
// Reply), assembled once after the whole batch.
type BatchReply struct {
	Reply *Reply
	// Results has one entry per successfully applied act, in order.
	Results []ActResult
	// ActErr, when set, is the act-level error that stopped the batch:
	// acts [0,len(Results)) applied, act len(Results) failed, and any
	// later acts never ran. It rides inside a 200 response — the batch
	// request itself succeeded — so HTTP-level statuses keep meaning
	// "session-level failure" (404 gone, 503 draining) and the
	// gateway's healing logic stays status-driven.
	ActErr *Error
}

// Reply is the server's view of a hosted session after an operation.
// StateTag names the session's state and the reply carries it — unless
// the request named the same tag (BatchRequest.StateTag): the client
// already holds it. A parsed frame and Act's reply carry it as State; a
// reply ActBatch returns holds its canonical bytes instead, for the frame
// to write as is. Events/Messages are the unseen tails. A Reply owns what
// it carries, so it stays valid after the session moves on. The JSON
// adapter's requests name no tag, so its replies always carry State. A
// leave confirmation carries the tails and no state at all (a zero
// StateTag) — a leave changes none. A create's or a resume's reply (JSON
// or framed) names the course and its video geometry.
type Reply struct {
	Session string `json:"session"`
	Course  string `json:"course,omitempty"` // set on create and resume
	Width   int    `json:"w,omitempty"`      // video metadata, set on create and resume
	Height  int    `json:"h,omitempty"`
	FPS     int    `json:"fps,omitempty"`

	Tick         int             `json:"tick"`
	State        *core.State     `json:"state"`
	StateTag     uint64          `json:"state_tag,omitempty"`
	Events       []runtime.Event `json:"events,omitempty"`
	Messages     []string        `json:"messages,omitempty"`
	EventCount   int             `json:"event_count"`    // total events so far
	MessageCount int             `json:"message_count"`  // total messages so far
	Quiz         string          `json:"quiz,omitempty"` // pending quiz id

	Correct *bool `json:"correct,omitempty"` // quiz act result
	Took    *bool `json:"took,omitempty"`    // take act result

	// Resumed marks a reply to a batch that carried a resume.
	Resumed bool `json:"resumed,omitempty"`

	// state is the canonical encoding a hosted session's reply carries in
	// place of State (decoded into State only for Act and the JSON adapter).
	state []byte
}

// RoomJoinRequest subscribes a watcher to a room (or, on RoomLeavePath,
// unsubscribes it).
type RoomJoinRequest struct {
	Room string `json:"-"` // the ?room= query
	// Watcher optionally fixes the watcher id (a retried join with the
	// same id reattaches); empty lets the server pick.
	Watcher string `json:"watcher,omitempty"`

	Trace obs.TraceContext `json:"-"`
}

// RoomJoinReply is the watcher's catch-up snapshot: the current state plus
// the retained event/message tails, so the first watch chunk only has to
// carry what happens next.
type RoomJoinReply struct {
	Room    string `json:"room"`
	Watcher string `json:"watcher"`
	Course  string `json:"course"`
	Width   int    `json:"w"`
	Height  int    `json:"h"`
	FPS     int    `json:"fps"`

	Seq          int64           `json:"seq"`
	Tick         int             `json:"tick"`
	State        *core.State     `json:"state"`
	EventStart   int             `json:"event_start"` // absolute index of Events[0]
	Events       []runtime.Event `json:"events,omitempty"`
	EventCount   int             `json:"event_count"`
	MessageStart int             `json:"message_start"`
	Messages     []string        `json:"messages,omitempty"`
	MessageCount int             `json:"message_count"`
	Quiz         string          `json:"quiz,omitempty"`
}

// RoomAnswerRequest records one watcher's answer to a quiz the room has
// seen pending. Cohort answers are assessment data: they never touch the
// driven session.
type RoomAnswerRequest struct {
	Room    string `json:"-"` // the ?room= query
	Watcher string `json:"watcher"`
	Quiz    string `json:"quiz"`
	Choice  int    `json:"choice"`

	Trace obs.TraceContext `json:"-"`
}

// RoomAnswerReply confirms the recorded answer and shows the cohort tally.
type RoomAnswerReply struct {
	Room    string `json:"room"`
	Quiz    string `json:"quiz"`
	Correct bool   `json:"correct"`
	Answers int    `json:"answers"` // distinct watchers who answered
	Votes   []int  `json:"votes"`   // per-choice counts
}

// RoomQuizTally is one question's cohort outcome in a RoomStats snapshot.
type RoomQuizTally struct {
	Quiz    string `json:"quiz"`
	Answers int    `json:"answers"`
	Correct int    `json:"correct"` // votes on the correct choice
	Votes   []int  `json:"votes"`
}

// RoomStats is the /room/stats payload for one room.
type RoomStats struct {
	Room      string          `json:"room"`
	Watchers  int             `json:"watchers"`
	Seq       int64           `json:"seq"`
	Tick      int             `json:"tick"`
	Renders   int64           `json:"renders"`   // exactly one per publication
	Delivered int64           `json:"delivered"` // frames handed to watchers
	Skipped   int64           `json:"skipped"`   // frames dropped from watcher rings
	Answers   int64           `json:"answers"`
	Quiz      string          `json:"quiz,omitempty"` // currently pending
	Quizzes   []RoomQuizTally `json:"quizzes,omitempty"`
}

// Error is a protocol error carrying the HTTP status the handlers answer
// with (and that Client saw when the server produced it).
type Error struct {
	Status int
	Msg    string
	// RetryAfter, when positive, is the server's advertised backoff in
	// whole seconds (a 429/503 load-shed answer). The HTTP handlers emit
	// it as a Retry-After header; clients honor it instead of jittering.
	RetryAfter int
	// Unknown marks a 404 from a node whose snapshot directory has no entry
	// for the session. A cluster's nodes share that directory and every
	// session is in it from its create to its leave, so no node holds the
	// session, live or frozen: a gateway relays the 404 as it is, with no
	// rescue. The HTTP handlers emit it as UnknownSessionHeader.
	Unknown bool
}

// UnknownSessionHeader is set on a 404 whose Error is Unknown.
const UnknownSessionHeader = "X-Session-Unknown"

// errUnknown is the 404 for a session the directory has no entry for.
func errUnknown(session string) *Error {
	return &Error{Status: http.StatusNotFound, Msg: fmt.Sprintf("playsvc: no session %q (no directory entry)", session), Unknown: true}
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

func errf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// httpStatus maps an error to a response code (500 for non-protocol errors).
func httpStatus(err error) int {
	if pe, ok := err.(*Error); ok {
		return pe.Status
	}
	return http.StatusInternalServerError
}
