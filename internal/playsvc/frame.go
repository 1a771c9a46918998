// Binary wire framing for the act path: the one format a hosted session's
// life travels in, from its create or resume to its leave (POST /play/act
// is the JSON adapter over the same batch).
//
// A frame is an internal/tagrec container, like the snapshot envelope and
// the watch chunk; this file holds the act and reply tag tables and the
// field codecs the three share (act error, state; an event's is
// runtime.AppendEvent, which telemetry batches carry too). Request frames
// ("VACT") carry a whole act batch. Their routing prefix is the session id,
// then the op records — a create naming the course (and a room record
// when the session opens as a classroom room) or a resume, a leave — so a
// gateway routes a frame, counts its create and sweeps for its resume,
// without parsing (or re-encoding) the rest. A frame may open its session, act on
// it and end it all at once: a thick client's whole session can be one
// frame. Reply frames ("VRPL") carry per-act results plus ONE coalesced
// state/event/message tail, so a batch of N acts costs one state snapshot
// instead of N; a create's or a resume's reply adds the course and its
// video geometry.
//
// Every parse rejection wraps ErrBadFrame; the hostile-input bar (every
// length checked against the remaining input before any allocation) is
// tagrec's, pinned there by FuzzRecords and here by FuzzParseActFrame.
package playsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tagrec"
)

// FrameContentType is the Content-Type of binary play frames.
const FrameContentType = "application/x-vgbl-frame"

// ErrBadFrame is wrapped by every frame parse rejection, so callers (and
// the fuzzer) can separate hostile input from I/O failures.
var ErrBadFrame = errors.New("playsvc: bad frame")

const (
	actMagic   = "VACT"
	replyMagic = "VRPL"

	frameVersion = 1

	// maxFrameActs bounds one batch: well above any client's batch depth,
	// small enough that one request cannot monopolize a session lock.
	maxFrameActs = 256
	// maxFrameField bounds a single tagged record.
	maxFrameField = 1 << 20
)

// Act-frame record tags. The session, create-or-resume, room and leave
// records are the routing prefix: in that order, before every other record.
const (
	atagSession      = 1 // string; MUST be the first record (gateway routing)
	atagBaseSeq      = 2 // uvarint
	atagSeenEvents   = 3 // uvarint
	atagSeenMessages = 4 // uvarint
	atagAct          = 5 // repeated, one per act, batch order
	atagCreate       = 6 // string course: open the session before the acts
	atagLeave        = 7 // empty: the last act is a leave
	atagResume       = 8 // empty: reattach the session; exclusive with create
	atagRoom         = 9 // empty: the create opens a room; right after the create
)

// Reply-frame record tags.
const (
	rtagSession      = 1  // string
	rtagTick         = 2  // uvarint
	rtagEventCount   = 3  // uvarint
	rtagMessageCount = 4  // uvarint
	rtagQuiz         = 5  // string (absent = no pending quiz)
	rtagFlags        = 6  // uvarint bitmap
	rtagState        = 7  // encoded core.State
	rtagEvent        = 8  // repeated: tick uvarint, kind str, detail str
	rtagMessage      = 9  // repeated string
	rtagResult       = 10 // repeated, one result byte per applied act
	rtagError        = 11 // status uvarint, retryAfter uvarint, msg str
	rtagCourse       = 12 // string; a create's reply, with the three below
	rtagWidth        = 13 // uvarint
	rtagHeight       = 14 // uvarint
	rtagFPS          = 15 // uvarint
)

// Reply flag bits (rtagFlags).
const rflagResumed = 1

// Per-act result bits (rtagResult payload, and the envelope's dedup state).
const (
	resHasCorrect = 1 << 0
	resCorrect    = 1 << 1
	resHasTook    = 1 << 2
	resTook       = 1 << 3
)

// wireKind maps an act kind to its wire enum (0 = unknown). A leave is
// legal only as a frame's last act, and the frame's leave record says so
// in the routing prefix.
func wireKind(kind string) uint64 {
	switch kind {
	case ActClick:
		return 1
	case ActExamine:
		return 2
	case ActTalk:
		return 3
	case ActTake:
		return 4
	case ActUse:
		return 5
	case ActSelect:
		return 6
	case ActClear:
		return 7
	case ActQuiz:
		return 8
	case ActGoto:
		return 9
	case ActTick:
		return 10
	case ActLeave:
		return 11
	}
	return 0
}

func kindOfWire(k uint64) string {
	switch k {
	case 1:
		return ActClick
	case 2:
		return ActExamine
	case 3:
		return ActTalk
	case 4:
		return ActTake
	case 5:
		return ActUse
	case 6:
		return ActSelect
	case 7:
		return ActClear
	case 8:
		return ActQuiz
	case 9:
		return ActGoto
	case 10:
		return ActTick
	case 11:
		return ActLeave
	}
	return ""
}

func frameBadf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// --- shared field codecs -----------------------------------------------------

// readEvent is runtime.ReadEvent under ErrBadFrame, for the reply frame's
// and the watch chunk's event tails.
func readEvent(payload []byte) (runtime.Event, error) {
	e, err := runtime.ReadEvent(payload)
	if err != nil {
		return e, frameBadf("event: %v", err)
	}
	return e, nil
}

// appendActError and readActError are the one encoding of the act-level
// error that stopped a batch (status uvarint, retry-after uvarint, message
// str) — in the reply frame, and in the envelope so a thawed session's
// retried batch is answered with the same bytes.
func appendActError(b []byte, tag uint64, e *Error) []byte {
	b, mark := tagrec.BeginRecord(b, tag)
	b = binary.AppendUvarint(b, uint64(e.Status))
	b = binary.AppendUvarint(b, uint64(max(e.RetryAfter, 0)))
	b = tagrec.AppendStr(b, e.Msg)
	return tagrec.EndRecord(b, mark)
}

func readActError(payload []byte) (*Error, error) {
	r := tagrec.Reader{B: payload}
	e := &Error{}
	var err error
	if e.Status, err = r.Int(); err != nil || e.Status < 100 || e.Status > 599 {
		return nil, frameBadf("malformed error status")
	}
	if e.RetryAfter, err = r.Int(); err != nil {
		return nil, frameBadf("malformed error retry-after")
	}
	if e.Msg, err = r.Str(); err != nil {
		return nil, frameBadf("malformed error message")
	}
	return e, nil
}

// --- act frames --------------------------------------------------------------

// EncodeActFrame encodes a batch request as a binary act frame. Only the
// act fields the wire carries (kind, object, item, x, y, quiz, choice,
// ticks) survive; session/create/room/resume/seq/seen ride the frame
// header.
func EncodeActFrame(req *BatchRequest) []byte {
	b := tagrec.Begin(make([]byte, 0, 64+32*len(req.Acts)), actMagic, frameVersion)
	// The routing prefix leads so a gateway can route on a prefix parse.
	b = tagrec.Append(b, atagSession, req.Session)
	if req.Create != "" {
		b = tagrec.Append(b, atagCreate, req.Create)
	}
	if req.Room {
		b = tagrec.Append(b, atagRoom, "")
	}
	if req.Resume {
		b = tagrec.Append(b, atagResume, "")
	}
	if req.leaves() {
		b = tagrec.Append(b, atagLeave, "")
	}
	b = tagrec.AppendUint(b, atagBaseSeq, uint64(req.BaseSeq))
	b = tagrec.AppendUint(b, atagSeenEvents, uint64(req.SeenEvents))
	b = tagrec.AppendUint(b, atagSeenMessages, uint64(req.SeenMessages))
	for i := range req.Acts {
		a := &req.Acts[i]
		var mark int
		b, mark = tagrec.BeginRecord(b, atagAct)
		b = binary.AppendUvarint(b, wireKind(a.Kind))
		b = tagrec.AppendStr(b, a.Object)
		b = tagrec.AppendStr(b, a.Item)
		b = tagrec.AppendZigzag(b, int64(a.X))
		b = tagrec.AppendZigzag(b, int64(a.Y))
		b = tagrec.AppendStr(b, a.Quiz)
		b = tagrec.AppendZigzag(b, int64(a.Choice))
		b = binary.AppendUvarint(b, uint64(max(a.Ticks, 0)))
		b = tagrec.EndRecord(b, mark)
	}
	return tagrec.Finish(b, 0)
}

// ParseActFrame parses a binary act frame into a batch request. Every
// rejection wraps ErrBadFrame; hostile lengths and counts are bounded
// before allocation.
func ParseActFrame(data []byte) (*BatchRequest, error) {
	req := &BatchRequest{}
	var rt frameRoute
	prefix := true
	sc := tagrec.Open(data, actMagic, 1, frameVersion, maxFrameField)
	for i := 0; sc.Next(); i++ {
		if prefix {
			var err error
			if prefix, err = rt.take(i, sc.Tag, sc.Payload); err != nil {
				return nil, err
			}
			if prefix {
				continue
			}
		}
		r := tagrec.Reader{B: sc.Payload}
		var err error
		switch sc.Tag {
		case atagSession, atagCreate, atagRoom, atagResume, atagLeave:
			return nil, frameBadf("record %d outside the routing prefix", sc.Tag)
		case atagBaseSeq:
			v, err := r.Uvarint()
			if err != nil || v > math.MaxInt64 {
				return nil, frameBadf("malformed base seq")
			}
			req.BaseSeq = int64(v)
		case atagSeenEvents:
			if req.SeenEvents, err = r.Int(); err != nil {
				return nil, frameBadf("malformed seen-events")
			}
		case atagSeenMessages:
			if req.SeenMessages, err = r.Int(); err != nil {
				return nil, frameBadf("malformed seen-messages")
			}
		case atagAct:
			if len(req.Acts) >= maxFrameActs {
				return nil, frameBadf("more than %d acts in one frame", maxFrameActs)
			}
			if req.leaves() {
				return nil, frameBadf("act after a leave")
			}
			var a ActRequest
			k, err := r.Uvarint()
			if err != nil {
				return nil, frameBadf("act: malformed kind")
			}
			if a.Kind = kindOfWire(k); a.Kind == "" {
				return nil, frameBadf("act: unknown kind %d", k)
			}
			if a.Object, err = r.Str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Item, err = r.Str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.X, err = r.Zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Y, err = r.Zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Quiz, err = r.Str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Choice, err = r.Zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Ticks, err = r.Int(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			req.Acts = append(req.Acts, a)
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, frameBadf("%v", err)
	}
	if rt.session == "" {
		return nil, frameBadf("missing session id")
	}
	if len(req.Acts) == 0 && rt.create == "" && !rt.resume {
		return nil, frameBadf("empty act batch")
	}
	if rt.leave != req.leaves() {
		return nil, frameBadf("leave record and last act disagree")
	}
	req.Session, req.Create, req.Room, req.Resume = rt.session, rt.create, rt.room, rt.resume
	return req, nil
}

// frameRoute is what a gateway reads off an act frame: the session it
// routes on and its ops — a create it counts, a resume it sweeps for, and
// the leave the full parse holds to the batch's last act.
type frameRoute struct {
	session string
	create  string // the course a create opens the session on
	room    bool   // the create opens a room (the gateway routes it like any create)
	resume  bool
	leave   bool
}

// take folds the record at index i into the route while it is part of the
// routing prefix — the session id, then a create (and its room record) or
// a resume, then a leave, each at most once — and reports false at the
// first record past it. The full parse and the gateway's prefix parse both
// run it, so they agree on every frame the full parse accepts.
func (rt *frameRoute) take(i int, tag uint64, payload []byte) (bool, error) {
	switch {
	case i == 0:
		if tag != atagSession || len(payload) == 0 {
			return false, frameBadf("first record must be the session id")
		}
		rt.session = string(payload)
	case tag == atagCreate && i == 1:
		if len(payload) == 0 {
			return false, frameBadf("create names no course")
		}
		rt.create = string(payload)
	case tag == atagRoom && i == 2 && rt.create != "":
		rt.room = true
	case tag == atagResume && i == 1:
		rt.resume = true
	case tag == atagLeave && !rt.leave:
		rt.leave = true
	default:
		return false, nil
	}
	return true, nil
}

// parseFrameRoute is the gateway's prefix parse: it reads the routing
// prefix WITHOUT validating the CRC or parsing the acts, so it touches a
// handful of header bytes no matter how large the batch is. The node, not
// the gateway, rejects a frame that is mangled past its prefix.
func parseFrameRoute(data []byte) (frameRoute, error) {
	var rt frameRoute
	sc := tagrec.Peek(data, actMagic, 1, frameVersion, maxFrameField)
	for i := 0; sc.Next(); i++ {
		more, err := rt.take(i, sc.Tag, sc.Payload)
		if err != nil {
			return frameRoute{}, err
		}
		if !more {
			return rt, nil
		}
	}
	if err := sc.Err(); err != nil {
		return frameRoute{}, frameBadf("%v", err)
	}
	if rt.session == "" {
		return frameRoute{}, frameBadf("missing session id")
	}
	return rt, nil
}

// --- reply frames ------------------------------------------------------------

// EncodeReplyFrame encodes a batch reply (per-act results + one coalesced
// tail) as a binary reply frame.
func EncodeReplyFrame(out *BatchReply) []byte {
	r := out.Reply
	b := tagrec.Begin(make([]byte, 0, 256), replyMagic, frameVersion)
	b = tagrec.Append(b, rtagSession, r.Session)
	b = tagrec.AppendUint(b, rtagTick, uint64(r.Tick))
	b = tagrec.AppendUint(b, rtagEventCount, uint64(r.EventCount))
	b = tagrec.AppendUint(b, rtagMessageCount, uint64(r.MessageCount))
	if r.Quiz != "" {
		b = tagrec.Append(b, rtagQuiz, r.Quiz)
	}
	if r.Resumed {
		b = tagrec.AppendUint(b, rtagFlags, rflagResumed)
	}
	if r.Course != "" {
		b = tagrec.Append(b, rtagCourse, r.Course)
		b = tagrec.AppendUint(b, rtagWidth, uint64(max(r.Width, 0)))
		b = tagrec.AppendUint(b, rtagHeight, uint64(max(r.Height, 0)))
		b = tagrec.AppendUint(b, rtagFPS, uint64(max(r.FPS, 0)))
	}
	if r.State != nil {
		var mark int
		b, mark = tagrec.BeginRecord(b, rtagState)
		b = tagrec.EndRecord(appendState(b, r.State), mark)
	}
	for i := range r.Events {
		b = runtime.AppendEvent(b, rtagEvent, &r.Events[i])
	}
	for _, m := range r.Messages {
		b = tagrec.Append(b, rtagMessage, m)
	}
	for _, res := range out.Results {
		b = tagrec.Append(b, rtagResult, []byte{res.bits()})
	}
	if out.ActErr != nil {
		b = appendActError(b, rtagError, out.ActErr)
	}
	return tagrec.Finish(b, 0)
}

// ParseReplyFrame parses a binary reply frame. Every rejection wraps
// ErrBadFrame.
func ParseReplyFrame(data []byte) (*BatchReply, error) {
	out := &BatchReply{Reply: &Reply{}}
	r := out.Reply
	var hasSession bool
	sc := tagrec.Open(data, replyMagic, 1, frameVersion, maxFrameField)
	for sc.Next() {
		payload := sc.Payload
		fr := tagrec.Reader{B: payload}
		var err error
		switch sc.Tag {
		case rtagSession:
			r.Session, hasSession = string(payload), true
		case rtagTick:
			if r.Tick, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed tick")
			}
		case rtagEventCount:
			if r.EventCount, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed event count")
			}
		case rtagMessageCount:
			if r.MessageCount, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed message count")
			}
		case rtagQuiz:
			r.Quiz = string(payload)
		case rtagFlags:
			v, err := fr.Uvarint()
			if err != nil {
				return nil, frameBadf("malformed flags")
			}
			r.Resumed = v&rflagResumed != 0
		case rtagCourse:
			r.Course = string(payload)
		case rtagWidth:
			if r.Width, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed width")
			}
		case rtagHeight:
			if r.Height, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed height")
			}
		case rtagFPS:
			if r.FPS, err = fr.Int(); err != nil {
				return nil, frameBadf("malformed fps")
			}
		case rtagState:
			if r.State, err = decodeState(payload); err != nil {
				return nil, err
			}
		case rtagEvent:
			e, err := readEvent(payload)
			if err != nil {
				return nil, err
			}
			r.Events = append(r.Events, e)
		case rtagMessage:
			r.Messages = append(r.Messages, string(payload))
		case rtagResult:
			if len(payload) != 1 {
				return nil, frameBadf("result record is %d bytes", len(payload))
			}
			if len(out.Results) >= maxFrameActs {
				return nil, frameBadf("more than %d results in one frame", maxFrameActs)
			}
			out.Results = append(out.Results, resultFromBits(payload[0]))
		case rtagError:
			if out.ActErr, err = readActError(payload); err != nil {
				return nil, err
			}
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, frameBadf("%v", err)
	}
	if !hasSession || r.Session == "" {
		return nil, frameBadf("missing session id")
	}
	return out, nil
}

// --- state codec -------------------------------------------------------------

// sortedKeys returns map keys in sorted order so encoded frames are
// deterministic (handy for tests and content-addressed storage).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func appendBoolMap(b []byte, m map[string]bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for _, k := range sortedKeys(m) {
		b = tagrec.AppendStr(b, k)
		b = tagrec.AppendBool(b, m[k])
	}
	return b
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = tagrec.AppendStr(b, s)
	}
	return b
}

// appendState encodes a game state for the reply frame — the hand-rolled
// replacement for the reflection-driven JSON marshal on the act hot path.
func appendState(b []byte, s *core.State) []byte {
	b = tagrec.AppendStr(b, s.Scenario)
	b = appendStrs(b, s.Inventory)
	b = appendBoolMap(b, s.Flags)
	b = binary.AppendUvarint(b, uint64(len(s.Vars)))
	for _, k := range sortedKeys(s.Vars) {
		b = tagrec.AppendStr(b, k)
		b = tagrec.AppendZigzag(b, int64(s.Vars[k]))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Visited)))
	for _, k := range sortedKeys(s.Visited) {
		b = tagrec.AppendStr(b, k)
		b = binary.AppendUvarint(b, uint64(max(s.Visited[k], 0)))
	}
	b = appendBoolMap(b, s.Learned)
	b = appendStrs(b, s.Rewards)
	b = appendBoolMap(b, s.Hidden)
	b = tagrec.AppendBool(b, s.Ended)
	b = tagrec.AppendStr(b, s.Outcome)
	return b
}

func readBoolMap(r *tagrec.Reader) (map[string]bool, error) {
	n, err := r.Count(maxFrameField)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		k, err := r.Str()
		if err != nil {
			return nil, err
		}
		v, err := r.Bool()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func readStrs(r *tagrec.Reader) ([]string, error) {
	n, err := r.Count(maxFrameField)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.Str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeState(payload []byte) (*core.State, error) {
	r := &tagrec.Reader{B: payload}
	s := &core.State{}
	var err error
	fail := func(what string, err error) (*core.State, error) {
		return nil, frameBadf("state %s: %v", what, err)
	}
	if s.Scenario, err = r.Str(); err != nil {
		return fail("scenario", err)
	}
	if s.Inventory, err = readStrs(r); err != nil {
		return fail("inventory", err)
	}
	if s.Flags, err = readBoolMap(r); err != nil {
		return fail("flags", err)
	}
	n, err := r.Count(maxFrameField)
	if err != nil {
		return fail("vars", err)
	}
	if n > 0 {
		s.Vars = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return fail("vars", err)
			}
			v, err := r.Zigzag()
			if err != nil {
				return fail("vars", err)
			}
			s.Vars[k] = v
		}
	}
	if n, err = r.Count(maxFrameField); err != nil {
		return fail("visited", err)
	}
	if n > 0 {
		s.Visited = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return fail("visited", err)
			}
			v, err := r.Int()
			if err != nil {
				return fail("visited", err)
			}
			s.Visited[k] = v
		}
	}
	if s.Learned, err = readBoolMap(r); err != nil {
		return fail("learned", err)
	}
	if s.Rewards, err = readStrs(r); err != nil {
		return fail("rewards", err)
	}
	if s.Hidden, err = readBoolMap(r); err != nil {
		return fail("hidden", err)
	}
	if s.Ended, err = r.Bool(); err != nil {
		return fail("ended", err)
	}
	if s.Outcome, err = r.Str(); err != nil {
		return fail("outcome", err)
	}
	if !r.Empty() {
		return nil, frameBadf("state: %d trailing bytes", len(r.B))
	}
	return s, nil
}
