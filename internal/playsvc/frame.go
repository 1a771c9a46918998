// Binary wire framing for the act path: the one format acts travel in
// (POST /play/act is a JSON debug adapter over the same batch).
//
// A frame is the same tagged-record shape as the snapshot envelope: magic,
// uvarint version, (uvarint tag, uvarint length, payload)* records, and a
// CRC32-IEEE trailer. Request frames ("VACT") carry a whole act batch —
// the session id rides in the FIRST record so a gateway can route the
// frame without parsing (or re-encoding) the rest; reply frames ("VRPL")
// carry per-act results plus ONE coalesced state/event/message tail, so a
// batch of N acts costs one state snapshot instead of N.
//
// Every parse rejection wraps ErrBadFrame, and all lengths are validated
// against the remaining input before any allocation — the same hostile-
// input bar FuzzRestoreSession pins for snapshots, here pinned by
// FuzzParseActFrame.
package playsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/runtime"
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

// Act-frame record tags.
const (
	atagSession      = 1 // string; MUST be the first record (gateway routing)
	atagBaseSeq      = 2 // uvarint
	atagSeenEvents   = 3 // uvarint
	atagSeenMessages = 4 // uvarint
	atagAct          = 5 // repeated, one per act, batch order
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

// wireKind maps an act kind to its wire enum (0 = unknown). ActLeave has
// no wire form on purpose: a leave ends the session and must stay a
// single JSON act so its confirmation semantics are never batched.
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
	}
	return ""
}

func frameBadf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// --- encoding helpers --------------------------------------------------------

func frameAppend(b []byte, tag uint64, payload []byte) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- decoding helpers --------------------------------------------------------

// frameReader consumes one record payload (or a whole frame body).
type frameReader struct{ b []byte }

func (r *frameReader) empty() bool { return len(r.b) == 0 }

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, frameBadf("malformed varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a non-negative int bounded by both limit and the bytes that
// remain (each counted element needs at least one byte), so a hostile
// count cannot drive a large allocation.
func (r *frameReader) count(limit int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) || v > uint64(len(r.b)) {
		return 0, frameBadf("count %d exceeds bounds", v)
	}
	return int(v), nil
}

func (r *frameReader) zigzag() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	dec := int64(v>>1) ^ -int64(v&1)
	if dec > math.MaxInt32 || dec < math.MinInt32 {
		return 0, frameBadf("integer %d out of range", dec)
	}
	return int(dec), nil
}

func (r *frameReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) {
		return "", frameBadf("string claims %d bytes, %d remain", n, len(r.b))
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *frameReader) bool() (bool, error) {
	if len(r.b) == 0 {
		return false, frameBadf("truncated bool")
	}
	v := r.b[0] != 0
	r.b = r.b[1:]
	return v, nil
}

func (r *frameReader) intBounded() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, frameBadf("value %d out of range", v)
	}
	return int(v), nil
}

// frameBody validates magic, version and CRC and returns the record
// region, shared by both frame parsers.
func frameBody(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+1+4 {
		return nil, frameBadf("truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, frameBadf("bad magic")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, frameBadf("checksum mismatch")
	}
	rest := body[len(magic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, frameBadf("malformed version")
	}
	if version == 0 || version > frameVersion {
		return nil, frameBadf("unsupported version %d", version)
	}
	return rest[n:], nil
}

// nextRecord pops one (tag, payload) record off rest.
func nextRecord(rest []byte) (tag uint64, payload, tail []byte, err error) {
	tag, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, frameBadf("malformed record tag")
	}
	rest = rest[n:]
	size, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, frameBadf("malformed record length")
	}
	rest = rest[n:]
	if size > maxFrameField || size > uint64(len(rest)) {
		return 0, nil, nil, frameBadf("record %d claims %d bytes, %d remain", tag, size, len(rest))
	}
	return tag, rest[:size], rest[size:], nil
}

// --- act frames --------------------------------------------------------------

// EncodeActFrame encodes a batch request as a binary act frame. Only the
// act fields the wire carries (kind, object, item, x, y, quiz, choice,
// ticks) survive; session/seq/seen ride the frame header.
func EncodeActFrame(req *BatchRequest) []byte {
	b := make([]byte, 0, 64+32*len(req.Acts))
	b = append(b, actMagic...)
	b = binary.AppendUvarint(b, frameVersion)
	// The session record leads so a gateway can route on a prefix parse.
	b = frameAppend(b, atagSession, []byte(req.Session))
	b = frameAppend(b, atagBaseSeq, binary.AppendUvarint(nil, uint64(req.BaseSeq)))
	b = frameAppend(b, atagSeenEvents, binary.AppendUvarint(nil, uint64(req.SeenEvents)))
	b = frameAppend(b, atagSeenMessages, binary.AppendUvarint(nil, uint64(req.SeenMessages)))
	var scratch []byte
	for i := range req.Acts {
		a := &req.Acts[i]
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, wireKind(a.Kind))
		scratch = appendStr(scratch, a.Object)
		scratch = appendStr(scratch, a.Item)
		scratch = appendZigzag(scratch, int64(a.X))
		scratch = appendZigzag(scratch, int64(a.Y))
		scratch = appendStr(scratch, a.Quiz)
		scratch = appendZigzag(scratch, int64(a.Choice))
		scratch = binary.AppendUvarint(scratch, uint64(max(a.Ticks, 0)))
		b = frameAppend(b, atagAct, scratch)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// ParseActFrame parses a binary act frame into a batch request. Every
// rejection wraps ErrBadFrame; hostile lengths and counts are bounded
// before allocation.
func ParseActFrame(data []byte) (*BatchRequest, error) {
	rest, err := frameBody(data, actMagic)
	if err != nil {
		return nil, err
	}
	req := &BatchRequest{}
	first, hasSession := true, false
	for len(rest) > 0 {
		var tag uint64
		var payload []byte
		tag, payload, rest, err = nextRecord(rest)
		if err != nil {
			return nil, err
		}
		if first && tag != atagSession {
			return nil, frameBadf("first record must be the session id")
		}
		first = false
		r := frameReader{payload}
		switch tag {
		case atagSession:
			if hasSession {
				return nil, frameBadf("duplicate session record")
			}
			req.Session, hasSession = string(payload), true
		case atagBaseSeq:
			v, err := r.uvarint()
			if err != nil || v > math.MaxInt64 {
				return nil, frameBadf("malformed base seq")
			}
			req.BaseSeq = int64(v)
		case atagSeenEvents:
			if req.SeenEvents, err = r.intBounded(); err != nil {
				return nil, frameBadf("malformed seen-events")
			}
		case atagSeenMessages:
			if req.SeenMessages, err = r.intBounded(); err != nil {
				return nil, frameBadf("malformed seen-messages")
			}
		case atagAct:
			if len(req.Acts) >= maxFrameActs {
				return nil, frameBadf("more than %d acts in one frame", maxFrameActs)
			}
			var a ActRequest
			k, err := r.uvarint()
			if err != nil {
				return nil, frameBadf("act: malformed kind")
			}
			if a.Kind = kindOfWire(k); a.Kind == "" {
				return nil, frameBadf("act: unknown kind %d", k)
			}
			if a.Object, err = r.str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Item, err = r.str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.X, err = r.zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Y, err = r.zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Quiz, err = r.str(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Choice, err = r.zigzag(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			if a.Ticks, err = r.intBounded(); err != nil {
				return nil, frameBadf("act: %v", err)
			}
			req.Acts = append(req.Acts, a)
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if !hasSession || req.Session == "" {
		return nil, frameBadf("missing session id")
	}
	if len(req.Acts) == 0 {
		return nil, frameBadf("empty act batch")
	}
	return req, nil
}

// frameSessionID extracts the routing key from an act frame WITHOUT
// validating the CRC or parsing the acts — the gateway's prefix parse.
// The session id is required to be the first record, so this touches a
// handful of header bytes no matter how large the batch is.
func frameSessionID(data []byte) (string, error) {
	if len(data) < len(actMagic)+1 || string(data[:len(actMagic)]) != actMagic {
		return "", frameBadf("bad magic")
	}
	rest := data[len(actMagic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 || version == 0 || version > frameVersion {
		return "", frameBadf("unsupported version")
	}
	tag, payload, _, err := nextRecord(rest[n:])
	if err != nil {
		return "", err
	}
	if tag != atagSession || len(payload) == 0 {
		return "", frameBadf("first record must be the session id")
	}
	return string(payload), nil
}

// --- reply frames ------------------------------------------------------------

// EncodeReplyFrame encodes a batch reply (per-act results + one coalesced
// tail) as a binary reply frame.
func EncodeReplyFrame(out *BatchReply) []byte {
	r := out.Reply
	b := make([]byte, 0, 256)
	b = append(b, replyMagic...)
	b = binary.AppendUvarint(b, frameVersion)
	b = frameAppend(b, rtagSession, []byte(r.Session))
	b = frameAppend(b, rtagTick, binary.AppendUvarint(nil, uint64(r.Tick)))
	b = frameAppend(b, rtagEventCount, binary.AppendUvarint(nil, uint64(r.EventCount)))
	b = frameAppend(b, rtagMessageCount, binary.AppendUvarint(nil, uint64(r.MessageCount)))
	if r.Quiz != "" {
		b = frameAppend(b, rtagQuiz, []byte(r.Quiz))
	}
	if r.Resumed {
		b = frameAppend(b, rtagFlags, binary.AppendUvarint(nil, rflagResumed))
	}
	if r.State != nil {
		b = frameAppend(b, rtagState, appendState(nil, r.State))
	}
	var scratch []byte
	for i := range r.Events {
		e := &r.Events[i]
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(max(e.Tick, 0)))
		scratch = appendStr(scratch, e.Kind)
		scratch = appendStr(scratch, e.Detail)
		b = frameAppend(b, rtagEvent, scratch)
	}
	for _, m := range r.Messages {
		b = frameAppend(b, rtagMessage, []byte(m))
	}
	for _, res := range out.Results {
		b = frameAppend(b, rtagResult, []byte{res.bits()})
	}
	if out.ActErr != nil {
		scratch = binary.AppendUvarint(nil, uint64(out.ActErr.Status))
		scratch = binary.AppendUvarint(scratch, uint64(max(out.ActErr.RetryAfter, 0)))
		scratch = appendStr(scratch, out.ActErr.Msg)
		b = frameAppend(b, rtagError, scratch)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// ParseReplyFrame parses a binary reply frame. Every rejection wraps
// ErrBadFrame.
func ParseReplyFrame(data []byte) (*BatchReply, error) {
	rest, err := frameBody(data, replyMagic)
	if err != nil {
		return nil, err
	}
	out := &BatchReply{Reply: &Reply{}}
	r := out.Reply
	var hasSession bool
	for len(rest) > 0 {
		var tag uint64
		var payload []byte
		tag, payload, rest, err = nextRecord(rest)
		if err != nil {
			return nil, err
		}
		fr := frameReader{payload}
		switch tag {
		case rtagSession:
			r.Session, hasSession = string(payload), true
		case rtagTick:
			if r.Tick, err = fr.intBounded(); err != nil {
				return nil, frameBadf("malformed tick")
			}
		case rtagEventCount:
			if r.EventCount, err = fr.intBounded(); err != nil {
				return nil, frameBadf("malformed event count")
			}
		case rtagMessageCount:
			if r.MessageCount, err = fr.intBounded(); err != nil {
				return nil, frameBadf("malformed message count")
			}
		case rtagQuiz:
			r.Quiz = string(payload)
		case rtagFlags:
			v, err := fr.uvarint()
			if err != nil {
				return nil, frameBadf("malformed flags")
			}
			r.Resumed = v&rflagResumed != 0
		case rtagState:
			if r.State, err = decodeState(payload); err != nil {
				return nil, err
			}
		case rtagEvent:
			var e runtime.Event
			if e.Tick, err = fr.intBounded(); err != nil {
				return nil, frameBadf("event: %v", err)
			}
			if e.Kind, err = fr.str(); err != nil {
				return nil, frameBadf("event: %v", err)
			}
			if e.Detail, err = fr.str(); err != nil {
				return nil, frameBadf("event: %v", err)
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
			e := &Error{}
			status, err := fr.uvarint()
			if err != nil || status < 100 || status > 999 {
				return nil, frameBadf("malformed error status")
			}
			e.Status = int(status)
			after, err := fr.uvarint()
			if err != nil || after > math.MaxInt32 {
				return nil, frameBadf("malformed error retry-after")
			}
			e.RetryAfter = int(after)
			if e.Msg, err = fr.str(); err != nil {
				return nil, frameBadf("malformed error message")
			}
			out.ActErr = e
		default:
			// Additive extension from a newer writer; skip.
		}
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
		b = appendStr(b, k)
		b = appendBool(b, m[k])
	}
	return b
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// appendState encodes a game state for the reply frame — the hand-rolled
// replacement for the reflection-driven JSON marshal on the act hot path.
func appendState(b []byte, s *core.State) []byte {
	b = appendStr(b, s.Scenario)
	b = appendStrs(b, s.Inventory)
	b = appendBoolMap(b, s.Flags)
	b = binary.AppendUvarint(b, uint64(len(s.Vars)))
	for _, k := range sortedKeys(s.Vars) {
		b = appendStr(b, k)
		b = appendZigzag(b, int64(s.Vars[k]))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Visited)))
	for _, k := range sortedKeys(s.Visited) {
		b = appendStr(b, k)
		b = binary.AppendUvarint(b, uint64(max(s.Visited[k], 0)))
	}
	b = appendBoolMap(b, s.Learned)
	b = appendStrs(b, s.Rewards)
	b = appendBoolMap(b, s.Hidden)
	b = appendBool(b, s.Ended)
	b = appendStr(b, s.Outcome)
	return b
}

func (r *frameReader) boolMap() (map[string]bool, error) {
	n, err := r.count(maxFrameField)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.bool()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *frameReader) strs() ([]string, error) {
	n, err := r.count(maxFrameField)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeState(payload []byte) (*core.State, error) {
	r := frameReader{payload}
	s := &core.State{}
	var err error
	fail := func(what string, err error) (*core.State, error) {
		return nil, frameBadf("state %s: %v", what, err)
	}
	if s.Scenario, err = r.str(); err != nil {
		return fail("scenario", err)
	}
	if s.Inventory, err = r.strs(); err != nil {
		return fail("inventory", err)
	}
	if s.Flags, err = r.boolMap(); err != nil {
		return fail("flags", err)
	}
	n, err := r.count(maxFrameField)
	if err != nil {
		return fail("vars", err)
	}
	if n > 0 {
		s.Vars = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return fail("vars", err)
			}
			v, err := r.zigzag()
			if err != nil {
				return fail("vars", err)
			}
			s.Vars[k] = v
		}
	}
	if n, err = r.count(maxFrameField); err != nil {
		return fail("visited", err)
	}
	if n > 0 {
		s.Visited = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k, err := r.str()
			if err != nil {
				return fail("visited", err)
			}
			v, err := r.intBounded()
			if err != nil {
				return fail("visited", err)
			}
			s.Visited[k] = v
		}
	}
	if s.Learned, err = r.boolMap(); err != nil {
		return fail("learned", err)
	}
	if s.Rewards, err = r.strs(); err != nil {
		return fail("rewards", err)
	}
	if s.Hidden, err = r.boolMap(); err != nil {
		return fail("hidden", err)
	}
	if s.Ended, err = r.bool(); err != nil {
		return fail("ended", err)
	}
	if s.Outcome, err = r.str(); err != nil {
		return fail("outcome", err)
	}
	if !r.empty() {
		return nil, frameBadf("state: %d trailing bytes", len(r.b))
	}
	return s, nil
}
