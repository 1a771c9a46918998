// Snapshot/restore: a durable, versioned binary encoding of everything a
// Session needs to resume exactly where it stopped — scenario and video
// cursor, inventory/flag/quiz state, NPC conversation positions, the say
// transcript, queued popups, opened resources and the tick clock. The
// encoding is deterministic (identical logical states produce identical
// bytes) and self-describing (an internal/tagrec container: tagged records
// guarded by a checksum), so a newer writer can add fields without
// stranding older snapshots.
//
// The equivalence contract is the golden-replay one: run a trace halfway,
// Snapshot, restore on a fresh session (or another process), finish the
// trace — event logs, transcript and final state must be bit-identical to
// the uninterrupted run. The play service nests these bytes in its session
// envelope so hosted sessions survive eviction, deploys and node churn.
package runtime

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/tagrec"
)

// ErrBadSnapshot is wrapped by every snapshot rejection: truncated,
// corrupted, version-skewed or semantically invalid (unknown scenario,
// cursor outside its segment, pending quiz the course does not define).
// Restoration is all-or-nothing — a rejected snapshot never yields a
// partially-restored session.
var ErrBadSnapshot = errors.New("runtime: bad snapshot")

// Snapshot wire format: a tagrec container. Version 2 stores the game
// state as the bytes an act reply carries (StateEncoder) and its lists and
// maps count-prefixed; version 1 (JSON fields) is refused. A snapshot
// never outlives the process that wrote it — the play service's directory
// is in memory — so only the current version decodes.
const (
	snapMagic   = "VSNP"
	snapVersion = 2

	// Record tags. A record is (uvarint tag, uvarint length, payload).
	// Unknown tags are skipped on decode so readers tolerate additive
	// extensions; required tags missing is a rejection. Tags 5–9 are
	// written only when non-empty.
	tagVideoSum = 1  // sha256 of the package video (binds snapshot to footage)
	tagState    = 2  // core.State, StateEncoder's bytes
	tagTick     = 3  // uvarint tick clock
	tagSelected = 4  // inventory item armed for use
	tagNPCPos   = 5  // dialogue positions: count, (str npc, uvarint pos)*, sorted
	tagMessages = 6  // say transcript: count, str*
	tagPopups   = 7  // queued popups: count, (str kind, str content)*
	tagOpened   = 8  // opened web resources: count, str*
	tagQuizzes  = 9  // pending quiz ids, FIFO: count, str*
	tagSegment  = 10 // cursor segment (chapter name)
	tagCursor   = 11 // uvarint absolute frame index within the segment

	// maxSnapshotField bounds any single decoded field so a corrupt length
	// cannot ask for gigabytes before validation has a chance to reject.
	maxSnapshotField = 64 << 20
)

// Snapshot serializes the session's complete resumable state. The caller
// must not be inside an event script (every public session method returns
// before Snapshot can run, so this only concerns future internal callers).
func (s *Session) Snapshot() []byte {
	var enc StateEncoder
	b := tagrec.Begin(make([]byte, 0, 512), snapMagic, snapVersion)
	sum := s.pkg.VideoSum()
	b = tagrec.Append(b, tagVideoSum, sum[:])
	b, mark := tagrec.BeginRecord(b, tagState)
	b = tagrec.EndRecord(enc.AppendState(b, s.state), mark)
	b = tagrec.AppendUint(b, tagTick, uint64(s.tick))
	if s.selected != "" {
		b = tagrec.Append(b, tagSelected, s.selected)
	}
	if len(s.npcPos) > 0 {
		b, mark = tagrec.BeginRecord(b, tagNPCPos)
		b = tagrec.EndRecord(appendMap(&enc, b, s.npcPos, appendCount), mark)
	}
	b = appendStrsRecord(b, tagMessages, s.messages)
	if len(s.popups) > 0 {
		b, mark = tagrec.BeginRecord(b, tagPopups)
		b = binary.AppendUvarint(b, uint64(len(s.popups)))
		for _, p := range s.popups {
			b = tagrec.AppendStr(tagrec.AppendStr(b, p[0]), p[1])
		}
		b = tagrec.EndRecord(b, mark)
	}
	b = appendStrsRecord(b, tagOpened, s.opened)
	b = appendStrsRecord(b, tagQuizzes, s.quizzes)
	b = tagrec.Append(b, tagSegment, s.cursor.Segment().Name)
	b = tagrec.AppendUint(b, tagCursor, uint64(s.cursor.Pos()))
	return tagrec.Finish(b, 0)
}

// appendStrsRecord appends a record holding ss, count-prefixed, unless ss
// is empty.
func appendStrsRecord(b []byte, tag uint64, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b, mark := tagrec.BeginRecord(b, tag)
	return tagrec.EndRecord(appendStrs(b, ss), mark)
}

// snapshotData is a fully-decoded snapshot, validated before any of it is
// applied to a session.
type snapshotData struct {
	videoSum []byte
	state    *core.State
	tick     int
	selected string
	npcPos   map[string]int
	messages []string
	popups   [][2]string
	opened   []string
	quizzes  []string
	segment  string
	cursor   int

	hasSegment, hasCursor bool
}

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// snapInt reads a record that is one int32-bounded uvarint and nothing else.
func snapInt(payload []byte) (int, error) {
	v, err := tagrec.Uint(payload, math.MaxInt32)
	return int(v), err
}

// readAll decodes one record's payload with read, which must consume all
// of it.
func readAll[T any](payload []byte, read func(*tagrec.Reader) (T, error)) (T, error) {
	r := tagrec.Reader{B: payload}
	v, err := read(&r)
	if err == nil && !r.Empty() {
		err = fmt.Errorf("%d trailing bytes", len(r.B))
	}
	return v, err
}

// orEmpty is m, or an empty map when m is nil.
func orEmpty[V any](m map[string]V) map[string]V {
	if m == nil {
		return map[string]V{}
	}
	return m
}

func readCounts(r *tagrec.Reader) (map[string]int, error) {
	return readMap(r, (*tagrec.Reader).Int)
}

func readPopups(r *tagrec.Reader) ([][2]string, error) {
	n, err := r.Count(maxCount)
	if err != nil {
		return nil, err
	}
	out := make([][2]string, n)
	for i := range out {
		if out[i][0], err = r.Str(); err != nil {
			return nil, err
		}
		if out[i][1], err = r.Str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeSnapshot parses and structurally validates snapshot bytes. Every
// failure wraps ErrBadSnapshot; nothing is applied anywhere.
func decodeSnapshot(snap []byte) (*snapshotData, error) {
	d := &snapshotData{}
	sc := tagrec.Open(snap, snapMagic, snapVersion, snapVersion, maxSnapshotField)
	for sc.Next() {
		payload := sc.Payload
		var err error
		switch sc.Tag {
		case tagVideoSum:
			if len(payload) != sha256.Size {
				return nil, badf("video digest is %d bytes", len(payload))
			}
			d.videoSum = payload
		case tagState:
			d.state, err = DecodeState(payload)
		case tagTick:
			d.tick, err = snapInt(payload)
		case tagSelected:
			d.selected = string(payload)
		case tagNPCPos:
			d.npcPos, err = readAll(payload, readCounts)
		case tagMessages:
			d.messages, err = readAll(payload, readStrs)
		case tagPopups:
			d.popups, err = readAll(payload, readPopups)
		case tagOpened:
			d.opened, err = readAll(payload, readStrs)
		case tagQuizzes:
			d.quizzes, err = readAll(payload, readStrs)
		case tagSegment:
			d.segment, d.hasSegment = string(payload), true
		case tagCursor:
			d.cursor, err = snapInt(payload)
			d.hasCursor = err == nil
		default:
			// Unknown tag: an additive extension from a newer writer; skip.
		}
		if err != nil {
			return nil, badf("record %d: %v", sc.Tag, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, badf("%v", err)
	}
	if d.videoSum == nil || d.state == nil || !d.hasSegment || !d.hasCursor {
		return nil, badf("missing required fields")
	}
	return d, nil
}

// RestoreSessionFromPackage thaws a snapshot over an already-opened
// package: the session resumes at the recorded scenario, video frame,
// inventory, transcript and tick clock, without re-running any OnEnter
// script and without emitting events. The snapshot must have been taken
// against bit-identical footage (the embedded video digest is verified),
// so playback after restore is frame-exact. Every rejection wraps
// ErrBadSnapshot and leaves nothing allocated beyond the failed attempt.
func RestoreSessionFromPackage(pkg *gamepack.Package, snap []byte, opts Options) (*Session, error) {
	d, err := decodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	if sum := pkg.VideoSum(); string(sum[:]) != string(d.videoSum) {
		return nil, badf("snapshot was taken against different footage")
	}
	// A decoded empty map is nil, and the session writes into every one.
	state := d.state
	state.Flags, state.Learned, state.Hidden = orEmpty(state.Flags), orEmpty(state.Learned), orEmpty(state.Hidden)
	state.Vars, state.Visited = orEmpty(state.Vars), orEmpty(state.Visited)
	proj := pkg.Project
	sc := proj.ScenarioByID(state.Scenario)
	if sc == nil {
		return nil, badf("unknown scenario %q", state.Scenario)
	}
	for _, id := range d.quizzes {
		if proj.QuizByID(id) == nil {
			return nil, badf("pending quiz %q is not defined", id)
		}
	}
	if d.selected != "" && !state.HasItem(d.selected) {
		return nil, badf("selected item %q is not in the inventory", d.selected)
	}
	s, err := buildSession(pkg, opts)
	if err != nil {
		return nil, err
	}
	if err := s.cursor.EnterSegment(d.segment); err != nil {
		return nil, badf("cursor segment: %v", err)
	}
	if err := s.cursor.Seek(d.cursor); err != nil {
		return nil, badf("cursor position: %v", err)
	}
	s.state = state
	s.sink.State = state
	s.tick = d.tick
	s.selected = d.selected
	s.npcPos = orEmpty(d.npcPos)
	s.messages, s.popups, s.opened, s.quizzes = d.messages, d.popups, d.opened, d.quizzes
	return s, nil
}
