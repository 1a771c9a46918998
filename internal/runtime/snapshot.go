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
	"encoding/json"
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

// Snapshot wire format: a tagrec container.
const (
	snapMagic   = "VSNP"
	snapVersion = 1

	// Record tags. A record is (uvarint tag, uvarint length, payload).
	// Unknown tags are skipped on decode so version-1 readers tolerate
	// additive extensions; required tags missing is a rejection.
	tagVideoSum = 1  // sha256 of the package video (binds snapshot to footage)
	tagState    = 2  // core.State as canonical JSON
	tagTick     = 3  // uvarint tick clock
	tagSelected = 4  // inventory item armed for use
	tagNPCPos   = 5  // JSON map[string]int dialogue positions
	tagMessages = 6  // JSON []string say transcript
	tagPopups   = 7  // JSON [][2]string queued popups
	tagOpened   = 8  // JSON []string opened web resources
	tagQuizzes  = 9  // JSON []string pending quiz ids, FIFO
	tagSegment  = 10 // cursor segment (chapter name)
	tagCursor   = 11 // uvarint absolute frame index within the segment

	// maxSnapshotField bounds any single decoded field so a corrupt length
	// cannot ask for gigabytes before validation has a chance to reject.
	maxSnapshotField = 64 << 20
)

// mustJSON marshals snapshot fields, all of which are plain slices and
// maps of strings/ints that cannot fail to encode. encoding/json sorts map
// keys, which is what makes the snapshot bytes deterministic.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("runtime: snapshot field marshal: " + err.Error())
	}
	return b
}

// Snapshot serializes the session's complete resumable state. The caller
// must not be inside an event script (every public session method returns
// before Snapshot can run, so this only concerns future internal callers).
func (s *Session) Snapshot() []byte {
	b := tagrec.Begin(make([]byte, 0, 512), snapMagic, snapVersion)
	sum := s.pkg.VideoSum()
	b = tagrec.Append(b, tagVideoSum, sum[:])
	b = tagrec.Append(b, tagState, mustJSON(s.state))
	b = tagrec.AppendUint(b, tagTick, uint64(s.tick))
	if s.selected != "" {
		b = tagrec.Append(b, tagSelected, s.selected)
	}
	if len(s.npcPos) > 0 {
		b = tagrec.Append(b, tagNPCPos, mustJSON(s.npcPos))
	}
	if len(s.messages) > 0 {
		b = tagrec.Append(b, tagMessages, mustJSON(s.messages))
	}
	if len(s.popups) > 0 {
		b = tagrec.Append(b, tagPopups, mustJSON(s.popups))
	}
	if len(s.opened) > 0 {
		b = tagrec.Append(b, tagOpened, mustJSON(s.opened))
	}
	if len(s.quizzes) > 0 {
		b = tagrec.Append(b, tagQuizzes, mustJSON(s.quizzes))
	}
	b = tagrec.Append(b, tagSegment, s.cursor.Segment().Name)
	b = tagrec.AppendUint(b, tagCursor, uint64(s.cursor.Pos()))
	return tagrec.Finish(b, 0)
}

// snapshotData is a fully-decoded snapshot, validated before any of it is
// applied to a session.
type snapshotData struct {
	videoSum []byte
	stateRaw []byte
	tick     int
	selected string
	npcPos   map[string]int
	messages []string
	popups   [][2]string
	opened   []string
	quizzes  []string
	segment  string
	cursor   int

	hasState, hasSegment, hasCursor bool
}

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// snapInt reads a record that is one int32-bounded uvarint and nothing else.
func snapInt(payload []byte) (int, error) {
	v, err := tagrec.Uint(payload, math.MaxInt32)
	if err != nil {
		return 0, badf("malformed integer record")
	}
	return int(v), nil
}

func snapJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return badf("field JSON: %v", err)
	}
	return nil
}

// decodeSnapshot parses and structurally validates snapshot bytes. Every
// failure wraps ErrBadSnapshot; nothing is applied anywhere.
func decodeSnapshot(snap []byte) (*snapshotData, error) {
	d := &snapshotData{}
	sc := tagrec.Open(snap, snapMagic, 1, snapVersion, maxSnapshotField)
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
			d.stateRaw, d.hasState = payload, true
		case tagTick:
			d.tick, err = snapInt(payload)
		case tagSelected:
			d.selected = string(payload)
		case tagNPCPos:
			err = snapJSON(payload, &d.npcPos)
		case tagMessages:
			err = snapJSON(payload, &d.messages)
		case tagPopups:
			err = snapJSON(payload, &d.popups)
		case tagOpened:
			err = snapJSON(payload, &d.opened)
		case tagQuizzes:
			err = snapJSON(payload, &d.quizzes)
		case tagSegment:
			d.segment, d.hasSegment = string(payload), true
		case tagCursor:
			d.cursor, err = snapInt(payload)
			d.hasCursor = err == nil
		default:
			// Unknown tag: an additive extension from a newer writer; skip.
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, badf("%v", err)
	}
	if d.videoSum == nil || !d.hasState || !d.hasSegment || !d.hasCursor {
		return nil, badf("missing required fields")
	}
	for npc, pos := range d.npcPos {
		if pos < 0 {
			return nil, badf("negative dialogue position for %q", npc)
		}
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
	state, err := core.LoadState(d.stateRaw)
	if err != nil {
		return nil, badf("state: %v", err)
	}
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
	s.npcPos = map[string]int{}
	for k, v := range d.npcPos {
		s.npcPos[k] = v
	}
	s.messages = append([]string(nil), d.messages...)
	s.popups = append([][2]string(nil), d.popups...)
	s.opened = append([]string(nil), d.opened...)
	s.quizzes = append([]string(nil), d.quizzes...)
	return s, nil
}
