package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/tagrec"
)

// The classroom package, built and opened once for every test in the
// package.
var snapFixture = sync.OnceValues(func() (fx struct {
	blob []byte
	pkg  *gamepack.Package
}, err error) {
	if fx.blob, err = content.Classroom().BuildPackage(studio.Options{QStep: 8}); err == nil {
		fx.pkg, err = gamepack.Open(fx.blob)
	}
	return fx, err
})

func snapPackage(t testing.TB) []byte {
	t.Helper()
	fx, err := snapFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx.blob
}

// snapOpened is the same package opened, for the restores: a snapshot binds
// to its footage's digest, not to the *gamepack.Package it was taken on, so
// sessions built from the blob restore onto it.
func snapOpened(t testing.TB) *gamepack.Package {
	t.Helper()
	fx, err := snapFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx.pkg
}

// playFirstHalf drives a session through the first leg of the classroom
// mission, leaving rich mid-game state: inventory, dialogue positions,
// pending selection, transcript, tick clock, a non-start scenario.
func playFirstHalf(s *Session) {
	s.Talk("teacher")
	s.Talk("teacher")
	s.Examine("computer") // learn + quiz
	if q, ok := s.PendingQuiz(); ok {
		s.AnswerQuiz(q.ID, q.Answer)
	}
	s.Take("desk-coin")
	s.Advance(5)
	s.GotoScenario("market")
	s.Advance(3)
}

// playSecondHalf finishes the mission from the market.
func playSecondHalf(s *Session) {
	s.Take("stall-ram")
	if q, ok := s.PendingQuiz(); ok {
		s.AnswerQuiz(q.ID, q.Answer)
	}
	s.GotoScenario("classroom")
	s.Advance(2)
	s.UseItemOn("ram module", "computer")
	if q, ok := s.PendingQuiz(); ok {
		s.AnswerQuiz(q.ID, q.Answer)
	}
	s.Advance(4)
}

// TestSnapshotResumeEquivalence is the runtime half of the golden
// snapshot-fidelity contract: play half the mission, snapshot, restore on
// a fresh session, finish — the combined event log, the transcript and the
// final state must be identical to the uninterrupted run.
func TestSnapshotResumeEquivalence(t *testing.T) {
	blob := snapPackage(t)

	// Uninterrupted reference run.
	ref := &recorder{}
	full, err := NewSession(blob, Options{Observer: ref})
	if err != nil {
		t.Fatal(err)
	}
	playFirstHalf(full)
	playSecondHalf(full)

	// Interrupted run: first half, snapshot, restore, second half.
	firstRec := &recorder{}
	first, err := NewSession(blob, Options{Observer: firstRec})
	if err != nil {
		t.Fatal(err)
	}
	playFirstHalf(first)
	snap := first.Snapshot()

	secondRec := &recorder{}
	second, err := RestoreSessionFromPackage(snapOpened(t), snap, Options{Observer: secondRec})
	if err != nil {
		t.Fatal(err)
	}
	// Restore emits no events and re-runs no OnEnter.
	if len(secondRec.events) != 0 {
		t.Fatalf("restore emitted %d events: %v", len(secondRec.events), secondRec.events)
	}
	playSecondHalf(second)

	combined := append(append([]Event(nil), firstRec.events...), secondRec.events...)
	if !reflect.DeepEqual(combined, ref.events) {
		t.Fatalf("event logs diverge:\n got %v\nwant %v", combined, ref.events)
	}
	if !reflect.DeepEqual(second.Messages(), full.Messages()) {
		t.Fatalf("transcripts diverge:\n got %q\nwant %q", second.Messages(), full.Messages())
	}
	if got, want := stateBytes(second.State()), stateBytes(full.State()); !bytes.Equal(got, want) {
		t.Fatalf("final states diverge:\n got %+v\nwant %+v", second.State(), full.State())
	}
	if second.Ticks() != full.Ticks() {
		t.Fatalf("ticks = %d, want %d", second.Ticks(), full.Ticks())
	}
	if !second.Ended() || second.Outcome() != full.Outcome() {
		t.Fatalf("ended=%v outcome=%q", second.Ended(), second.Outcome())
	}
	if !reflect.DeepEqual(second.OpenedResources(), full.OpenedResources()) {
		t.Fatalf("opened resources diverge: %v vs %v", second.OpenedResources(), full.OpenedResources())
	}

	// The restored video cursor presents the exact frame the original
	// session would.
	wantFrame, err := full.Frame()
	if err != nil {
		t.Fatal(err)
	}
	gotFrame, err := second.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFrame.Pix, wantFrame.Pix) {
		t.Fatal("restored session renders a different frame")
	}
}

// TestSnapshotDeterministic: identical logical states encode to identical
// bytes — the property the content-addressed store's dedup rides on.
func TestSnapshotDeterministic(t *testing.T) {
	blob := snapPackage(t)
	make1 := func() []byte {
		s, err := NewSession(blob, Options{})
		if err != nil {
			t.Fatal(err)
		}
		playFirstHalf(s)
		return s.Snapshot()
	}
	a, b := make1(), make1()
	if !bytes.Equal(a, b) {
		t.Fatal("equal states produced different snapshot bytes")
	}
	// And back-to-back snapshots of one untouched session agree too.
	s, err := RestoreSessionFromPackage(snapOpened(t), a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Snapshot(), a) {
		t.Fatal("restore→snapshot is not a fixed point")
	}
}

// TestSnapshotSelectedItem covers the armed-item path (selection must be
// restored, and a selected item missing from the inventory is rejected).
func TestSnapshotSelectedItem(t *testing.T) {
	blob := snapPackage(t)
	s, err := NewSession(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Take("desk-coin")
	if err := s.SelectItem("coin"); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSessionFromPackage(snapOpened(t), s.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SelectedItem() != "coin" {
		t.Fatalf("selected = %q", r.SelectedItem())
	}
}

// corrupt returns a copy of snap transformed by fn.
func corrupt(snap []byte, fn func([]byte) []byte) []byte {
	return fn(append([]byte(nil), snap...))
}

// reseal recomputes the trailing CRC so structural corruptions are tested
// on their own merits rather than all failing the checksum gate.
func reseal(snap []byte) []byte {
	body := snap[:len(snap)-4]
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestRestoreRejectsCorruptSnapshots is the table-driven corruption suite:
// every rejection must wrap ErrBadSnapshot, and none may panic or produce
// a session.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	blob := snapPackage(t)
	s, err := NewSession(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	playFirstHalf(s)
	good := s.Snapshot()
	if _, err := RestoreSessionFromPackage(snapOpened(t), good, Options{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	// A snapshot of a different course's footage, for the digest check.
	otherCourse := content.Museum()
	otherVideo, err := otherCourse.RecordVideo(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := gamepack.Build(otherCourse.Project, otherVideo)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		snap []byte
	}{
		{"empty", nil},
		{"tiny", []byte("VS")},
		{"bad magic", corrupt(good, func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"truncated head", good[:6]},
		{"truncated middle", reseal(corrupt(good, func(b []byte) []byte { return b[:len(b)/2] }))},
		{"bit flip unsealed", corrupt(good, func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })},
		{"version zero", reseal(corrupt(good, func(b []byte) []byte { b[4] = 0; return b }))},
		{"version one", reseal(corrupt(good, func(b []byte) []byte { b[4] = 1; return b }))},
		{"version from the future", reseal(corrupt(good, func(b []byte) []byte { b[4] = 99; return b }))},
		{"record overruns buffer", reseal(corrupt(good, func(b []byte) []byte {
			// First record starts after magic+version: tag at 5, length at 6.
			b[6] = 0xff
			b[7] = 0xff
			return b
		}))},
		{"garbage", bytes.Repeat([]byte{0x5a}, 128)},
		{"wrong footage", func() []byte {
			o, err := NewSession(otherBlob, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return o.Snapshot()
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreSessionFromPackage(snapOpened(t), tc.snap, Options{})
			if err == nil {
				t.Fatal("corrupt snapshot restored")
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
		})
	}
}

// TestRestoreRejectsSemanticCorruption flips state inside otherwise
// well-formed snapshots: unknown scenarios, out-of-range cursors and
// undefined quizzes must all be rejected whole.
func TestRestoreRejectsSemanticCorruption(t *testing.T) {
	blob := snapPackage(t)
	s, err := NewSession(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	playFirstHalf(s)
	good := s.Snapshot()

	rewrite := func(tag uint64, payload []byte) []byte { return rewriteRecord(good, tag, payload) }
	state := stateBytes(s.State())
	nowhere := s.State().Clone()
	nowhere.Scenario = "nowhere"
	cases := []struct {
		name string
		snap []byte
	}{
		{"unknown scenario", rewrite(tagState, stateBytes(nowhere))},
		{"state truncated", rewrite(tagState, state[:len(state)-1])},
		{"state trailing bytes", rewrite(tagState, append(state[:len(state):len(state)], 0))},
		{"state count over-long", rewrite(tagState, binary.AppendUvarint(tagrec.AppendStr(nil, "classroom"), 1000))},
		{"unknown segment", rewrite(tagSegment, []byte("void"))},
		{"cursor out of range", rewrite(tagCursor, binary.AppendUvarint(nil, 1<<20))},
		{"undefined quiz", rewrite(tagQuizzes, appendStrs(nil, []string{"q-imaginary"}))},
		{"npc position over int32", rewrite(tagNPCPos, binary.AppendUvarint(tagrec.AppendStr(binary.AppendUvarint(nil, 1), "teacher"), 1<<31))},
		{"messages count over-long", rewrite(tagMessages, tagrec.AppendStr(binary.AppendUvarint(nil, 1000), "hello"))},
		{"messages trailing bytes", rewrite(tagMessages, append(appendStrs(nil, []string{"hello"}), 0))},
		{"popup cut in half", rewrite(tagPopups, tagrec.AppendStr(binary.AppendUvarint(nil, 1), "hint"))},
		{"selected item not carried", rewrite(tagSelected, []byte("phantom"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreSessionFromPackage(snapOpened(t), tc.snap, Options{})
			if err == nil {
				t.Fatal("semantically corrupt snapshot restored")
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
		})
	}
}

// rewriteRecord re-encodes a snapshot with one record's payload replaced
// (or added, if the snapshot has none).
func rewriteRecord(snap []byte, tag uint64, payload []byte) []byte {
	b := tagrec.Begin(nil, snapMagic, snapVersion)
	replaced := false
	for sc := tagrec.Open(snap, snapMagic, snapVersion, snapVersion, maxSnapshotField); sc.Next(); {
		p := sc.Payload
		if sc.Tag == tag {
			p, replaced = payload, true
		}
		b = tagrec.Append(b, sc.Tag, p)
	}
	if !replaced {
		b = tagrec.Append(b, tag, payload)
	}
	return tagrec.Finish(b, 0)
}

// stateBytes is a game state's one binary form, StateEncoder's.
func stateBytes(st *core.State) []byte {
	var enc StateEncoder
	return enc.Encode(st)
}

// TestRestoreMinimalState: a state record holding a scenario and nothing
// else — every list and map count 0 — restores, and every map of the
// restored state is usable, so a thawed session can set its first flag,
// var, visit, unit and visibility.
func TestRestoreMinimalState(t *testing.T) {
	s, err := NewSessionFromPackage(snapOpened(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	minimal := rewriteRecord(s.Snapshot(), tagState, stateBytes(&core.State{Scenario: "classroom"}))
	r, err := RestoreSessionFromPackage(snapOpened(t), minimal, Options{})
	if err != nil {
		t.Fatalf("minimal state refused: %v", err)
	}
	st := r.State()
	if st.Flags == nil || st.Vars == nil || st.Visited == nil || st.Learned == nil || st.Hidden == nil {
		t.Fatalf("restored state has a nil map: %+v", st)
	}
	r.Talk("teacher")
	r.Examine("computer")
	r.GotoScenario("market")
	if len(st.Flags) == 0 || st.Visited["market"] != 1 {
		t.Fatalf("the restored session did not play on: %+v", st)
	}
}

// FuzzRestoreSession hammers the decoder: any byte string must either
// restore a fully-valid session or be rejected with ErrBadSnapshot —
// never panic, never half-restore.
func FuzzRestoreSession(f *testing.F) {
	pkg := snapOpened(f)
	s, err := NewSessionFromPackage(pkg, Options{})
	if err != nil {
		f.Fatal(err)
	}
	fresh := s.Snapshot()
	playFirstHalf(s)
	mid := s.Snapshot()
	f.Add(fresh)
	f.Add(mid)
	f.Add(mid[:len(mid)-5])
	f.Add([]byte("VSNP"))
	f.Fuzz(func(t *testing.T, snap []byte) {
		sess, err := RestoreSessionFromPackage(pkg, snap, Options{})
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
			return
		}
		// A snapshot the decoder accepts must behave like a session: it
		// snapshots again deterministically and survives a tick.
		if err := sess.Tick(); err != nil {
			t.Fatalf("restored session cannot tick: %v", err)
		}
		_ = sess.Snapshot()
	})
}

func BenchmarkSessionSnapshot(b *testing.B) {
	blob := snapPackage(b)
	s, err := NewSession(blob, Options{})
	if err != nil {
		b.Fatal(err)
	}
	playFirstHalf(s)
	b.ReportAllocs()
	var snap []byte
	for i := 0; i < b.N; i++ {
		snap = s.Snapshot()
	}
	b.SetBytes(int64(len(snap)))
}

func BenchmarkSessionRestore(b *testing.B) {
	blob := snapPackage(b)
	pkg, err := gamepack.Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSessionFromPackage(pkg, Options{})
	if err != nil {
		b.Fatal(err)
	}
	playFirstHalf(s)
	snap := s.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSessionFromPackage(pkg, snap, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
