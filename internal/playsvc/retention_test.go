package playsvc

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// TestLeaveReleasesEnvelope: what a hosted session puts in the chunk store
// under its own name leaves the store with it. Every durable create
// persists a newborn checkpoint — a runtime snapshot shared by content with
// every other newborn of the course, and an envelope that carries the
// session id and so belongs to nobody else. After N sessions leave — live,
// frozen-then-left, and with the leave retried — the store holds what it
// held before them plus the distinct snapshot states, and a live sibling
// newborn (whose snapshot blob the leavers shared) still freezes and thaws.
func TestLeaveReleasesEnvelope(t *testing.T) {
	opts, store, dir := durableOptions(t)
	_, m := durableService(t, opts)
	base := store.Stats().Chunks

	sibling, err := m.Create(&CreateRequest{Course: "classroom"})
	if err != nil {
		t.Fatal(err)
	}
	// The sibling's envelope + the one newborn snapshot every create shares.
	if got := store.Stats().Chunks - base; got != 2 {
		t.Fatalf("one newborn added %d chunks, want 2 (envelope + snapshot)", got)
	}

	const n = 12
	for i := 0; i < n; i++ {
		r, err := m.Create(&CreateRequest{Course: "classroom"})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			// Frozen before the leave arrives: the leave thaws it first.
			if err := m.Freeze(r.Session); err != nil {
				t.Fatal(err)
			}
		}
		leave := &ActRequest{Session: r.Session, Kind: ActLeave, Seq: 1,
			SeenEvents: r.EventCount, SeenMessages: r.MessageCount}
		if _, err := m.Act(leave); err != nil {
			t.Fatalf("session %d leave: %v", i, err)
		}
		if i%3 == 2 {
			// The confirmation was lost; the retry is served from the
			// tombstone and must find nothing left to release.
			if _, err := m.Act(leave); err != nil {
				t.Fatalf("session %d retried leave: %v", i, err)
			}
		}
	}
	if dir.Len() != 1 {
		t.Fatalf("directory holds %d entries, want the live sibling's only", dir.Len())
	}
	if got := store.Stats().Chunks - base; got != 2 {
		t.Fatalf("after %d sessions left the store holds %d chunks over its baseline, want 2 (the sibling's envelope + the shared newborn snapshot)", n, got)
	}

	// The leavers shared the sibling's snapshot blob by content; releasing
	// their envelopes must not have touched it.
	if err := m.Freeze(sibling.Session); err != nil {
		t.Fatal(err)
	}
	back, err := m.Create(&CreateRequest{Resume: sibling.Session})
	if err != nil {
		t.Fatalf("sibling no longer thaws: %v", err)
	}
	if !back.Resumed || back.EventCount != sibling.EventCount {
		t.Fatalf("sibling thawed to %+v, created as %+v", back, sibling)
	}
}

// TestTombstoneServesIdenticalFinalView: the tombstone keeps a leave's
// final view as counts and tails rather than the Reply it was sent as, so
// the view it rebuilds must be the one that was sent — with an event tail,
// a message tail and a pending quiz in it — for the retried seq and no
// other; and it lives exactly as long as before: pruned by the janitor's
// sweep at the TTL (TestTombstoneCapEvictsOldestFirst has the cap).
func TestTombstoneServesIdenticalFinalView(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := m.Create(&CreateRequest{Course: "classroom"})
	if err != nil {
		t.Fatal(err)
	}
	// Talk, then examine: opens the diagnosis quiz and leaves events and
	// messages the client never acknowledges.
	if _, err := m.ActBatch(&BatchRequest{Session: r.Session, BaseSeq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount,
		Acts: []ActRequest{{Kind: ActTalk, Object: "teacher"}, {Kind: ActExamine, Object: "computer"}, {Kind: ActTick, Ticks: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	leave := &ActRequest{Session: r.Session, Kind: ActLeave, Seq: 4,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}
	first, err := m.Act(leave)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Events) == 0 || len(first.Messages) == 0 || first.Quiz == "" || first.Tick != 3 {
		t.Fatalf("the final view should carry both tails, the pending quiz and the tick: %+v", first)
	}
	for i := 0; i < 3; i++ {
		again, err := m.Act(leave)
		if err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("retry %d diverged:\n got %+v\nwant %+v", i, again, first)
		}
	}
	// A polite leaver — everything acknowledged, no quiz pending — gets its
	// counts back and nothing else, as it was sent.
	polite, err := m.Create(&CreateRequest{Course: "classroom"})
	if err != nil {
		t.Fatal(err)
	}
	bye := &ActRequest{Session: polite.Session, Kind: ActLeave, Seq: 1,
		SeenEvents: polite.EventCount, SeenMessages: polite.MessageCount}
	sent, err := m.Act(bye)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := m.Act(bye); err != nil || !reflect.DeepEqual(again, sent) || again.EventCount != polite.EventCount {
		t.Fatalf("polite leave retried:\n got %+v, %v\nwant %+v", again, err, sent)
	}

	// Another seq is another leave, not a retry of this one: it gets the
	// no-host confirmation, never the tombstoned tails.
	other := *leave
	other.Seq = 5
	if got, err := m.Act(&other); err != nil || len(got.Events) != 0 || len(got.Messages) != 0 || got.EventCount != 0 {
		t.Fatalf("a different seq was served the tombstone: %+v, %v", got, err)
	}

	// The janitor's sweep prunes it at the cutoff, as it always did…
	m.ExpireIdle(time.Now().Add(-time.Minute))
	if again, err := m.Act(leave); err != nil || !reflect.DeepEqual(again, first) {
		t.Fatalf("a tombstone younger than the cutoff was pruned: %+v, %v", again, err)
	}
	m.ExpireIdle(time.Now().Add(time.Minute))
	if got, err := m.Act(leave); err != nil || len(got.Events) != 0 || got.EventCount != 0 {
		t.Fatalf("a pruned tombstone still answered: %+v, %v", got, err)
	}
}

// TestTombstoneCapEvictsOldestFirst: with no janitor (or sessions finishing
// faster than it ages them out) the manager keeps at most tombCap
// tombstones and drops them oldest first, in O(1) a leave — so cap + N
// leaves lose exactly the N oldest — and a real leave landing on a full
// manager is still served its saved final view on a retry. The janitor pops
// the same queue from the same end.
func TestTombstoneCapEvictsOldestFirst(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	const extra = 100
	id := func(i int) string { return fmt.Sprintf("s-%06d", i) }
	for i := 0; i < tombCap+extra-1; i++ {
		m.saveTomb(id(i), 1, &Reply{Tick: i})
	}
	r, err := m.Create(&CreateRequest{Course: "classroom"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ActBatch(&BatchRequest{Session: r.Session, BaseSeq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount,
		Acts: []ActRequest{{Kind: ActTalk, Object: "teacher"}},
	}); err != nil {
		t.Fatal(err)
	}
	leave := &ActRequest{Session: r.Session, Kind: ActLeave, Seq: 2,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}
	first, err := m.Act(leave)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Events) == 0 {
		t.Fatalf("the final view should carry an event tail: %+v", first)
	}
	if len(m.tombs) != tombCap {
		t.Fatalf("manager holds %d tombstones, want tombCap = %d", len(m.tombs), tombCap)
	}
	for i := 0; i < extra; i++ {
		if m.takeTomb(id(i), 1) != nil {
			t.Fatalf("tombstone %d of the %d oldest survived the cap", i, extra)
		}
	}
	if got := m.takeTomb(id(extra), 1); got == nil || got.Tick != extra {
		t.Fatalf("the oldest tombstone inside the cap is %+v", got)
	}
	if again, err := m.Act(leave); err != nil || !reflect.DeepEqual(again, first) {
		t.Fatalf("the newest leave retried on a full manager:\n got %+v, %v\nwant %+v", again, err, first)
	}
	// A session id that leaves twice keeps one tombstone, the later view in
	// the earlier one's place: chain and index stay one to one.
	m.saveTomb(id(extra), 7, &Reply{Tick: -1})
	if got := m.takeTomb(id(extra), 7); got == nil || got.Tick != -1 || m.takeTomb(id(extra), 1) != nil || len(m.tombs) != tombCap {
		t.Fatalf("a second leave of one id: seq 7 answers %+v, %d tombstones indexed", got, len(m.tombs))
	}
	m.ExpireIdle(time.Now().Add(time.Minute))
	if len(m.tombs) != 0 || m.tombHead != nil || m.tombTail != nil {
		t.Fatalf("%d tombstones indexed, chain %v…%v after a sweep past all of them", len(m.tombs), m.tombHead, m.tombTail)
	}
}

// TestFinishedSessionFootprint bounds what a finished session leaves on the
// server. Server memory has to follow live sessions, not sessions ever
// hosted: a client that gets faster finishes more of them per second, and
// every byte retained per finished session turns that speed-up into the
// server's peak RSS. A durable manager and a telemetry store host 2 000
// sessions to warm up and 30 000 to measure — create, tick, leave, and the
// learner's two telemetry batches, all under the ids and seqs real clients
// send — and the live heap may grow by at most 450 B per finished session
// (the leave tombstone and the telemetry fold mark, each kept for its retry
// window), with the chunk store not growing at all.
func TestFinishedSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("hosts 32 000 sessions")
	}
	opts, store, dir := durableOptions(t)
	_, m := durableService(t, opts)
	tel := telemetry.NewStore()
	session := func(i int) {
		id := newSessionID("classroom")
		r, err := m.Create(&CreateRequest{Course: "classroom", Session: id})
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.ActBatch(&BatchRequest{Session: id, BaseSeq: 1,
			SeenEvents: r.EventCount, SeenMessages: r.MessageCount,
			Acts: []ActRequest{{Kind: ActTick, Ticks: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Act(&ActRequest{Session: id, Kind: ActLeave, Seq: 2,
			SeenEvents: out.Reply.EventCount, SeenMessages: out.Reply.MessageCount}); err != nil {
			t.Fatal(err)
		}
		learner := fmt.Sprintf("classroom-footprint-learner-%05d", i)
		for seq := 1; seq <= 2; seq++ {
			if err := tel.Append(telemetry.Batch{
				Course: "classroom", Session: learner, Start: "classroom", Seq: seq, Done: seq == 2,
				Events: []runtime.Event{{Tick: seq, Kind: "click", Detail: "teacher"}},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const warm, measured = 2000, 30000
	for i := 0; i < warm; i++ {
		session(i)
	}
	chunks, before := store.Stats().Chunks, heap()
	for i := warm; i < warm+measured; i++ {
		session(i)
	}
	after := heap()
	perSession := (float64(after) - float64(before)) / measured
	t.Logf("live heap %d → %d B over %d finished sessions: %.0f B each", before, after, measured, perSession)
	if perSession > 450 {
		t.Errorf("a finished session leaves %.0f B of live heap, want ≤ 450", perSession)
	}
	if got := store.Stats().Chunks; got != chunks {
		t.Errorf("the chunk store grew from %d to %d chunks over %d finished sessions", chunks, got, measured)
	}
	if m.Live() != 0 || dir.Len() != 0 {
		t.Errorf("%d sessions live, %d directory entries after every session left", m.Live(), dir.Len())
	}
	goruntime.KeepAlive(tel)
}
