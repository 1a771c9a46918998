package playsvc

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/netstream"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// TestLeaveReleasesEnvelope: everything a hosted session saves is its one
// directory entry, and it leaves with the session. Every durable create
// persists a newborn checkpoint; after N sessions leave — live,
// frozen-then-left, and with the leave retried — the directory holds the
// live sibling's envelope and nothing else, and the sibling (whose newborn
// state the leavers shared) still freezes and thaws.
func TestLeaveReleasesEnvelope(t *testing.T) {
	opts, dir := durableOptions(t)
	_, m := durableService(t, opts)

	sibling, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if ref, ok := dir.Lookup(sibling.Session); !ok || !ref.Checkpoint || len(ref.Envelope) == 0 {
		t.Fatalf("a durable create saved %+v, %v; want a checkpoint envelope", ref, ok)
	}

	const n = 12
	for i := 0; i < n; i++ {
		r, err := createSession(m, "classroom")
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

	if err := m.Freeze(sibling.Session); err != nil {
		t.Fatal(err)
	}
	back, err := m.Act(&ActRequest{Session: sibling.Session, Resume: true})
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
	r, err := createSession(m, "classroom")
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
	polite, err := createSession(m, "classroom")
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
	tomb := func(session string, seq int64) *BatchReply {
		out, err := m.takeTomb(session, seq)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for i := 0; i < tombCap+extra-1; i++ {
		m.saveTomb(id(i), 1, &BatchReply{Reply: &Reply{Tick: i}})
	}
	r, err := createSession(m, "classroom")
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
		if tomb(id(i), 1) != nil {
			t.Fatalf("tombstone %d of the %d oldest survived the cap", i, extra)
		}
	}
	if got := tomb(id(extra), 1); got == nil || got.Reply.Tick != extra {
		t.Fatalf("the oldest tombstone inside the cap is %+v", got)
	}
	if again, err := m.Act(leave); err != nil || !reflect.DeepEqual(again, first) {
		t.Fatalf("the newest leave retried on a full manager:\n got %+v, %v\nwant %+v", again, err, first)
	}
	// A session id that leaves twice keeps one tombstone, the later view in
	// the earlier one's place: chain and index stay one to one.
	m.saveTomb(id(extra), 7, &BatchReply{Reply: &Reply{Tick: -1}})
	if got := tomb(id(extra), 7); got == nil || got.Reply.Tick != -1 || tomb(id(extra), 1) != nil || len(m.tombs) != tombCap {
		t.Fatalf("a second leave of one id: seq 7 answers %+v, %d tombstones indexed", got, len(m.tombs))
	}
	m.ExpireIdle(time.Now().Add(time.Minute))
	if len(m.tombs) != 0 || m.tombHead != nil || m.tombTail != nil {
		t.Fatalf("%d tombstones indexed, chain %v…%v after a sweep past all of them", len(m.tombs), m.tombHead, m.tombTail)
	}
}

// TestFinalTailsAreBounded: a batch that ends its session tombstones its
// final tail, but only the tailCap newest tails are kept. A retry older than
// that is answered 410 — never with a final view that silently lacks its
// events — and tombstones saved without a tail are untouched.
func TestFinalTailsAreBounded(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	id := func(i int) string { return fmt.Sprintf("s-%06d", i) }
	tail := func(i int) *BatchReply {
		return &BatchReply{Reply: &Reply{Session: id(i), Tick: 3, EventCount: 9,
			Events: []runtime.Event{{Tick: 3, Kind: "talk", Detail: "teacher"}}},
			Results: []ActResult{{HasTook: true}, {}}}
	}
	m.saveTomb("bare", 1, &BatchReply{Reply: &Reply{Session: "bare", Tick: 1}, Results: []ActResult{{}}})
	for i := 0; i <= tailCap; i++ {
		m.saveTomb(id(i), 2, tail(i))
	}
	if _, err := m.takeTomb(id(0), 2); httpStatus(err) != http.StatusGone {
		t.Fatalf("a retry past tailCap newer tails got %v, want 410", err)
	}
	for _, i := range []int{1, tailCap} {
		out, err := m.takeTomb(id(i), 2)
		if err != nil || !reflect.DeepEqual(out, tail(i)) {
			t.Fatalf("tail %d of the newest %d: %+v, %v", i, tailCap, out, err)
		}
	}
	if out, err := m.takeTomb("bare", 1); err != nil || out == nil || out.Reply.Tick != 1 || len(out.Results) != 1 {
		t.Fatalf("a tombstone without a tail: %+v, %v", out, err)
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
// window).
func TestFinishedSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("hosts 32 000 sessions")
	}
	opts, dir := durableOptions(t)
	_, m := durableService(t, opts)
	tel := telemetry.NewStore()
	session := func(i int) {
		id := newSessionID("classroom")
		r, err := m.Act(&ActRequest{Session: id, Course: "classroom"})
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
	before := heap()
	for i := warm; i < warm+measured; i++ {
		session(i)
	}
	after := heap()
	perSession := (float64(after) - float64(before)) / measured
	t.Logf("live heap %d → %d B over %d finished sessions: %.0f B each", before, after, measured, perSession)
	if perSession > 450 {
		t.Errorf("a finished session leaves %.0f B of live heap, want ≤ 450", perSession)
	}
	if m.Live() != 0 || dir.Len() != 0 {
		t.Errorf("%d sessions live, %d directory entries after every session left", m.Live(), dir.Len())
	}
	goruntime.KeepAlive(tel)
}

// TestSessionsLeaveNothingBehind is the durable-session invariant: the
// directory holds the living and the chunk store holds the courses, so once
// every session has left — whatever it went through first — the directory
// is empty and the store is what publishing left it. The package server
// publishes the course into the store; two managers share the directory
// like two nodes of a cluster, and host the same package, as vgbl-server
// does.
func TestSessionsLeaveNothingBehind(t *testing.T) {
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	if err := netstream.NewServerWith(store).AddPackage("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	dir := NewMemDir()
	var nodes [2]*Manager
	for i := range nodes {
		nodes[i] = NewManager(Options{TTL: -1, Dir: dir})
		defer nodes[i].Close()
		if err := nodes[i].AddCourse("classroom", classroomBlob(t)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := nodes[0], nodes[1]
	published := store.Stats().Chunks
	if published == 0 {
		t.Fatal("publishing left the store empty; the baseline would prove nothing")
	}

	// A learner's requests, sequenced and acknowledging like a real client's.
	type learner struct {
		id           string
		seq          int64
		seenE, seenM int
	}
	create := func(m *Manager) *learner {
		r, err := createSession(m, "classroom")
		if err != nil {
			t.Fatal(err)
		}
		return &learner{id: r.Session, seenE: r.EventCount, seenM: r.MessageCount}
	}
	act := func(m *Manager, l *learner, a ActRequest) {
		t.Helper()
		l.seq++
		out, err := m.ActBatch(&BatchRequest{Session: l.id, BaseSeq: l.seq,
			SeenEvents: l.seenE, SeenMessages: l.seenM, Acts: []ActRequest{a}})
		if err != nil {
			t.Fatalf("%s act %d: %v", l.id, l.seq, err)
		}
		l.seenE, l.seenM = out.Reply.EventCount, out.Reply.MessageCount
	}
	leave := func(m *Manager, l *learner, attempts int) {
		t.Helper()
		l.seq++
		for i := 0; i < attempts; i++ {
			if _, err := m.Act(&ActRequest{Session: l.id, Kind: ActLeave, Seq: l.seq,
				SeenEvents: l.seenE, SeenMessages: l.seenM}); err != nil {
				t.Fatalf("%s leave, attempt %d: %v", l.id, i+1, err)
			}
		}
	}
	talk, tick := ActRequest{Kind: ActTalk, Object: "teacher"}, ActRequest{Kind: ActTick, Ticks: 2}

	lives := []struct {
		name string
		live func()
	}{
		{"created and left", func() {
			leave(a, create(a), 1)
		}},
		{"acted on and checkpointed twice", func() {
			l := create(a)
			for i := 0; i < 2; i++ {
				act(a, l, talk)
				act(a, l, tick)
				if n := a.Checkpoint(); n != 1 {
					t.Fatalf("checkpoint %d persisted %d sessions, want 1", i+1, n)
				}
			}
			leave(a, l, 1)
		}},
		{"frozen, then thawed by an act", func() {
			l := create(a)
			act(a, l, talk)
			if err := a.Freeze(l.id); err != nil {
				t.Fatal(err)
			}
			act(a, l, tick)
			leave(a, l, 1)
		}},
		{"handed off between two managers", func() {
			l := create(a)
			act(a, l, talk)
			if err := a.Freeze(l.id); err != nil {
				t.Fatal(err)
			}
			act(b, l, tick)
			if n := b.Checkpoint(); n != 1 {
				t.Fatalf("the new owner checkpointed %d sessions, want 1", n)
			}
			leave(b, l, 1)
		}},
		{"TTL-evicted, then left", func() {
			l := create(a)
			act(a, l, talk)
			if n := a.ExpireIdle(time.Now().Add(time.Minute)); n != 1 {
				t.Fatalf("evicted %d sessions, want 1", n)
			}
			leave(a, l, 1)
		}},
		{"left, with the leave retried", func() {
			l := create(b)
			act(b, l, tick)
			leave(b, l, 3)
		}},
	}
	for _, l := range lives {
		name := l.name
		l.live()
		if a.Live() != 0 || b.Live() != 0 {
			t.Fatalf("%s: %d + %d sessions still live", name, a.Live(), b.Live())
		}
		if dir.Len() != 0 {
			t.Errorf("%s: %d entries left in the directory", name, dir.Len())
		}
		if got := store.Stats().Chunks; got != published {
			t.Errorf("%s: the store holds %d chunks, %d after publishing", name, got, published)
			published = got // report each life's own leak, not the running sum
		}
	}
}

// TestThawReplaysActErrorFrame: a batch that stopped on an act error is
// answered, when its reply is lost and the session is frozen before the
// retry arrives, with the byte-identical frame — the envelope carries the
// error in the reply frame's own encoding.
func TestThawReplaysActErrorFrame(t *testing.T) {
	opts, _ := durableOptions(t)
	_, m := durableService(t, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	batch := &BatchRequest{Session: r.Session, BaseSeq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount,
		Acts: []ActRequest{{Kind: ActTalk, Object: "teacher"}, {Kind: ActGoto, Object: "nowhere"}, {Kind: ActTick}}}
	sent, err := m.ActBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sent.ActErr == nil || len(sent.Results) != 1 || len(sent.Reply.Events) == 0 {
		t.Fatalf("the batch should apply one act and stop on the second: %+v", sent)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}
	again, err := m.ActBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EncodeReplyFrame(again), EncodeReplyFrame(sent); !bytes.Equal(got, want) {
		t.Fatalf("the thawed session answered the retry with a different frame:\n got %x\nwant %x", got, want)
	}
	if n := stat(t, m.Snapshot(), "sessions_resumed"); n != 1 {
		t.Fatalf("resumed = %d: the retry was not answered by a thawed session", n)
	}
}
