package playsvc

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/netstream"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tagrec"
)

// durableOptions returns manager options wired to a fresh snapshot
// directory (returned so a second "node" can share it).
func durableOptions(t testing.TB) (Options, *MemDir) {
	t.Helper()
	dir := NewMemDir()
	return Options{TTL: -1, Dir: dir}, dir
}

// durableService mounts a durable manager the way liveService does.
func durableService(t testing.TB, o Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(o)
	t.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	srv := netstream.NewServer()
	if err := srv.Mount("/play/", m.Handler()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, m
}

// TestGoldenReplaySnapshotResume is the snapshot-fidelity acceptance
// gate: a seeded trace is run halfway, the hosted session is frozen, and
// it is resumed (a) on the same manager after TTL eviction and (b) on a
// second cluster node sharing only the store and directory. Both resumed
// runs must finish the trace with event logs, transcript and final state
// bit-identical to the uninterrupted run.
func TestGoldenReplaySnapshotResume(t *testing.T) {
	pkg := classroomBlob(t)

	// Record the golden trace and the uninterrupted reference log.
	var golden recorder
	res, err := sim.Run(pkg, sim.GuidedFactory, sim.Config{
		MaxSteps: 40, Patience: 15, Seed: 7, RecordTrace: true, Observer: &golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("guided seed run did not complete: %+v", res)
	}
	wantLog := golden.log()
	ref, err := runtime.NewSession(pkg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Replay(ref, res.Trace); err != nil {
		t.Fatal(err)
	}
	wantState, err := ref.State().Save()
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := ref.Messages()
	half := len(res.Trace) / 2

	// finish replays the back half through a resumed client and compares
	// everything against the reference.
	finish := func(t *testing.T, ts *httptest.Server, id string, firstLog []runtime.Event) {
		t.Helper()
		var rec2 recorder
		c2, err := Dial(ClientOptions{
			BaseURL:  ts.URL,
			Resume:   id,
			Project:  content.Classroom().Project,
			Observer: &rec2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if c2.SessionID() != id {
			t.Fatalf("resumed session id = %q, want %q", c2.SessionID(), id)
		}
		if w, h, fps := c2.VideoMeta(); w != 160 || h != 120 || fps != 10 {
			t.Fatalf("resume reply lost video metadata: %dx%d@%d", w, h, fps)
		}
		if err := sim.Replay(c2, res.Trace[half:]); err != nil {
			t.Fatal(err)
		}
		combined := append(append([]runtime.Event(nil), firstLog...), rec2.log()...)
		if !reflect.DeepEqual(combined, wantLog) {
			t.Fatalf("event logs diverge:\n got %v\nwant %v", combined, wantLog)
		}
		if !reflect.DeepEqual(c2.Messages(), wantMsgs) {
			t.Fatalf("transcripts diverge:\n got %q\nwant %q", c2.Messages(), wantMsgs)
		}
		gotState, err := c2.State().Save()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotState) != string(wantState) {
			t.Fatalf("final states diverge:\n got %s\nwant %s", gotState, wantState)
		}
		if !c2.Ended() || c2.Outcome() != "victory" {
			t.Fatalf("resumed run ended=%v outcome=%q", c2.Ended(), c2.Outcome())
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// playFirstHalf drives the front half on a fresh client and syncs so
	// the server retains no unacknowledged tail (a planned freeze).
	playFirstHalf := func(t *testing.T, ts *httptest.Server) (string, []runtime.Event) {
		t.Helper()
		var rec1 recorder
		c1, err := Dial(ClientOptions{
			BaseURL:  ts.URL,
			Course:   "classroom",
			Project:  content.Classroom().Project,
			Observer: &rec1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Replay(c1, res.Trace[:half]); err != nil {
			t.Fatal(err)
		}
		if err := c1.Sync(); err != nil {
			t.Fatal(err)
		}
		return c1.SessionID(), rec1.log()
	}

	t.Run("fresh manager after TTL eviction", func(t *testing.T) {
		opts, dir := durableOptions(t)
		ts, m := durableService(t, opts)
		id, firstLog := playFirstHalf(t, ts)
		// The janitor path: snapshot-then-evict instead of discard.
		if n := m.ExpireIdle(time.Now().Add(time.Minute)); n != 1 {
			t.Fatalf("evicted %d sessions, want 1", n)
		}
		if _, ok := dir.Lookup(id); !ok {
			t.Fatal("eviction left no snapshot in the directory")
		}
		st := m.Snapshot()
		if stat(t, st, "sessions_frozen") != 1 || stat(t, st, "sessions_live") != 0 {
			t.Fatalf("stats after freeze: %v", st)
		}
		finish(t, ts, id, firstLog)
		if n := stat(t, m.Snapshot(), "sessions_resumed"); n != 1 {
			t.Fatalf("resumed = %d, want 1", n)
		}
	})

	t.Run("second cluster node", func(t *testing.T) {
		opts, dir := durableOptions(t)
		tsA, mA := durableService(t, opts)
		optsB := Options{TTL: -1, Dir: dir}
		tsB, mB := durableService(t, optsB)
		id, firstLog := playFirstHalf(t, tsA)
		// Handoff: old owner freezes into the shared directory...
		if err := mA.Freeze(id); err != nil {
			t.Fatal(err)
		}
		if mA.Live() != 0 {
			t.Fatalf("node A still hosts %d sessions", mA.Live())
		}
		// ...and the new owner thaws and finishes.
		finish(t, tsB, id, firstLog)
		if st := mB.Snapshot(); stat(t, st, "sessions_resumed") != 1 || stat(t, st, "sessions_closed") != 1 {
			t.Fatalf("node B stats: %v", st)
		}
	})
}

// TestEvictionTransparentToClient pins the auto-thaw path: a client whose
// session the janitor froze keeps acting as if nothing happened.
func TestEvictionTransparentToClient(t *testing.T) {
	opts, _ := durableOptions(t)
	ts, m := durableService(t, opts)
	c := dial(t, ts, nil)
	c.Talk("teacher")
	before := len(c.Messages())
	if n := m.ExpireIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d", n)
	}
	// The next act thaws the session transparently.
	c.Talk("teacher")
	if c.Err() != nil {
		t.Fatalf("act after eviction failed: %v", c.Err())
	}
	if len(c.Messages()) != before+1 {
		t.Fatalf("messages = %d, want %d", len(c.Messages()), before+1)
	}
	st := m.Snapshot()
	if stat(t, st, "sessions_frozen") != 1 || stat(t, st, "sessions_resumed") != 1 || stat(t, st, "sessions_live") != 1 {
		t.Fatalf("stats: %v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateMintsUniqueIDsAcrossNodes: two managers sharing a snapshot
// directory mint ids for id-less creates, and no id one of them minted may
// come back from the other — a collision would hand the first session's
// frozen progress out as a new session.
func TestCreateMintsUniqueIDsAcrossNodes(t *testing.T) {
	opts, _ := durableOptions(t)
	_, a := durableService(t, opts)
	_, b := durableService(t, opts)
	ra, err := createSession(a, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Act(&ActRequest{Session: ra.Session, Kind: ActTick, Ticks: 9}); err != nil {
		t.Fatal(err)
	}
	if err := a.Freeze(ra.Session); err != nil {
		t.Fatal(err)
	}
	rb, err := createSession(b, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Session == ra.Session || rb.Tick != 0 || rb.Resumed {
		t.Fatalf("node B's create answered %q at tick %d (resumed %v); node A froze %q at tick 9",
			rb.Session, rb.Tick, rb.Resumed, ra.Session)
	}
}

// TestJanitorPreservesMessageTails is the regression test for the
// eviction bug: a client that had not yet been served the latest message
// tail must see exactly the unseen messages after resume — none lost to
// the freeze, none duplicated.
func TestJanitorPreservesMessageTails(t *testing.T) {
	opts, _ := durableOptions(t)
	_, m := durableService(t, opts)
	r0, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	id := r0.Session
	seenE, seenM := r0.EventCount, r0.MessageCount

	// Two dialogue turns the client acknowledges...
	r1, err := m.Act(&ActRequest{Session: id, Kind: ActTalk, Object: "teacher", SeenEvents: seenE, SeenMessages: seenM})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Messages) != 1 {
		t.Fatalf("first turn served %d messages", len(r1.Messages))
	}
	seenE, seenM = r1.EventCount, r1.MessageCount

	// ...and one more whose reply the client NEVER receives (the reply is
	// served but the ack never arrives — a retry scenario).
	r2, err := m.Act(&ActRequest{Session: id, Kind: ActTalk, Object: "teacher", SeenEvents: seenE, SeenMessages: seenM})
	if err != nil {
		t.Fatal(err)
	}
	lostMsgs, lostEvents := r2.Messages, r2.Events
	if len(lostMsgs) == 0 || len(lostEvents) == 0 {
		t.Fatalf("second turn served %d messages / %d events", len(lostMsgs), len(lostEvents))
	}

	// Janitor freezes the session with the tail still unacknowledged.
	if n := m.ExpireIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d", n)
	}

	// The client retries with its stale seen-counts: resume must serve
	// exactly the lost tail.
	rr, err := m.Act(&ActRequest{Session: id, Resume: true, SeenEvents: seenE, SeenMessages: seenM})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Resumed {
		t.Fatal("reply not marked resumed")
	}
	if !reflect.DeepEqual(rr.Messages, lostMsgs) {
		t.Fatalf("resumed message tail %q, want %q", rr.Messages, lostMsgs)
	}
	if !reflect.DeepEqual(rr.Events, lostEvents) {
		t.Fatalf("resumed event tail %v, want %v", rr.Events, lostEvents)
	}
	if rr.EventCount != r2.EventCount || rr.MessageCount != r2.MessageCount {
		t.Fatalf("counts after resume %d/%d, want %d/%d", rr.EventCount, rr.MessageCount, r2.EventCount, r2.MessageCount)
	}

	// The conversation continues with no duplicates: a full fresh read
	// shows every turn exactly once.
	full, err := m.Act(&ActRequest{Session: id, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, msg := range full.Messages {
		counts[msg]++
	}
	for msg, n := range counts {
		if n > 1 && !strings.Contains(msg, "TEACHER") {
			// Scripted dialogue lines cycle, so only identical consecutive
			// serving would be a bug; the two teacher turns are distinct
			// lines in the classroom course.
			t.Fatalf("message %q served %d times", msg, n)
		}
	}
	if full.MessageCount != r2.MessageCount {
		t.Fatalf("transcript length %d, want %d", full.MessageCount, r2.MessageCount)
	}
}

// TestCheckpointBoundsCrashLoss: periodic checkpoints cap what a crash
// loses. Progress after the last checkpoint is gone; everything up to it
// survives on a different node.
func TestCheckpointBoundsCrashLoss(t *testing.T) {
	opts, dirr := durableOptions(t)
	m1 := NewManager(opts)
	if err := m1.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m1, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	id := r.Session
	if _, err := m1.Act(&ActRequest{Session: id, Kind: ActTick, Ticks: 5}); err != nil {
		t.Fatal(err)
	}
	if n := m1.Checkpoint(); n != 1 {
		t.Fatalf("checkpointed %d sessions, want 1", n)
	}
	// An idle second pass persists nothing new.
	if n := m1.Checkpoint(); n != 0 {
		t.Fatalf("idle checkpoint persisted %d", n)
	}
	// Progress past the checkpoint...
	if _, err := m1.Act(&ActRequest{Session: id, Kind: ActTick, Ticks: 7}); err != nil {
		t.Fatal(err)
	}
	// ...then the node crashes without flushing.
	m1.Halt()

	m2 := NewManager(Options{TTL: -1, Dir: dirr})
	defer m2.Close()
	if err := m2.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	rr, err := m2.Act(&ActRequest{Session: id, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Tick != 5 {
		t.Fatalf("resumed at tick %d, want the checkpointed 5 (12 was never persisted)", rr.Tick)
	}
}

// TestEnvelopeCorruption: the envelope decoder rejects mangled bytes with
// ErrBadSnapshot and never panics.
func TestEnvelopeCorruption(t *testing.T) {
	env := &envelope{
		Session:   "classroom-0001",
		Course:    "classroom",
		EventBase: 7,
		Events:    []runtime.Event{{Tick: 3, Kind: "say", Detail: "hi"}},
		Snapshot:  []byte("VSNP: any bytes nest; the runtime judges them at restore"),
		LastBase:  9,
		LastLen:   2,
		LastBits:  []byte{resHasTook | resTook},
		LastErr:   &Error{Status: 400, Msg: "playsvc: no such quiz"},
	}
	good := env.encode()
	back, err := decodeEnvelope(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, env) {
		t.Fatalf("roundtrip: %+v != %+v", back, env)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"tiny":      []byte("VS"),
		"bad magic": append([]byte("XSNE"), good[4:]...),
		"truncated": good[:len(good)-9],
		"bit flip":  append(append([]byte(nil), good[:8]...), good[9:]...),
		"garbage":   []byte(strings.Repeat("z", 64)),
	}
	// A sealed envelope of the given version holding the required records
	// and one more, its payload written by hand.
	sealed := func(version, tag uint64, payload []byte) []byte {
		b := tagrec.Begin(nil, envMagic, version)
		b = tagrec.Append(b, envTagSession, env.Session)
		b = tagrec.Append(b, envTagCourse, env.Course)
		b = tagrec.Append(b, envTagSnapshot, env.Snapshot)
		return tagrec.Finish(tagrec.Append(b, tag, payload), 0)
	}
	if _, err := decodeEnvelope(sealed(envVersion, envTagLastLen, []byte{2})); err != nil {
		t.Fatalf("a hand-sealed envelope does not decode: %v", err)
	}
	cases["older version"] = sealed(envVersion-1, envTagLastLen, []byte{2})
	cases["newer version"] = sealed(envVersion+1, envTagLastLen, []byte{2})
	cases["too many acts"] = sealed(envVersion, envTagLastLen, []byte{0xff, 0xff, 0x7f})
	for name, tag := range map[string]uint64{"event base": envTagEventBase, "last base": envTagLastBase, "last len": envTagLastLen} {
		cases["bytes after "+name] = sealed(envVersion, tag, []byte{2, 0})
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeEnvelope(data); !errors.Is(err, runtime.ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
		})
	}
}

// FuzzDecodeEnvelope holds the snapshot envelope parser — what a node reads
// back from the shared directory on every thaw — to the bar of the frame
// parsers: arbitrary bytes never panic, every rejection wraps
// runtime.ErrBadSnapshot, and an accepted envelope survives a re-encode.
// The seeds are a real frozen session's envelope (with batch-dedup state
// and a stored act error), damaged copies of it, and a newborn session's
// and a 60-step session's.
func FuzzDecodeEnvelope(f *testing.F) {
	opts, dir := durableOptions(f)
	_, m := durableService(f, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", Seq: 1}); err != nil {
		f.Fatal(err)
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActGoto, Object: "nowhere", Seq: 2}); err == nil {
		f.Fatal("goto nowhere succeeded")
	}
	if err := m.Freeze(r.Session); err != nil {
		f.Fatal(err)
	}
	ref, ok := dir.Lookup(r.Session)
	if !ok {
		f.Fatal("freeze left no directory entry")
	}
	frozen := ref.Envelope
	if env, err := decodeEnvelope(frozen); err != nil || env.LastBase != 2 || env.LastErr == nil || len(env.Events) == 0 {
		f.Fatalf("seed envelope lacks dedup state or an event tail: %+v, %v", env, err)
	}
	f.Add(frozen)
	f.Add(frozen[:len(frozen)-4])
	f.Add(frozen[:len(frozen)/2])
	f.Add([]byte(envMagic))
	f.Add([]byte{})
	for _, env := range seedEnvelopes(f, m, dir) {
		f.Add(env)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, runtime.ErrBadSnapshot) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if env != nil {
				t.Fatal("non-nil envelope alongside error")
			}
			return
		}
		// Re-encoding drops what a thaw never reads (an empty event tail,
		// dedup records without a batch base, unknown tags), so compare
		// canonical encodings, not structs.
		canon := env.encode()
		again, err := decodeEnvelope(canon)
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		if !bytes.Equal(again.encode(), canon) {
			t.Fatalf("re-encode diverged:\n got %+v\nwant %+v", again, env)
		}
	})
}

// TestLeaveDeletesSnapshot: a session that leaves must not resurrect from
// a stale directory entry.
func TestLeaveDeletesSnapshot(t *testing.T) {
	opts, dir := durableOptions(t)
	_, m := durableService(t, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	// Create already checkpointed the newborn session (crash safety for
	// confirmed ids), so the directory holds it and the periodic pass
	// finds nothing dirty.
	if dir.Len() != 1 {
		t.Fatalf("dir holds %d entries, want the create-time checkpoint", dir.Len())
	}
	if n := m.Checkpoint(); n != 0 {
		t.Fatalf("checkpoint = %d, want 0 (session idle since create)", n)
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActLeave}); err != nil {
		t.Fatal(err)
	}
	if dir.Len() != 0 {
		t.Fatal("leave left a snapshot behind")
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Resume: true}); err == nil {
		t.Fatal("left session resurrected")
	}
}

// TestFreezeIdempotent: freezing twice (gateway rescue broadcasts race)
// is a no-op, and freezing an unknown session is a 404.
func TestFreezeIdempotent(t *testing.T) {
	opts, _ := durableOptions(t)
	_, m := durableService(t, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatalf("second freeze: %v", err)
	}
	err = m.Freeze("classroom-never-existed")
	if pe, ok := err.(*Error); !ok || pe.Status != 404 {
		t.Fatalf("freeze of unknown session = %v", err)
	}
}
