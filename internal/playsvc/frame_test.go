package playsvc

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tagrec"
)

func sampleBatch() *BatchRequest {
	return &BatchRequest{
		Session:      "classroom-0000abcd",
		BaseSeq:      41,
		SeenEvents:   7,
		SeenMessages: 3,
		Acts: []ActRequest{
			{Kind: ActClick, X: -12, Y: 99},
			{Kind: ActExamine, Object: "computer"},
			{Kind: ActUse, Item: "ram module", Object: "computer"},
			{Kind: ActQuiz, Quiz: "q-install", Choice: 2},
			{Kind: ActTick, Ticks: 5},
		},
	}
}

func TestActFrameRoundTrip(t *testing.T) {
	want := sampleBatch()
	got, err := ParseActFrame(EncodeActFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	want := &BatchReply{
		Reply: &Reply{
			Session:      "classroom-0000abcd",
			Tick:         123,
			EventCount:   17,
			MessageCount: 6,
			Quiz:         "q-install",
			Resumed:      true,
			State: &core.State{
				Scenario:  "market",
				Inventory: []string{"coin", "ram module"},
				Flags:     map[string]bool{"door-open": true, "alarm": false},
				Vars:      map[string]int{"score": -3, "hp": 12},
				Visited:   map[string]int{"classroom": 2, "market": 1},
				Learned:   map[string]bool{"ram-basics": true},
				Rewards:   []string{"badge"},
				Hidden:    map[string]bool{"stall-ram": true},
				Ended:     true,
				Outcome:   "victory",
			},
			Events: []runtime.Event{
				{Tick: 3, Kind: "take", Detail: "coin"},
				{Tick: 9, Kind: "quiz", Detail: "q-install correct"},
			},
			Messages: []string{"hello", "use the coin"},
		},
		Results: []ActResult{
			{},
			{HasTook: true, Took: true},
			{HasCorrect: true, Correct: false},
		},
		ActErr: &Error{Status: 400, Msg: "playsvc: no such quiz"},
	}
	got, err := ParseReplyFrame(EncodeReplyFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplyFrameMinimal pins the nil-vs-empty conventions: an empty state
// section decodes to nil maps, exactly like the JSON route's omitempty —
// the client mirror must not be able to tell the protocols apart.
func TestReplyFrameMinimal(t *testing.T) {
	want := &BatchReply{Reply: &Reply{
		Session: "s",
		State:   &core.State{Scenario: "classroom"},
	}}
	got, err := ParseReplyFrame(EncodeReplyFrame(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameSessionID(t *testing.T) {
	b := EncodeActFrame(sampleBatch())
	rt, err := parseFrameRoute(b)
	if err != nil {
		t.Fatal(err)
	}
	id := rt.session
	if id != "classroom-0000abcd" || rt.create != "" || rt.leave {
		t.Fatalf("route = %+v", rt)
	}
	// The prefix parse must not need the tail: truncate right after the
	// header records and routing still works (the node, not the gateway,
	// rejects the mangled frame).
	if rt, err := parseFrameRoute(b[:len(actMagic)+1+2+len(id)+4]); err != nil || rt.session != "classroom-0000abcd" {
		t.Fatalf("prefix parse: route=%+v err=%v", rt, err)
	}
	// A frame whose first record is not the session id does not route.
	bad := append([]byte(actMagic), 1)               // magic + version
	bad = tagrec.Append(bad, atagBaseSeq, []byte{7}) // wrong leading record
	bad = append(bad, 0, 0, 0, 0)                    // where the checksum goes
	if _, err := parseFrameRoute(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	// The ops ride the prefix: a whole session in one frame routes as a
	// create and a leave.
	whole := sampleBatch()
	whole.Create = "classroom"
	whole.Acts = append(whole.Acts, ActRequest{Kind: ActLeave})
	if rt, err := parseFrameRoute(EncodeActFrame(whole)); err != nil || rt != (frameRoute{session: id, create: "classroom", leave: true}) {
		t.Fatalf("whole-session frame: route=%+v err=%v", rt, err)
	}
	resume := EncodeActFrame(&BatchRequest{Session: id, Resume: true, SeenEvents: 3})
	if rt, err := parseFrameRoute(resume); err != nil || rt != (frameRoute{session: id, resume: true}) {
		t.Fatalf("resume frame: route=%+v err=%v", rt, err)
	}
	// A room record rides behind its create and routes like any create.
	room := EncodeActFrame(&BatchRequest{Session: id, Create: "classroom", Room: true})
	if rt, err := parseFrameRoute(room); err != nil || rt != (frameRoute{session: id, create: "classroom", room: true}) {
		t.Fatalf("room frame: route=%+v err=%v", rt, err)
	}
}

// TestParseActFrameAllocs pins what parsing a mirror client's 16-act batch
// allocates: the request, the acts in one slice sized by counting their
// records, the session id and one string per non-empty string field. The
// slice grew by doubling before, five allocations for 16 acts.
func TestParseActFrameAllocs(t *testing.T) {
	req := &BatchRequest{Session: "classroom-0000abcd", BaseSeq: 17, SeenEvents: 40, StateTag: 9}
	strs := 0
	for i := range 16 {
		a := ActRequest{Kind: ActTick, Ticks: 1}
		if i%4 == 3 {
			a = ActRequest{Kind: ActTalk, Object: "teacher"}
			strs++
		}
		req.Acts = append(req.Acts, a)
	}
	frame := EncodeActFrame(req)
	got, err := ParseActFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) || cap(got.Acts) != len(req.Acts) {
		t.Fatalf("parsed %+v (acts cap %d), want %+v", got, cap(got.Acts), req)
	}
	want := float64(3 + strs)
	if n := testing.AllocsPerRun(100, func() { ParseActFrame(frame) }); n != want {
		t.Errorf("ParseActFrame allocates %.0f times for 16 acts, want %.0f", n, want)
	}
}

func TestParseActFrameRejections(t *testing.T) {
	valid := EncodeActFrame(sampleBatch())
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40

	empty := &BatchRequest{Session: "s"}
	emptyFrame := EncodeActFrame(empty)

	// A leave is legal only as the last act, and the prefix's leave record
	// must agree with it.
	early := sampleBatch()
	early.Acts = append([]ActRequest{{Kind: ActLeave}}, early.Acts...)
	unflagged := frameWithout(t, EncodeActFrame(&BatchRequest{Session: "s", Acts: []ActRequest{{Kind: ActLeave}}}), atagLeave)
	flagged := tagrec.Begin(nil, actMagic, frameVersion)
	flagged = tagrec.Append(flagged, atagSession, "s")
	flagged = tagrec.Append(flagged, atagLeave, "")
	flagged = tagrec.Finish(tagrec.Append(flagged, atagAct, []byte{byte(wireKind(ActClick)), 0, 0, 0, 0, 0, 0, 0}), 0)
	late := tagrec.Begin(nil, actMagic, frameVersion)
	late = tagrec.Append(late, atagSession, "s")
	late = tagrec.Append(late, atagBaseSeq, []byte{1})
	late = tagrec.Finish(tagrec.Append(late, atagCreate, "classroom"), 0)
	// A resume sits where a create does, never beside it or past the
	// prefix.
	both := tagrec.Begin(nil, actMagic, frameVersion)
	both = tagrec.Append(both, atagSession, "s")
	both = tagrec.Append(both, atagCreate, "classroom")
	both = tagrec.Finish(tagrec.Append(both, atagResume, ""), 0)
	lateResume := tagrec.Begin(nil, actMagic, frameVersion)
	lateResume = tagrec.Append(lateResume, atagSession, "s")
	lateResume = tagrec.Append(lateResume, atagBaseSeq, []byte{1})
	lateResume = tagrec.Finish(tagrec.Append(lateResume, atagResume, ""), 0)
	// A room record sits right behind its create, never alone, beside a
	// resume or past the prefix.
	roomAlone := tagrec.Begin(nil, actMagic, frameVersion)
	roomAlone = tagrec.Append(roomAlone, atagSession, "s")
	roomAlone = tagrec.Finish(tagrec.Append(roomAlone, atagRoom, ""), 0)
	roomResume := tagrec.Begin(nil, actMagic, frameVersion)
	roomResume = tagrec.Append(roomResume, atagSession, "s")
	roomResume = tagrec.Append(roomResume, atagResume, "")
	roomResume = tagrec.Finish(tagrec.Append(roomResume, atagRoom, ""), 0)
	lateRoom := tagrec.Begin(nil, actMagic, frameVersion)
	lateRoom = tagrec.Append(lateRoom, atagSession, "s")
	lateRoom = tagrec.Append(lateRoom, atagCreate, "classroom")
	lateRoom = tagrec.Append(lateRoom, atagBaseSeq, []byte{1})
	lateRoom = tagrec.Finish(tagrec.Append(lateRoom, atagRoom, ""), 0)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("VA")},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"flipped bit", corrupt},
		{"truncated", valid[:len(valid)-6]},
		{"no acts", emptyFrame},
		{"reply magic", EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s"}})},
		{"leave before other acts", EncodeActFrame(early)},
		{"leave act without the leave record", unflagged},
		{"leave record without a leave act", flagged},
		{"create past the routing prefix", late},
		{"create and resume in one frame", both},
		{"resume past the routing prefix", lateResume},
		{"room without a create", roomAlone},
		{"room with a resume", roomResume},
		{"room past the routing prefix", lateRoom},
	}
	for _, tc := range cases {
		if _, err := ParseActFrame(tc.data); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

// frameWithout re-seals an act frame with every record of one tag dropped.
func frameWithout(t *testing.T, frame []byte, tag uint64) []byte {
	t.Helper()
	out := tagrec.Begin(nil, actMagic, frameVersion)
	sc := tagrec.Open(frame, actMagic, frameVersion, frameVersion, maxFrameField)
	for sc.Next() {
		if sc.Tag != tag {
			out = tagrec.Append(out, sc.Tag, sc.Payload)
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return tagrec.Finish(out, 0)
}

// TestActFrameDeterministic pins byte-stable encoding: identical requests
// produce identical frames (map ordering is sorted in the state codec and
// absent from act frames entirely).
func TestActFrameDeterministic(t *testing.T) {
	a, b := EncodeActFrame(sampleBatch()), EncodeActFrame(sampleBatch())
	if string(a) != string(b) {
		t.Fatal("act frame encoding is not deterministic")
	}
}

// FuzzParseActFrame holds the binary act parser to the FuzzRestoreSession
// bar: arbitrary input never panics, never allocates unboundedly, and
// either parses cleanly (and then re-encodes through a round trip) or
// fails with a typed ErrBadFrame.
func FuzzParseActFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VACT"))
	f.Add(EncodeActFrame(sampleBatch()))
	f.Add(EncodeActFrame(&BatchRequest{Session: "s", Acts: []ActRequest{{Kind: ActClick}}}))
	long := EncodeActFrame(sampleBatch())
	f.Add(long[:len(long)-5])
	for _, frame := range opFrames() {
		f.Add(frame)
	}
	// A room's watch reply at seq 0: the create and 40 of its driver's acts.
	r := drivenRoom(f, classroomActs(40))
	r.mu.Lock()
	f.Add(r.appendWatch(nil, 0, r.reach(0)))
	r.mu.Unlock()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseActFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if req != nil {
				t.Fatal("non-nil request alongside error")
			}
			return
		}
		if req.Session == "" || (len(req.Acts) == 0 && req.Create == "" && !req.Resume) ||
			(req.Create != "" && req.Resume) || (req.Room && req.Create == "") || len(req.Acts) > maxFrameActs {
			t.Fatalf("parsed frame violates invariants: %+v", req)
		}
		// Accepted input must survive a re-encode round trip (unknown
		// tags are dropped, so compare the parsed forms).
		again, err := ParseActFrame(EncodeActFrame(req))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encode diverged:\n got %+v\nwant %+v", again, req)
		}
	})
}

// opFrames are act frames carrying the ops: a create alone, a create in
// front of acts, acts with a leave at the end, a leave alone, a whole
// session in one frame, a resume alone (seen-counts zero and not), a
// resume in front of acts and a leave, a room create alone, and a room
// create in front of acts and a leave.
func opFrames() [][]byte {
	acts := sampleBatch().Acts
	leave := append(append([]ActRequest(nil), acts...), ActRequest{Kind: ActLeave})
	return [][]byte{
		EncodeActFrame(&BatchRequest{Session: "s", Create: "classroom"}),
		EncodeActFrame(&BatchRequest{Session: "s", Create: "classroom", BaseSeq: 1, Acts: acts}),
		EncodeActFrame(&BatchRequest{Session: "s", BaseSeq: 17, SeenEvents: 9, Acts: leave}),
		EncodeActFrame(&BatchRequest{Session: "s", BaseSeq: 3, Acts: []ActRequest{{Kind: ActLeave}}}),
		EncodeActFrame(&BatchRequest{Session: "s", Create: "classroom", BaseSeq: 1, Acts: leave}),
		EncodeActFrame(&BatchRequest{Session: "s", Resume: true}),
		EncodeActFrame(&BatchRequest{Session: "s", Resume: true, SeenEvents: 40, SeenMessages: 6}),
		EncodeActFrame(&BatchRequest{Session: "s", Resume: true, BaseSeq: 5, Acts: leave}),
		EncodeActFrame(&BatchRequest{Session: "s", Create: "classroom", Room: true}),
		EncodeActFrame(&BatchRequest{Session: "s", Create: "classroom", Room: true, BaseSeq: 1, Acts: leave}),
	}
}

// FuzzFrameRoute holds the gateway's prefix parse to the full parse: on any
// input it never panics and every rejection is a typed ErrBadFrame, and on
// every frame the full parse accepts it routes the same session with the
// same ops — a create the gateway misses would go uncounted, a resume it
// misses would skip its sweep.
func FuzzFrameRoute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VACT"))
	f.Add(EncodeActFrame(sampleBatch()))
	for _, frame := range opFrames() {
		f.Add(frame)
		f.Add(frame[:len(frame)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, rerr := parseFrameRoute(data)
		if rerr != nil && !errors.Is(rerr, ErrBadFrame) {
			t.Fatalf("untyped rejection: %v", rerr)
		}
		req, err := ParseActFrame(data)
		if err != nil {
			return
		}
		if rerr != nil {
			t.Fatalf("the full parse accepts a frame the gateway refuses: %v", rerr)
		}
		if want := (frameRoute{session: req.Session, create: req.Create, room: req.Room, resume: req.Resume, leave: req.leaves()}); rt != want {
			t.Fatalf("prefix parse routes %+v, the full parse %+v", rt, want)
		}
	})
}

// FuzzParseReplyFrame pins the same no-panic/typed-error bar for the
// client-side parser — a hostile server (or a corrupting middlebox) must
// not be able to crash a learner.
func FuzzParseReplyFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VRPL"))
	f.Add(EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", State: &core.State{Scenario: "x"}}}))
	f.Add(EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", Course: "classroom", Width: 160, Height: 120, FPS: 10,
		State: &core.State{Scenario: "x"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ParseReplyFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if out.Reply == nil || out.Reply.Session == "" {
			t.Fatalf("parsed reply violates invariants: %+v", out)
		}
		again, err := ParseReplyFrame(EncodeReplyFrame(out))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		if !reflect.DeepEqual(again, out) {
			t.Fatalf("re-encode diverged:\n got %+v\nwant %+v", again, out)
		}
	})
}

// TestAppendWatchAllocatesNothing: a watch is answered by copying the
// room's logged act records into the watcher's recycled reply buffer — the
// create, the state tag and the base seq written in place — and the reply
// parses back to the acts the driver applied.
func TestAppendWatchAllocatesNothing(t *testing.T) {
	acts := classroomActs(40)
	r := drivenRoom(t, acts)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.reach(0)
	dst := r.appendWatch(nil, 0, e)
	if allocs := testing.AllocsPerRun(100, func() { dst = r.appendWatch(dst, 0, e) }); allocs != 0 {
		t.Fatalf("appendWatch allocates %.0f times per reply", allocs)
	}
	req, err := ParseActFrame(dst)
	if err != nil || req.Session != r.id || req.Create != "classroom" || req.BaseSeq != 1 || req.StateTag != e.tag || e.seq != int64(len(acts)) {
		t.Fatalf("the reply it wrote parses to %+v, %v", req, err)
	}
	for i := range acts {
		if want := acts[i]; req.Acts[i].Kind != want.Kind || req.Acts[i].Object != want.Object || req.Acts[i].Ticks != want.Ticks {
			t.Fatalf("act %d = %+v, want %+v", i+1, req.Acts[i], want)
		}
	}
}

// TestRetiredActErrorRecordRefused: the act-error record's earlier layout
// (status, retry-after, message) had its own tag in the reply frame and in
// the envelope. A peer of the other version must fail loudly, so both
// readers refuse that tag as malformed instead of skipping it as an
// extension or misreading its fields; the record the writers emit now
// round-trips.
func TestRetiredActErrorRecordRefused(t *testing.T) {
	old := binary.AppendUvarint(nil, 429)
	old = binary.AppendUvarint(old, 2)
	old = tagrec.AppendStr(old, "playsvc: node over capacity, retry later")
	// withRecord appends one record to a whole container, CRC redone.
	withRecord := func(container []byte, tag uint64) []byte {
		b := append([]byte(nil), container[:len(container)-4]...)
		return tagrec.Finish(tagrec.Append(b, tag, old), 0)
	}

	reply := EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s", Tick: 1}})
	if _, err := ParseReplyFrame(withRecord(reply, 99)); err != nil {
		t.Fatalf("a reply with an unknown record: %v, want it skipped", err)
	}
	if _, err := ParseReplyFrame(withRecord(reply, rtagErrorV1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("a reply with the retired act-error record parsed: %v", err)
	}
	want := &Error{Status: 429, Msg: "playsvc: node over capacity, retry later"}
	if got, err := ParseReplyFrame(EncodeReplyFrame(&BatchReply{Reply: &Reply{Session: "s"}, ActErr: want})); err != nil || !reflect.DeepEqual(got.ActErr, want) {
		t.Fatalf("act error round trip = %+v, %v; want %+v", got, err, want)
	}

	env := (&envelope{Session: "s", Course: "classroom", Snapshot: []byte("snap")}).encode()
	if _, err := decodeEnvelope(withRecord(env, 99)); err != nil {
		t.Fatalf("an envelope with an unknown record: %v, want it skipped", err)
	}
	if _, err := decodeEnvelope(withRecord(env, envTagLastErrV1)); !errors.Is(err, runtime.ErrBadSnapshot) {
		t.Fatalf("an envelope with the retired act-error record decoded: %v", err)
	}
	full := &envelope{Session: "s", Course: "classroom", Snapshot: []byte("snap"), LastBase: 3, LastLen: 1, LastErr: want}
	if got, err := decodeEnvelope(full.encode()); err != nil || !reflect.DeepEqual(got.LastErr, want) {
		t.Fatalf("envelope act error round trip = %+v, %v; want %+v", got, err, want)
	}
}
