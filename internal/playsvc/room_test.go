package playsvc

import (
	"hash/crc32"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestRoomGoldenBroadcast drives a shared session over the wire while a
// local reference session replays the exact same acts, and asserts every
// watcher receives bit-identical frames at matching sequence numbers plus
// the full event and message transcript — the classroom sees exactly what
// the instructor's session rendered, once per state change. It runs once
// against a node and once through a 2-node cluster's gateway, where every
// join, poll, answer and stats read is relayed.
func TestRoomGoldenBroadcast(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		ts, _ := liveService(t, Options{Shards: 4})
		roomGoldenBroadcast(t, ts.URL)
	})
	t.Run("gateway", func(t *testing.T) {
		_, ts := liveCluster(t, 2, Options{})
		roomGoldenBroadcast(t, ts.URL)
	})
}

func roomGoldenBroadcast(t *testing.T, baseURL string) {
	const roomID = "classroom-golden-room"
	created, err := CreateRoom(baseURL, &RoomCreateRequest{Course: "classroom", Room: roomID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if created.Room != roomID || created.Seq != 1 {
		t.Fatalf("create reply = %+v", created)
	}

	// The reference session: same package, same acts, local.
	var rec recorder
	ref, err := runtime.NewSession(classroomBlob(t), runtime.Options{Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Three ordered watchers join before the lesson starts; each therefore
	// sees the full publication sequence from seq 1.
	const watchers = 3
	wcs := make([]*RoomClient, watchers)
	for i := range wcs {
		wc, err := JoinRoom(RoomClientOptions{BaseURL: baseURL, Room: roomID, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		wcs[i] = wc
	}

	// The instructor seat: an ordinary client resumed onto the room id.
	driver, err := Dial(ClientOptions{BaseURL: baseURL, Resume: roomID, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}

	crcOf := func(pix []byte) uint32 { return crc32.ChecksumIEEE(pix) }
	refCRC := func() uint32 {
		f, err := ref.Frame()
		if err != nil {
			t.Fatal(err)
		}
		return crcOf(f.Pix)
	}

	// The golden script. Each step issues exactly one act on the driver —
	// one publication — and the identical call on the reference session.
	steps := []struct {
		name string
		act  func(g sim.Game)
	}{
		{"talk teacher", func(g sim.Game) { g.Talk("teacher") }},
		{"advance", func(g sim.Game) { _ = g.Advance(1) }},
		{"examine computer", func(g sim.Game) { g.Examine("computer") }},
		{"answer diagnosis", func(g sim.Game) { _, _ = g.AnswerQuiz("q-diagnosis", 1) }},
		{"take coin", func(g sim.Game) { g.Take("desk-coin") }},
		{"advance again", func(g sim.Game) { _ = g.Advance(1) }},
	}

	// sawQuiz tracks which watchers observed the pending quiz in a chunk.
	sawQuiz := make([]bool, watchers)
	pollOne := func(w int, wantSeq int64, wantCRC uint32) {
		t.Helper()
		wc := wcs[w]
		var u *WatchUpdate
		for deadline := time.Now().Add(5 * time.Second); u == nil; {
			if time.Now().After(deadline) {
				t.Fatalf("watcher %d: no publication for seq %d", w, wantSeq)
			}
			var err error
			u, _, err = wc.Poll(time.Second)
			if err != nil {
				t.Fatalf("watcher %d poll: %v", w, err)
			}
		}
		if u.Seq != wantSeq {
			t.Fatalf("watcher %d: seq = %d, want %d (skipped=%d)", w, u.Seq, wantSeq, u.Skipped)
		}
		if got := crcOf(wc.frame.Pix); got != wantCRC {
			t.Fatalf("watcher %d: frame crc at seq %d = %08x, want %08x", w, u.Seq, got, wantCRC)
		}
		if u.Quiz == "q-diagnosis" {
			sawQuiz[w] = true
		}
	}

	// Lockstep: the seed publication first (the ring seeds joiners with the
	// create-time frame), then one poll per watcher per act — no watcher
	// ever falls behind, so the golden run must skip nothing.
	seedCRC := refCRC()
	for w := range wcs {
		pollOne(w, 1, seedCRC)
	}
	for i, step := range steps {
		step.act(driver)
		if err := driver.Err(); err != nil {
			t.Fatalf("driver %s: %v", step.name, err)
		}
		step.act(ref)
		want := refCRC()
		for w := range wcs {
			pollOne(w, int64(2+i), want)
		}
	}

	// Every watcher saw the quiz the instructor opened, and answers tally
	// per cohort member: watcher 0 answers correctly, the rest pick the
	// wrong choice; a re-answer moves the vote instead of double-counting.
	for w, wc := range wcs {
		if !sawQuiz[w] {
			t.Fatalf("watcher %d never saw quiz q-diagnosis", w)
		}
		choice := 0
		if w == 0 {
			choice = 1
		}
		reply, err := wc.Answer("q-diagnosis", choice)
		if err != nil {
			t.Fatalf("watcher %d answer: %v", w, err)
		}
		if (w == 0) != reply.Correct {
			t.Fatalf("watcher %d: correct = %v", w, reply.Correct)
		}
	}
	if _, err := wcs[1].Answer("q-diagnosis", 1); err != nil {
		t.Fatal(err)
	}
	st, err := wcs[0].RoomStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Answers != watchers {
		t.Fatalf("answers = %d, want %d (re-answer must not double count)", st.Answers, watchers)
	}
	if len(st.Quizzes) != 1 || st.Quizzes[0].Quiz != "q-diagnosis" {
		t.Fatalf("quizzes = %+v", st.Quizzes)
	}
	if votes := st.Quizzes[0].Votes; votes[0] != 1 || votes[1] != 2 {
		t.Fatalf("votes = %v (watcher 1 moved its vote to the correct choice)", votes)
	}
	if st.Quizzes[0].Correct != 2 {
		t.Fatalf("correct answers = %d, want 2", st.Quizzes[0].Correct)
	}

	// Render exactness: the seed publication plus one per act, no extras —
	// a thousand watchers would not have changed this number.
	if want := int64(1 + len(steps)); st.Renders != want {
		t.Fatalf("renders = %d, want %d", st.Renders, want)
	}
	if st.Skipped != 0 {
		t.Fatalf("lockstep run skipped %d frames", st.Skipped)
	}

	// Transcript equality against the reference run: frames may skip in a
	// congested classroom, events and messages never do — here both arrive
	// complete and in order (join tail plus per-chunk deltas).
	refEvents := rec.log()
	refMsgs := ref.Messages()
	for w := range wcs {
		if got := wcs[w].Events(); !reflect.DeepEqual(got, refEvents) {
			t.Fatalf("watcher %d events diverge:\n got %+v\nwant %+v", w, got, refEvents)
		}
		if got := wcs[w].Messages(); !reflect.DeepEqual(got, refMsgs) {
			t.Fatalf("watcher %d messages diverge:\n got %q\nwant %q", w, got, refMsgs)
		}
	}

	// Every publication is consumed: an idle hold expires as a 204.
	if u, _, err := wcs[0].Poll(50 * time.Millisecond); u != nil || err != nil {
		t.Fatalf("idle poll = %+v, %v, want a clean timeout", u, err)
	}

	// The driver leaving ends the class: the room closes and a waiting
	// watcher is released with 404, not left hanging.
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wcs[0].Poll(time.Second); err == nil {
		t.Fatal("poll after room close did not fail")
	} else if pe, ok := err.(*Error); !ok || pe.Status != 404 {
		t.Fatalf("poll after room close: %v", err)
	}
}

// TestRoomSlowWatcher pins the no-starvation contract: a subscriber that
// never drains its ring must cost the driver nothing. The driver's act
// latency histogram stays bounded while the stalled watcher's ring
// overflows (frames skipped, counted), and a live watcher polling
// alongside keeps receiving fresh frames.
func TestRoomSlowWatcher(t *testing.T) {
	m := NewManager(Options{Shards: 4, TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	const roomID = "classroom-slow-room"
	if _, err := m.CreateRoom(&RoomCreateRequest{Course: "classroom", Room: roomID}); err != nil {
		t.Fatal(err)
	}
	room, ok := m.Room(roomID)
	if !ok {
		t.Fatal("room not registered")
	}
	for _, w := range []string{"stalled", "live"} {
		if _, err := m.JoinRoom(&RoomJoinRequest{Room: roomID, Watcher: w}); err != nil {
			t.Fatal(err)
		}
	}

	// The live watcher drains latest-first in a tight loop, like a real
	// client keeping up with the broadcast.
	var delivered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var dst []byte
		seenE, seenM := 0, 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			header, _, ae, am, err := room.WatchNext("live", seenE, seenM, true, 50*time.Millisecond, dst[:0])
			if err != nil {
				return
			}
			if header != nil {
				delivered.Add(1)
				dst = header
				seenE, seenM = ae, am
			}
		}
	}()

	// Wait until the live watcher has the seed publication — the driver
	// below outruns goroutine scheduling otherwise.
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("seed delivery", func() bool { return delivered.Load() >= 1 })

	// The driver ticks away; the stalled ring overflows within 4 acts and
	// keeps overflowing for the rest of the run.
	const acts = 200
	req := ActRequest{Session: roomID, Kind: ActTick, Ticks: 1}
	for i := 0; i < acts; i++ {
		r, err := m.Act(&req)
		if err != nil {
			t.Fatal(err)
		}
		req.SeenEvents, req.SeenMessages = r.EventCount, r.MessageCount
	}
	// The final publication is still in the live ring; the watcher must
	// reach it (latest-first) even though it skipped plenty in between.
	waitFor("fresh delivery", func() bool { return delivered.Load() >= 2 })
	close(stop)
	wg.Wait()

	// The starvation assertion rides the act histogram, not a guess: every
	// driver act was measured, and the tail must not show fan-out
	// backpressure from the stalled ring. The bound is generous (race
	// detector, shared CI) — a blocking fan-out would park acts behind an
	// 8s poll hold, orders of magnitude past it.
	snap := m.actNs.Snapshot()
	if snap.Count < acts {
		t.Fatalf("act histogram recorded %d acts, want >= %d", snap.Count, acts)
	}
	if p99 := time.Duration(snap.Quantile(0.99)); p99 > 250*time.Millisecond {
		t.Fatalf("driver act p99 = %v with a stalled subscriber; fan-out is backpressuring the act path", p99)
	}

	st, err := m.RoomStatsOf(roomID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + acts); st.Renders != want {
		t.Fatalf("renders = %d, want %d (one per state change, watchers notwithstanding)", st.Renders, want)
	}
	// The stalled watcher alone must have shed nearly every publication
	// (its ring keeps only roomRingSlots); the live watcher may add more.
	if min := int64(acts - 2*roomRingSlots); st.Skipped < min {
		t.Fatalf("skipped = %d, want >= %d from the stalled ring", st.Skipped, min)
	}
	if delivered.Load() == 0 {
		t.Fatal("live watcher starved while a peer stalled")
	}
}
