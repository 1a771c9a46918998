package playsvc

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestRoomGoldenBroadcast drives a shared session over the wire while a
// local reference session replays the exact same acts, and asserts every
// watcher's replica renders bit-identical frames at matching seqs and
// holds the full event and message transcript from the create — the
// classroom sees exactly what the instructor's session shows, and the
// server renders none of it. A watcher whose package holds another
// project fails on the first state tag. It runs once against a node and
// once through a 2-node cluster's gateway, where every poll, answer and
// stats read is relayed.
func TestRoomGoldenBroadcast(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		ts, _ := liveService(t, Options{})
		roomGoldenBroadcast(t, ts.URL)
	})
	t.Run("gateway", func(t *testing.T) {
		_, ts := liveCluster(t, 2, Options{})
		roomGoldenBroadcast(t, ts.URL)
	})
}

func roomGoldenBroadcast(t *testing.T, baseURL string) {
	// The instructor seat: an ordinary client whose create opens the room.
	driver, err := Dial(ClientOptions{BaseURL: baseURL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	if created := roomStats(t, baseURL, roomID); created.Room != roomID || created.Seq != 0 || created.StateTag == 0 {
		t.Fatalf("room after its create = %+v, want seq 0 and the start state's tag", created)
	}
	// The room verbs are gone: a room opens only by its driver's create,
	// and a watcher neither joins nor leaves — it only reads.
	for path, body := range map[string]string{
		"/room/create": `{"course":"classroom"}`,
		"/room/join":   `{"watcher":"w1"}`,
		"/room/leave":  `{"watcher":"w1"}`,
	} {
		resp, err := http.Post(baseURL+path+"?room="+url.QueryEscape(roomID), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s answered %s, want 404", path, resp.Status)
		}
	}

	// The reference session: same package, same acts, local.
	var rec recorder
	ref, err := runtime.NewSession(classroomBlob(t), runtime.Options{Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}

	// Three watchers start before the lesson and poll in lockstep; each
	// therefore replays every act as it comes.
	pkg := classroomPkg(t)
	const watchers = 3
	wcs := make([]*RoomClient, watchers)
	for i := range wcs {
		wc, err := JoinRoom(RoomClientOptions{BaseURL: baseURL, Room: roomID, Pkg: pkg})
		if err != nil {
			t.Fatal(err)
		}
		wcs[i] = wc
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
	// one logged act — and the identical call on the reference session.
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

	// sawQuiz tracks which watchers' replicas showed the pending quiz.
	sawQuiz := make([]bool, watchers)
	pollOne := func(w int, hold time.Duration, wantSeq int64, wantCRC uint32) {
		t.Helper()
		wc := wcs[w]
		var f *raster.Frame
		for deadline := time.Now().Add(5 * time.Second); f == nil; {
			if time.Now().After(deadline) {
				t.Fatalf("watcher %d: no reply for seq %d", w, wantSeq)
			}
			var err error
			if f, err = wc.Poll(hold); err != nil {
				t.Fatalf("watcher %d poll: %v", w, err)
			}
		}
		if wc.Seq() != wantSeq {
			t.Fatalf("watcher %d: seq = %d, want %d", w, wc.Seq(), wantSeq)
		}
		if got := crcOf(f.Pix); got != wantCRC {
			t.Fatalf("watcher %d: frame crc at seq %d = %08x, want %08x", w, wc.Seq(), got, wantCRC)
		}
		if wc.PendingQuiz() == "q-diagnosis" {
			sawQuiz[w] = true
		}
	}

	// Lockstep: the create first — seq 0, the start frame, answered when a
	// short hold runs out with nothing logged — then one poll per watcher
	// per act.
	seedCRC := refCRC()
	for w := range wcs {
		pollOne(w, 10*time.Millisecond, 0, seedCRC)
	}
	for i, step := range steps {
		step.act(driver)
		if err := driver.Err(); err != nil {
			t.Fatalf("driver %s: %v", step.name, err)
		}
		step.act(ref)
		want := refCRC()
		for w := range wcs {
			pollOne(w, time.Second, int64(1+i), want)
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
	st := roomStats(t, baseURL, roomID)
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

	// The room logged one act per step and handed each watcher one reply
	// per seq; every replica ends in the driver's state.
	if st.Seq != int64(len(steps)) || st.Delivered != watchers*int64(1+len(steps)) {
		t.Fatalf("room logged %d acts and delivered %d replies, want %d and %d", st.Seq, st.Delivered, len(steps), watchers*(1+len(steps)))
	}
	for w, wc := range wcs {
		if wc.Delivered() != int64(1+len(steps)) || wc.StateTag() != st.StateTag {
			t.Fatalf("watcher %d applied %d replies and holds state %016x, want %d and the driver's %016x", w, wc.Delivered(), wc.StateTag(), 1+len(steps), st.StateTag)
		}
	}

	// Transcript equality against the reference run, from the create:
	// each replica emitted exactly the reference session's events and
	// messages.
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

	// A watcher holding the room's last act waits: an idle hold expires as
	// a 204.
	if f, err := wcs[0].Poll(50 * time.Millisecond); f != nil || err != nil {
		t.Fatalf("idle poll = %v, %v, want a clean timeout", f, err)
	}

	// A watcher whose package holds another project builds a replica the
	// driver's acts do not lead where the room's state tag says: it fails
	// on the first reply, and for good.
	other := *pkg.Project
	other.InitialVars = map[string]int{"stranger": 1}
	stranger, err := JoinRoom(RoomClientOptions{BaseURL: baseURL, Room: roomID, Pkg: &gamepack.Package{Project: &other, Video: pkg.Video}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stranger.Poll(time.Second); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("a watcher of another project polled: %v, want a divergence", err)
	}
	if _, err := stranger.Poll(time.Second); err == nil || stranger.Close() == nil {
		t.Fatal("the divergence did not stick")
	}

	// The driver leaving ends the class: the room closes and a waiting
	// watcher is released with 404, not left hanging.
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wcs[0].Poll(time.Second); err == nil {
		t.Fatal("poll after room close did not fail")
	} else if pe, ok := err.(*Error); !ok || pe.Status != 404 {
		t.Fatalf("poll after room close: %v", err)
	}
}

// TestRoomSlowWatcher pins the no-starvation contract and the catch-up: a
// watcher that stops polling costs the driver nothing, and loses nothing.
// A mirror driver plays 5 000 acts in batches of 16 while a live watcher
// polls alongside and a stalled one, which read the create and then
// nothing, waits. The driver's act latency histogram stays bounded; the
// stalled watcher then catches up in one reply per maxFrameActs acts —
// each ending on one of the driver's batches — and both replicas hold the
// driver's whole transcript, more than 4 096 events, and its state.
func TestRoomSlowWatcher(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	pkg := classroomPkg(t)
	var rec recorder
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: pkg.Project,
		LocalMirror: true, Pkg: pkg, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	join := func() *RoomClient {
		wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, Pkg: pkg})
		if err != nil {
			t.Fatal(err)
		}
		return wc
	}
	stalled, live := join(), join()
	if f, err := stalled.Poll(time.Millisecond); err != nil || f == nil || stalled.Seq() != 0 {
		t.Fatalf("the stalled watcher's first read: %v at seq %d, %v", f, stalled.Seq(), err)
	}

	// The live watcher polls in a tight loop, like a real client keeping
	// up with the broadcast.
	var lastSeq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := live.Poll(50 * time.Millisecond); err != nil {
				t.Error(err)
				return
			}
			lastSeq.Store(live.Seq())
		}
	}()

	// The driver talks and ticks away while the stalled watcher reads
	// nothing.
	const acts = 5000
	for i := 0; i < acts; i++ {
		if i%2 == 0 {
			driver.Talk("teacher")
		} else if err := driver.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := driver.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.log()); n <= 4096 {
		t.Fatalf("the driver emitted %d events, want more than 4 096", n)
	}
	for deadline := time.Now().Add(10 * time.Second); lastSeq.Load() != acts; {
		if time.Now().After(deadline) {
			t.Fatalf("the live watcher stopped at seq %d of %d", lastSeq.Load(), acts)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The starvation assertion rides the act histogram, not a guess: every
	// driver batch was measured, and the tail must not show fan-out
	// backpressure from the stalled watcher. The bound is generous (race
	// detector, shared CI) — a blocking fan-out would park acts behind an
	// 8s poll hold, orders of magnitude past it.
	snap := m.actNs.Snapshot()
	if snap.Count < acts/mirrorBatch {
		t.Fatalf("act histogram recorded %d batches, want >= %d", snap.Count, acts/mirrorBatch)
	}
	if p99 := time.Duration(snap.Quantile(0.99)); p99 > 250*time.Millisecond {
		t.Fatalf("driver act p99 = %v with a stalled watcher; fan-out is backpressuring the act path", p99)
	}

	// The catch-up: maxFrameActs is a whole number of the driver's
	// batches, so each reply carries exactly that many acts but the last.
	for stalled.Seq() < acts {
		before := stalled.Seq()
		if f, err := stalled.Poll(0); err != nil || f == nil {
			t.Fatalf("catch-up from seq %d: %v, %v", before, f, err)
		}
		if got, want := stalled.Seq()-before, min(int64(maxFrameActs), acts-before); got != want {
			t.Fatalf("a catch-up reply from seq %d carried %d acts, want %d", before, got, want)
		}
	}
	if want := 1 + (acts+maxFrameActs-1)/maxFrameActs; stalled.Delivered() != int64(want) {
		t.Fatalf("the stalled watcher took %d replies, want %d", stalled.Delivered(), want)
	}
	st := roomStats(t, ts.URL, roomID)
	if st.Seq != acts || st.Delivered != stalled.Delivered()+live.Delivered() || stat(t, m.Snapshot(), "room_frames_delivered") != st.Delivered {
		t.Fatalf("room %+v: want seq %d and %d + %d replies delivered (manager %d)", st, acts,
			stalled.Delivered(), live.Delivered(), stat(t, m.Snapshot(), "room_frames_delivered"))
	}
	for name, wc := range map[string]*RoomClient{"stalled": stalled, "live": live} {
		if wc.StateTag() != st.StateTag {
			t.Errorf("watcher %s holds state %016x, the driver %016x", name, wc.StateTag(), st.StateTag)
		}
		if got := wc.Events(); !reflect.DeepEqual(got, rec.log()) {
			t.Errorf("watcher %s holds %d events, the driver emitted %d", name, len(got), len(rec.log()))
		}
		if got := wc.Messages(); !reflect.DeepEqual(got, driver.Messages()) {
			t.Errorf("watcher %s holds %d messages, the driver %d", name, len(got), len(driver.Messages()))
		}
	}
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
}

// classroomPkg opens the classroom package, as a watcher holds it.
func classroomPkg(t testing.TB) *gamepack.Package {
	t.Helper()
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// classroomActs is n acts of a lesson: the teacher talked to and the
// computer examined, then ticks.
func classroomActs(n int) []ActRequest {
	acts := make([]ActRequest, n)
	for i := range acts {
		acts[i] = ActRequest{Kind: ActTick, Ticks: 1}
	}
	acts[0] = ActRequest{Kind: ActTalk, Object: "teacher"}
	acts[1] = ActRequest{Kind: ActExamine, Object: "computer"}
	return acts
}

// drivenRoom opens a room on a fresh manager and applies acts to it, one
// driver batch each.
func drivenRoom(t testing.TB, acts []ActRequest) *Room {
	t.Helper()
	m := NewManager(Options{TTL: -1})
	t.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	const roomID = "classroom-0123456789abcdef"
	if _, err := m.Act(&ActRequest{Session: roomID, Course: "classroom", Room: true}); err != nil {
		t.Fatal(err)
	}
	for i := range acts {
		a := acts[i]
		a.Session = roomID
		if _, err := m.Act(&a); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := m.Room(roomID)
	if !ok {
		t.Fatal("room not registered")
	}
	return r
}

// roomStats reads a room's counters over the wire.
func roomStats(t *testing.T, baseURL, room string) RoomStats {
	t.Helper()
	var st RoomStats
	if err := faultnet.GetJSON(nil, baseURL+RoomStatsPath+"?room="+url.QueryEscape(room), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// requestDropper loses the first POST before the server sees it — the
// packet a crowded classroom link drops — and forwards everything else.
type requestDropper struct{ dropped atomic.Int64 }

func (d *requestDropper) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && d.dropped.CompareAndSwap(0, 1) {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, faultnet.ErrDropped
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRoomCreateSurvivesDroppedRequest: a room whose first create attempt
// is lost on the way still opens. The create is an ordinary framed create
// under a client-minted id, so Dial retries it — thin or mirror, Dial
// sends it at once — and the room is there before the driver's first act:
// at seq 0, in the start state, one session created. A create whose reply
// was lost is retried into the room it already opened.
func TestRoomCreateSurvivesDroppedRequest(t *testing.T) {
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, mirror := range []bool{false, true} {
		for _, replyLost := range []bool{false, true} {
			name := "request dropped"
			if replyLost {
				name = "reply lost"
			}
			if mirror {
				name = "mirror " + name
			}
			t.Run(name, func(t *testing.T) {
				ts, m := liveService(t, Options{TTL: -1})
				var link http.RoundTripper
				var lost func() int64
				if replyLost {
					eater := &replyEater{path: ActV2Path}
					link, lost = eater, eater.eaten.Load
				} else {
					drop := &requestDropper{}
					link, lost = drop, drop.dropped.Load
				}
				driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true,
					Project: content.Classroom().Project, LocalMirror: mirror, Pkg: pkg, HTTP: &http.Client{Transport: link}})
				if err != nil {
					t.Fatalf("room create did not survive one lost exchange: %v", err)
				}
				if lost() != 1 {
					t.Fatal("no exchange was lost; the test proved nothing")
				}
				st := roomStats(t, ts.URL, driver.SessionID())
				if st.Seq != 0 || st.StateTag == 0 {
					t.Fatalf("room before any act = %+v, want seq 0 and the start state's tag", st)
				}
				if created := stat(t, m.Snapshot(), "sessions_created"); created != 1 {
					t.Fatalf("sessions_created = %d after one retried room create, want 1", created)
				}
				if err := driver.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// replyEater forwards every request and loses the first reply on one path
// — the server applied the request, the client never hears so.
type replyEater struct {
	path  string
	eaten atomic.Int64
}

func (e *replyEater) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == e.path && e.eaten.CompareAndSwap(0, 1) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, faultnet.ErrReset
	}
	return resp, err
}

// TestWatchRetryReturnsItsPublication: a watch is a read, so one retried after
// its reply was lost returns the same acts at once — the lost attempt took
// nothing from the room — instead of waiting out its hold for the next
// publish. The same watcher then pins what a dismissal costs: the room's
// 404 is terminal — one request, no backoff sleep.
func TestWatchRetryReturnsItsPublication(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	driver.Talk("teacher")
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	eater := &replyEater{path: RoomWatchPath}
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, Pkg: classroomPkg(t), HTTP: &http.Client{Transport: eater}})
	if err != nil {
		t.Fatal(err)
	}
	const hold = 4 * time.Second
	began := time.Now()
	f, err := wc.Poll(hold)
	waited := time.Since(began)
	if err != nil {
		t.Fatalf("watch did not survive one lost reply: %v", err)
	}
	if eater.eaten.Load() != 1 {
		t.Fatal("no watch reply was lost; the test proved nothing")
	}
	if f == nil || wc.Seq() != 1 || waited >= hold/2 {
		t.Fatalf("retried watch returned %v at seq %d after %v; want seq 1 at once", f, wc.Seq(), waited)
	}
	if wc.Delivered() != 1 {
		t.Fatalf("watcher applied %d replies, want 1", wc.Delivered())
	}

	// Class dismissed: the driver leaves, the room closes.
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	wc.opts.HTTP = &http.Client{Transport: ct}
	slept := 0
	wc.retry.Sleep = func(time.Duration) { slept++ }
	_, err = wc.Poll(time.Second)
	if pe, ok := err.(*Error); !ok || pe.Status != http.StatusNotFound {
		t.Fatalf("poll after the driver left: %v, want the room's 404", err)
	}
	if n := ct.count(RoomWatchPath); n != 1 || slept != 0 {
		t.Fatalf("dismissal took %d requests and %d backoff sleeps, want 1 and 0", n, slept)
	}
}

// TestRoomWatchRejectsMalformedNumbers: a seq or hold that is not a
// decimal integer, or a negative seq, is refused with 400 before the room
// is looked up (a dropped parse error would serve seq=abc as 0 and re-send
// the whole log), while absent or empty values and a wait_ms ≤ 0 keep
// their defaults.
func TestRoomWatchRejectsMalformedNumbers(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	driver.Talk("teacher")
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	watch := func(room, query string) int {
		t.Helper()
		q := url.Values{"room": {room}}.Encode()
		resp, err := http.Get(ts.URL + RoomWatchPath + "?" + q + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, key := range []string{"seq", "wait_ms"} {
		bad := []string{"abc", "1.5", "0x10", "-", "9999999999999999999999"}
		if key != "wait_ms" {
			bad = append(bad, "-1")
		}
		for _, v := range bad {
			for _, room := range []string{driver.SessionID(), "no-such-room"} {
				if code := watch(room, "&"+key+"="+url.QueryEscape(v)); code != http.StatusBadRequest {
					t.Errorf("room %s, %s=%q answered %d, want 400", room, key, v, code)
				}
			}
		}
	}
	// The driver has acted, so a watch at seq 0 is answered at once
	// whatever its hold.
	if code := watch(driver.SessionID(), "&seq=&wait_ms=-5"); code != http.StatusOK {
		t.Fatalf("watch with default numbers answered %d, want 200", code)
	}
	if code := watch(driver.SessionID(), "&wait_ms=1"); code != http.StatusOK {
		t.Fatalf("watch without a seq answered %d, want 200", code)
	}
	// A watcher holding the room's last act waits out its hold; one naming
	// a seq past the room's is served as seq 0.
	if code := watch(driver.SessionID(), "&seq=1&wait_ms=1"); code != http.StatusNoContent {
		t.Fatalf("watch at the current seq answered %d, want 204", code)
	}
	if code := watch(driver.SessionID(), "&seq=99&wait_ms=1"); code != http.StatusOK {
		t.Fatalf("watch past the room's seq answered %d, want 200", code)
	}
}

// TestRoomLossyLink runs a class over crowded wifi: the driver's create
// that opens the room, every poll, answer and driver act crosses one
// wifi-flaky fault transport
// (dropped requests, lost replies, injected 503s, stalls). The driver plays
// the golden script and then keeps the room ticking until the transport has
// injected every fault class and the cohort has caught up. No watcher may
// fail on the way, every watcher's transcript must equal the driver's —
// a lost reply is re-read, so no act gaps or repeats on a replica — and
// each watcher's quiz answer counts once however often it was sent.
func TestRoomLossyLink(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	profile, _ := faultnet.Lookup("wifi-flaky")
	faulty := faultnet.WrapClient(nil, profile, 24)
	injected := faulty.Transport.(*faultnet.Transport).Stats

	// The room opens with its driver's create, retried like any create.
	var rec recorder
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project, HTTP: faulty, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	pkg := classroomPkg(t)
	const watchers = 6
	wcs := make([]*RoomClient, watchers)
	for i := range wcs {
		if wcs[i], err = JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, Pkg: pkg, HTTP: faulty}); err != nil {
			t.Fatal(err)
		}
	}

	// Each watcher follows the class on its own goroutine until the room
	// is gone. When the lesson is over it answers the quiz — wrong first,
	// then moving its vote to choice w%2 — and goes back to polling.
	var (
		seenEvents, seenMessages [watchers]atomic.Int64
		lessonOver               = make(chan struct{})
		dismissed                atomic.Bool
		answered, gone           sync.WaitGroup
	)
	answered.Add(watchers)
	gone.Add(watchers)
	for w, wc := range wcs {
		go func() {
			defer gone.Done()
			voted := false
			for {
				_, err := wc.Poll(100 * time.Millisecond)
				if err != nil {
					if pe, ok := err.(*Error); !ok || pe.Status != http.StatusNotFound || !dismissed.Load() {
						t.Errorf("watcher %d: sticky error on a lossy link: %v", w, err)
					}
					if !voted {
						answered.Done()
					}
					return
				}
				seenEvents[w].Store(int64(len(wc.events.events)))
				seenMessages[w].Store(int64(len(wc.Messages())))
				select {
				case <-lessonOver:
					if !voted {
						voted = true
						for _, choice := range []int{1 - w%2, w % 2} {
							if _, err := wc.Answer("q-diagnosis", choice); err != nil {
								t.Errorf("watcher %d answer: %v", w, err)
							}
						}
						answered.Done()
					}
				default:
				}
			}
		}()
	}

	for _, act := range []func(){
		func() { driver.Talk("teacher") },
		func() { _ = driver.Advance(1) },
		func() { driver.Examine("computer") },
		func() { _, _ = driver.AnswerQuiz("q-diagnosis", 1) },
		func() { driver.Take("desk-coin") },
	} {
		act()
		if err := driver.Err(); err != nil {
			t.Fatalf("driver: %v", err)
		}
	}
	// A watch whose reply is lost is re-read from the same seq, so the
	// class runs on, one tick at a time, until every watcher holds the
	// whole transcript and the link has shown every fault it has.
	caughtUp := func() bool {
		if st := injected(); st.Drops == 0 || st.Resets == 0 || st.Errors == 0 {
			return false
		}
		events, messages := int64(len(rec.log())), int64(len(driver.Messages()))
		for w := range wcs {
			if seenEvents[w].Load() < events || seenMessages[w].Load() < messages {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(20 * time.Second); !caughtUp(); {
		if time.Now().After(deadline) {
			t.Fatalf("class never caught up: faults %+v", injected())
		}
		if err := driver.Advance(1); err != nil {
			t.Fatalf("driver tick: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	refEvents, refMsgs := rec.log(), driver.Messages()
	close(lessonOver)
	answered.Wait()

	st, err := m.RoomStatsOf(roomID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Answers != watchers {
		t.Fatalf("room counts %d answers, want %d (retried answers count once)", st.Answers, watchers)
	}
	if len(st.Quizzes) != 1 || st.Quizzes[0].Answers != watchers || st.Quizzes[0].Votes[0] != watchers/2 || st.Quizzes[0].Votes[1] != watchers/2 {
		t.Fatalf("cohort tally = %+v, want %d answers split evenly", st.Quizzes, watchers)
	}

	dismissed.Store(true)
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	gone.Wait()
	for w, wc := range wcs {
		if got := wc.Events(); !reflect.DeepEqual(got, refEvents) {
			t.Errorf("watcher %d events diverge from the driver's (%d vs %d):\n got %+v\nwant %+v", w, len(got), len(refEvents), got, refEvents)
		}
		if got := wc.Messages(); !reflect.DeepEqual(got, refMsgs) {
			t.Errorf("watcher %d messages diverge:\n got %q\nwant %q", w, got, refMsgs)
		}
		if wc.Seq() > st.Seq {
			t.Errorf("watcher %d holds seq %d of the room's %d", w, wc.Seq(), st.Seq)
		}
	}
	t.Logf("%d acts over %+v", st.Seq, injected())
}

// TestFirstWatchIsTheCatchUp: a watcher's first poll (seq 0) is the
// catch-up — the create and every act the driver applied before it, from
// which the replica rebuilds the frame, every event and message and the
// pending quiz — and it is a read of the room alone: it returns while the
// test holds the driven session's lock. The
// room also rides the idle sweep with its driver: a driver that acted
// after the cutoff survives ExpireIdle, and its room stays open.
func TestFirstWatchIsTheCatchUp(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	var rec recorder
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	cutoff := time.Now()
	time.Sleep(time.Millisecond)
	driver.Talk("teacher")
	driver.Examine("computer")
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	q, pending := driver.PendingQuiz()
	if !pending || len(driver.Messages()) == 0 {
		t.Fatalf("driver setup: quiz pending %v, %d messages; want a quiz and a transcript", pending, len(driver.Messages()))
	}
	if n := m.ExpireIdle(cutoff); n != 0 {
		t.Fatalf("the sweep reclaimed %d sessions, want the driver kept", n)
	}
	if _, ok := m.Room(roomID); !ok || m.Live() != 1 {
		t.Fatalf("after the sweep: room open %v, %d live sessions; want the room and its driver", ok, m.Live())
	}

	h, err := m.lookup(roomID)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, Pkg: classroomPkg(t)})
	if err != nil {
		t.Fatal(err)
	}
	type polled struct {
		f   *raster.Frame
		err error
	}
	done := make(chan polled, 1)
	h.mu.Lock()
	go func() {
		f, err := wc.Poll(2 * time.Second)
		done <- polled{f, err}
	}()
	var got polled
	select {
	case got = <-done:
		h.mu.Unlock()
	case <-time.After(2 * time.Second):
		h.mu.Unlock()
		<-done
		t.Fatal("the first watch waited on the driven session's lock")
	}
	if got.err != nil || got.f == nil {
		t.Fatalf("first poll: frame %v, err %v; want the catch-up at once", got.f, got.err)
	}
	if wc.Seq() != 2 || wc.PendingQuiz() != q.ID {
		t.Fatalf("first poll at seq %d with quiz %q, want seq 2 and %q", wc.Seq(), wc.PendingQuiz(), q.ID)
	}
	if !reflect.DeepEqual(wc.Events(), rec.log()) {
		t.Fatalf("watcher events after one poll:\n got %v\nwant %v", wc.Events(), rec.log())
	}
	if !reflect.DeepEqual(wc.Messages(), driver.Messages()) {
		t.Fatalf("watcher messages after one poll = %q, want %q", wc.Messages(), driver.Messages())
	}
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAnswerNamesItsVoter: the room keeps no watcher, so an answer is
// admitted on its own terms. It must name the watcher that votes (an
// empty id is 400, on the wire too), and a quiz's tally admits at most
// roomWatcherCap distinct voters: a new voter past the cap is 503, while
// a voter already counted may still move its vote.
func TestAnswerNamesItsVoter(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	roomID := driver.SessionID()
	driver.Talk("teacher")
	driver.Examine("computer") // opens q-diagnosis
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+RoomAnswerPath+"?room="+url.QueryEscape(roomID), "application/json",
		strings.NewReader(`{"quiz":"q-diagnosis","choice":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("an answer with no watcher id answered %s, want 400", resp.Status)
	}

	answer := func(watcher string) error {
		_, err := m.AnswerRoom(&RoomAnswerRequest{Room: roomID, Watcher: watcher, Quiz: "q-diagnosis", Choice: 1})
		return err
	}
	for i := 0; i < roomWatcherCap; i++ {
		if err := answer(fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatalf("voter %d: %v", i, err)
		}
	}
	if err := answer("w-late"); httpStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("a new voter past the cap: %v, want 503", err)
	}
	if err := answer("w-0"); err != nil {
		t.Fatalf("a counted voter re-answering past the cap: %v", err)
	}
	if st, err := m.RoomStatsOf(roomID); err != nil || st.Answers != roomWatcherCap {
		t.Fatalf("room stats %+v, %v; want %d answers", st, err, roomWatcherCap)
	}
}

// TestWatcherRefusesRepliesItCannotFollow: a watch reply is replayed on
// the watcher's replica only when it follows from what the replica holds.
// A reply naming another session, acts with no create before them, a
// create past seq 0, an act the replica refuses or a state the replica
// does not reach fails the watcher for good, before it renders anything.
func TestWatcherRefusesRepliesItCannotFollow(t *testing.T) {
	tick := []ActRequest{{Kind: ActTick, Ticks: 1}}
	for _, tc := range []struct {
		name  string
		reply BatchRequest
		want  string
	}{
		{"another session", BatchRequest{Session: "other", Create: "classroom", BaseSeq: 1, Acts: tick}, "names session"},
		{"acts before a create", BatchRequest{Session: "r", BaseSeq: 1, Acts: tick}, "reached a replica at seq 0"},
		{"a create past seq 0", BatchRequest{Session: "r", Create: "classroom", BaseSeq: 2, Acts: tick}, "a create at base seq 2"},
		{"a refused act", BatchRequest{Session: "r", Create: "classroom", BaseSeq: 1,
			Acts: []ActRequest{{Kind: ActSelect, Item: "no-such-item"}}}, "refused act 1"},
		{"a leave", BatchRequest{Session: "r", Create: "classroom", BaseSeq: 1,
			Acts: []ActRequest{{Kind: ActLeave}}}, "refused act 1"},
		{"another state", BatchRequest{Session: "r", Create: "classroom", BaseSeq: 1, StateTag: 1, Acts: tick}, "diverged at seq 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var watches atomic.Int64
			ts := stubPlayServer(t, func(w http.ResponseWriter, r *http.Request) {
				watches.Add(1)
				w.Write(EncodeActFrame(&tc.reply))
			})
			wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: "r", Pkg: classroomPkg(t)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wc.Poll(time.Second); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Poll() = %v, want a %q refusal", err, tc.want)
			}
			if _, err := wc.Poll(time.Second); err == nil || watches.Load() != 1 || wc.Close() == nil {
				t.Fatalf("the refusal did not stick: %v after %d watches", err, watches.Load())
			}
			if cap(wc.frame.Pix) != 0 || wc.Delivered() != 0 {
				t.Fatalf("a refused reply rendered a frame (%d bytes) or counted (%d)", cap(wc.frame.Pix), wc.Delivered())
			}
		})
	}
}

// TestWatchReplyBoundedInBytes: a reply carries at most maxBody bytes of
// act records, ending on a batch boundary, however large the driver's
// acts: twelve 200 kB acts, one batch each, reach a watcher at seq 0 in
// three replies (five acts, five, two).
func TestWatchReplyBoundedInBytes(t *testing.T) {
	acts := make([]ActRequest, 12)
	for i := range acts {
		acts[i] = ActRequest{Kind: ActTalk, Object: strings.Repeat("x", 200<<10)}
	}
	r := drivenRoom(t, acts)
	var seqs []int64
	for seq := int64(0); seq < int64(len(acts)); {
		reply, next, err := r.WatchNext(seq, 0, nil)
		if err != nil || len(reply) > maxBody+64 {
			t.Fatalf("reply from seq %d: %d bytes, %v; want at most %d", seq, len(reply), err, maxBody+64)
		}
		seqs, seq = append(seqs, next), next
	}
	if !reflect.DeepEqual(seqs, []int64{5, 10, 12}) {
		t.Fatalf("replies ended at seqs %v, want [5 10 12]", seqs)
	}
}
