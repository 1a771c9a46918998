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
	"repro/internal/runtime"
	"repro/internal/sim"
)

// TestRoomGoldenBroadcast drives a shared session over the wire while a
// local reference session replays the exact same acts, and asserts every
// watcher receives bit-identical frames at matching sequence numbers plus
// the full event and message transcript — the classroom sees exactly what
// the instructor's session rendered, once per state change. It runs once
// against a node and once through a 2-node cluster's gateway, where every
// poll, answer and stats read is relayed.
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
	if created := roomStats(t, baseURL, roomID); created.Room != roomID || created.Seq != 1 {
		t.Fatalf("room after its create = %+v", created)
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
	// therefore sees the full publication sequence from seq 1.
	const watchers = 3
	wcs := make([]*RoomClient, watchers)
	for i := range wcs {
		wc, err := JoinRoom(RoomClientOptions{BaseURL: baseURL, Room: roomID})
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
			t.Fatalf("watcher %d: seq = %d, want %d (skipped=%d)", w, u.Seq, wantSeq, wc.Skipped())
		}
		if got := crcOf(wc.frame.Pix); got != wantCRC {
			t.Fatalf("watcher %d: frame crc at seq %d = %08x, want %08x", w, u.Seq, got, wantCRC)
		}
		if u.Quiz == "q-diagnosis" {
			sawQuiz[w] = true
		}
	}

	// Lockstep: the create-time publication first (a first poll reads the
	// room's current one), then one poll per watcher per act — no watcher
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
	for w, wc := range wcs {
		if wc.Skipped() != 0 || wc.Delivered() != st.Renders {
			t.Fatalf("watcher %d received %d and skipped %d of %d publications", w, wc.Delivered(), wc.Skipped(), st.Renders)
		}
	}

	// Transcript equality against the reference run: frames may skip in a
	// congested classroom, events and messages never do — here both arrive
	// complete and in order (first-poll tail plus per-chunk deltas).
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

	// A watcher holding the current publication waits: an idle hold
	// expires as a 204.
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

// TestRoomSlowWatcher pins the no-starvation contract: a watcher that
// stops polling costs the driver nothing. The driver's act latency
// histogram stays bounded and renders stay one per act while a live
// watcher polls alongside and keeps receiving fresh frames, and a stalled
// one, which read the first publication and then nothing until the driver
// is done, gets the newest at once with every act it missed counted as
// skipped. The room keeps no watcher, so the accounting is restated from
// seqs: for each watcher, delivered + skipped + pending (the publications
// after the one it holds) is every publication, and the room's delivered
// and skipped totals are the sums over the watchers.
func TestRoomSlowWatcher(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	const roomID = "classroom-slow-room"
	if _, err := m.Act(&ActRequest{Session: roomID, Course: "classroom", Room: true}); err != nil {
		t.Fatal(err)
	}
	room, ok := m.Room(roomID)
	if !ok {
		t.Fatal("room not registered")
	}

	// A watcher's whole state is what it holds: its position, plus the
	// deliveries and seq gaps it counts.
	type watcher struct {
		at                 WatchPos
		delivered, skipped int64
	}
	watch := func(w *watcher, wait time.Duration, dst []byte) ([]byte, error) {
		header, _, next, err := room.WatchNext(w.at, wait, dst)
		if err != nil || header == nil {
			return dst, err
		}
		if u, err := ParseWatchChunk(header[4:]); err != nil || u.Seq != next.Seq {
			return dst, fmt.Errorf("chunk %+v, %v; want seq %d", u, err, next.Seq)
		}
		if w.at.Seq > 0 {
			w.skipped += next.Seq - w.at.Seq - 1
		}
		w.at = next
		w.delivered++
		return header, nil
	}
	var stalled, live watcher
	if _, err := watch(&stalled, 0, nil); err != nil || stalled.at.Seq != 1 {
		t.Fatalf("the stalled watcher's first read: seq %d, %v", stalled.at.Seq, err)
	}

	// The live watcher polls in a tight loop, like a real client keeping
	// up with the broadcast.
	var lastSeq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var dst []byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if dst, err = watch(&live, 50*time.Millisecond, dst[:0]); err != nil {
				t.Error(err)
				return
			}
			lastSeq.Store(live.at.Seq)
		}
	}()

	// Wait until the live watcher has the first publication — the driver
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
	waitFor("the first delivery", func() bool { return lastSeq.Load() >= 1 })

	// The driver ticks away while the stalled watcher reads nothing.
	const acts = 200
	req := ActRequest{Session: roomID, Kind: ActTick, Ticks: 1}
	for i := 0; i < acts; i++ {
		r, err := m.Act(&req)
		if err != nil {
			t.Fatal(err)
		}
		req.SeenEvents, req.SeenMessages = r.EventCount, r.MessageCount
	}
	// The live watcher must reach the last publication, whatever it
	// skipped in between.
	waitFor("the last publication", func() bool { return lastSeq.Load() == 1+acts })
	close(stop)
	wg.Wait()

	// The starvation assertion rides the act histogram, not a guess: every
	// driver act was measured, and the tail must not show fan-out
	// backpressure from the stalled watcher. The bound is generous (race
	// detector, shared CI) — a blocking fan-out would park acts behind an
	// 8s poll hold, orders of magnitude past it.
	snap := m.actNs.Snapshot()
	if snap.Count < acts {
		t.Fatalf("act histogram recorded %d acts, want >= %d", snap.Count, acts)
	}
	if p99 := time.Duration(snap.Quantile(0.99)); p99 > 250*time.Millisecond {
		t.Fatalf("driver act p99 = %v with a stalled watcher; fan-out is backpressuring the act path", p99)
	}

	st, err := m.RoomStatsOf(roomID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + acts); st.Renders != want || st.Seq != want {
		t.Fatalf("renders = %d at seq %d, want %d (one per state change, watchers notwithstanding)", st.Renders, st.Seq, want)
	}
	// The stalled watcher holds seq 1: every act's publication is pending
	// for it. A read now returns the newest at once and skips the rest.
	if pending := st.Seq - stalled.at.Seq; pending != acts {
		t.Fatalf("%d publications pending for the stalled watcher, want %d", pending, acts)
	}
	if _, err := watch(&stalled, 0, nil); err != nil || stalled.at.Seq != st.Seq || stalled.skipped != acts-1 {
		t.Fatalf("the stalled watcher's second read: seq %d, %d skipped, %v; want seq %d, %d skipped", stalled.at.Seq, stalled.skipped, err, st.Seq, acts-1)
	}
	if st, err = m.RoomStatsOf(roomID); err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*watcher{"stalled": &stalled, "live": &live} {
		if got := w.delivered + w.skipped + (st.Seq - w.at.Seq); got != st.Seq {
			t.Errorf("watcher %s: delivered %d + skipped %d + pending %d = %d, want %d publications",
				name, w.delivered, w.skipped, st.Seq-w.at.Seq, got, st.Seq)
		}
	}
	if d, k := stalled.delivered+live.delivered, stalled.skipped+live.skipped; st.Delivered != d || st.Skipped != k {
		t.Fatalf("room counts %d delivered and %d skipped, the watchers %d and %d", st.Delivered, st.Skipped, d, k)
	}
	if flat := m.Snapshot(); stat(t, flat, "room_frames_delivered") != st.Delivered || stat(t, flat, "room_frames_skipped") != st.Skipped {
		t.Fatalf("manager counters %v disagree with the room's %+v", flat, st)
	}
	if skips := m.skipHist.Snapshot(); skips.Count != st.Delivered || skips.Sum != st.Skipped {
		t.Fatalf("playsvc_fanout_skipped holds %d deliveries summing %v, want %d summing %d", skips.Count, skips.Sum, st.Delivered, st.Skipped)
	}
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
// seq 1 published, one session created, one render. A create whose reply
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
				if st.Seq != 1 || st.Renders != 1 {
					t.Fatalf("room before any act = %+v, want seq 1 and one render", st)
				}
				flat := m.Snapshot()
				if created, renders := stat(t, flat, "sessions_created"), stat(t, flat, "room_renders"); created != 1 || renders != 1 {
					t.Fatalf("sessions_created = %d, room_renders = %d after one retried room create, want 1 each", created, renders)
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

// TestWatchRetryReturnsItsPublication: a watch is a read, so one retried
// after its reply was lost returns that publication at once — the lost
// attempt took nothing from the room — instead of waiting out its hold for
// the next publish. The same watcher then pins what a dismissal costs: the
// room's 404 is terminal — one request, no backoff sleep.
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
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, HTTP: &http.Client{Transport: eater}})
	if err != nil {
		t.Fatal(err)
	}
	const hold = 4 * time.Second
	began := time.Now()
	u, _, err := wc.Poll(hold)
	waited := time.Since(began)
	if err != nil {
		t.Fatalf("watch did not survive one lost reply: %v", err)
	}
	if eater.eaten.Load() != 1 {
		t.Fatal("no watch reply was lost; the test proved nothing")
	}
	if u == nil || u.Seq != 2 || waited >= hold/2 {
		t.Fatalf("retried watch returned %+v after %v; want seq 2 at once", u, waited)
	}
	if wc.Delivered() != 1 || wc.Skipped() != 0 {
		t.Fatalf("watcher received %d and skipped %d, want 1 and 0", wc.Delivered(), wc.Skipped())
	}

	// Class dismissed: the driver leaves, the room closes.
	if err := driver.Close(); err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	wc.opts.HTTP = &http.Client{Transport: ct}
	slept := 0
	wc.retry.Sleep = func(time.Duration) { slept++ }
	_, _, err = wc.Poll(time.Second)
	if pe, ok := err.(*Error); !ok || pe.Status != http.StatusNotFound {
		t.Fatalf("poll after the driver left: %v, want the room's 404", err)
	}
	if n := ct.count(RoomWatchPath); n != 1 || slept != 0 {
		t.Fatalf("dismissal took %d requests and %d backoff sleeps, want 1 and 0", n, slept)
	}
}

// TestRoomWatchRejectsMalformedNumbers: a seq, seen-count or hold that is
// not a decimal integer, or a negative seq or seen-count, is refused with
// 400 before the room is looked up (a dropped parse error would serve
// events=abc as 0 and re-send every retained event), while absent or empty
// values and a wait_ms ≤ 0 keep their defaults.
func TestRoomWatchRejectsMalformedNumbers(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
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
	for _, key := range []string{"seq", "events", "messages", "wait_ms"} {
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
	// The driver's create rendered a frame, so the first good poll is
	// answered at once whatever its hold.
	if code := watch(driver.SessionID(), "&seq=&events=0&messages=&wait_ms=-5"); code != http.StatusOK {
		t.Fatalf("watch with default numbers answered %d, want 200", code)
	}
	if code := watch(driver.SessionID(), "&wait_ms=1"); code != http.StatusOK {
		t.Fatalf("watch without a seq or seen-counts answered %d, want 200", code)
	}
	// A watcher holding the current publication waits out its hold; one
	// naming a seq past the room's is served as a first poll.
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
// frames may skip on a lossy link, events and messages never gap or repeat
// — and each watcher's quiz answer counts once however often it was sent.
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
	const watchers = 6
	wcs := make([]*RoomClient, watchers)
	for i := range wcs {
		if wcs[i], err = JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, HTTP: faulty}); err != nil {
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
				_, _, err := wc.Poll(100 * time.Millisecond)
				if err != nil {
					if pe, ok := err.(*Error); !ok || pe.Status != http.StatusNotFound || !dismissed.Load() {
						t.Errorf("watcher %d: sticky error on a lossy link: %v", w, err)
					}
					if !voted {
						answered.Done()
					}
					return
				}
				seenEvents[w].Store(int64(wc.pos.Events))
				seenMessages[w].Store(int64(wc.pos.Messages))
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
	// A publication whose poll reply is lost takes its frame with it; the
	// events it carried come with the next one. So the class runs on, one
	// tick at a time, until every watcher holds the whole transcript and
	// the link has shown every fault it has.
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
		if wc.Delivered() > st.Renders {
			t.Errorf("watcher %d received %d frames of %d publications", w, wc.Delivered(), st.Renders)
		}
	}
	t.Logf("%d publications over %+v", st.Renders, injected())
}

// TestFirstWatchIsTheCatchUp: a watcher's first poll (seq 0) is the
// catch-up — the current frame, every event and message the driver
// emitted before it, and the pending quiz — and it is a read of the room
// alone: it returns while the test holds the driven session's lock. The
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
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID})
	if err != nil {
		t.Fatal(err)
	}
	type polled struct {
		u   *WatchUpdate
		err error
	}
	done := make(chan polled, 1)
	h.mu.Lock()
	go func() {
		u, _, err := wc.Poll(2 * time.Second)
		done <- polled{u, err}
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
	if got.err != nil || got.u == nil {
		t.Fatalf("first poll: update %v, err %v; want the catch-up at once", got.u, got.err)
	}
	if got.u.Seq != 3 || got.u.Quiz != q.ID || wc.PendingQuiz() != q.ID {
		t.Fatalf("first poll at seq %d with quiz %q (client %q), want seq 3 and %q", got.u.Seq, got.u.Quiz, wc.PendingQuiz(), q.ID)
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
