package playsvc

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
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
// watcher receives bit-identical frames at matching sequence numbers plus
// the full event and message transcript — the classroom sees exactly what
// the instructor's session rendered, once per state change. It runs once
// against a node and once through a 2-node cluster's gateway, where every
// join, poll, answer and stats read is relayed.
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
	// The room verb is gone: a room opens only by its driver's create.
	resp, err := http.Post(baseURL+"/room/create", "application/json", strings.NewReader(`{"course":"classroom"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /room/create answered %s, want 404", resp.Status)
	}

	// The reference session: same package, same acts, local.
	var rec recorder
	ref, err := runtime.NewSession(classroomBlob(t), runtime.Options{Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}

	// Three watchers join before the lesson starts and poll in lockstep;
	// each therefore sees the full publication sequence from seq 1.
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
			t.Fatalf("watcher %d: seq = %d, want %d (skipped=%d)", w, u.Seq, wantSeq, u.Skipped)
		}
		if got := crcOf(wc.frame.Pix); got != wantCRC {
			t.Fatalf("watcher %d: frame crc at seq %d = %08x, want %08x", w, u.Seq, got, wantCRC)
		}
		if u.Quiz == "q-diagnosis" {
			sawQuiz[w] = true
		}
	}

	// Lockstep: the seed publication first (the slot seeds joiners with the
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
// never polls must cost the driver nothing. The driver's act latency
// histogram stays bounded while each publication replaces the stalled
// watcher's pending one (frames skipped, counted), and a live watcher
// polling alongside keeps receiving fresh frames.
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
	for _, w := range []string{"stalled", "live"} {
		if _, err := m.JoinRoom(&RoomJoinRequest{Room: roomID, Watcher: w}); err != nil {
			t.Fatal(err)
		}
	}

	// The live watcher polls in a tight loop, like a real client keeping
	// up with the broadcast, and keeps its last chunk's sequence number
	// and skip count.
	var delivered, lastSeq, lastSkipped atomic.Int64
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
			header, _, ae, am, err := room.WatchNext("live", seenE, seenM, 50*time.Millisecond, dst[:0])
			if err != nil {
				return
			}
			if header != nil {
				u, err := ParseWatchChunk(header[4:])
				if err != nil {
					t.Error(err)
					return
				}
				lastSeq.Store(u.Seq)
				lastSkipped.Store(u.Skipped)
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

	// The driver ticks away; every act replaces the stalled watcher's
	// pending publication undelivered.
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
		t.Fatalf("driver act p99 = %v with a stalled subscriber; fan-out is backpressuring the act path", p99)
	}

	st, err := m.RoomStatsOf(roomID)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1 + acts); st.Renders != want {
		t.Fatalf("renders = %d, want %d (one per state change, watchers notwithstanding)", st.Renders, want)
	}
	// The stalled watcher skipped every act's publication but keeps the
	// last one pending; the live watcher may add more skips.
	if st.Skipped < acts {
		t.Fatalf("skipped = %d, want >= %d from the stalled watcher", st.Skipped, acts)
	}
	// Both watchers were present from the seed on, so each of the 1+acts
	// publications was delivered to, skipped by or is pending for each.
	// A watcher's own skip count is its share of the room's: the stalled
	// one skipped every act's publication, and the live one's last chunk
	// carried its whole count.
	var pending, skipped int64
	for id, w := range room.watchers {
		w.mu.Lock()
		if w.pending != nil {
			pending++
		}
		skipped += w.skipped
		want := map[string]int64{"stalled": acts, "live": lastSkipped.Load()}[id]
		if w.skipped != want {
			t.Errorf("watcher %s skipped %d, want %d", id, w.skipped, want)
		}
		if id == "stalled" && (w.pending == nil || w.pending.seq != 1+acts) {
			t.Errorf("the stalled watcher's pending publication is not the newest, seq %d", 1+acts)
		}
		w.mu.Unlock()
	}
	if skipped != st.Skipped {
		t.Errorf("watchers skipped %d in all, the room counts %d", skipped, st.Skipped)
	}
	if got, want := st.Delivered+st.Skipped+pending, int64(2*(1+acts)); got != want {
		t.Fatalf("delivered %d + skipped %d + pending %d = %d, want %d publications for two watchers",
			st.Delivered, st.Skipped, pending, got, want)
	}
	if delivered.Load() == 0 {
		t.Fatal("live watcher starved while a peer stalled")
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

// TestJoinRetryReattaches: JoinRoom names its watcher even when the caller
// did not, so a join retried after a lost reply reattaches to the
// subscription the first attempt opened instead of orphaning it in a ring
// slot. The same watcher then pins what a dismissal costs: the room's 404
// is terminal — one request, no backoff sleep.
func TestJoinRetryReattaches(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	eater := &replyEater{path: RoomJoinPath}
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID, HTTP: &http.Client{Transport: eater}})
	if err != nil {
		t.Fatalf("join did not survive one lost reply: %v", err)
	}
	if eater.eaten.Load() != 1 {
		t.Fatal("no join reply was lost; the test proved nothing")
	}
	if wc.WatcherID() == "" {
		t.Fatal("joined without a watcher id")
	}
	if joins := stat(t, m.Snapshot(), "watcher_joins"); joins != 1 {
		t.Fatalf("watcher_joins = %d after one retried join, want 1", joins)
	}
	if st, err := wc.RoomStats(); err != nil || st.Watchers != 1 {
		t.Fatalf("room stats = %+v, %v; want one watcher", st, err)
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

// TestRoomWatchRejectsMalformedNumbers: a seen-count or hold that is not a
// decimal integer, or a negative seen-count, is refused with 400 before the
// room is looked up (a dropped parse error would serve events=abc as 0 and
// re-send every retained event), while absent or empty values and a
// wait_ms ≤ 0 keep their defaults.
func TestRoomWatchRejectsMalformedNumbers(t *testing.T) {
	ts, _ := liveService(t, Options{TTL: -1})
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project})
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: driver.SessionID()})
	if err != nil {
		t.Fatal(err)
	}
	watch := func(room, query string) int {
		t.Helper()
		q := url.Values{"room": {room}, "watcher": {wc.WatcherID()}}.Encode()
		resp, err := http.Get(ts.URL + RoomWatchPath + "?" + q + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, key := range []string{"events", "messages", "wait_ms"} {
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
	if code := watch(driver.SessionID(), "&events=0&messages=&wait_ms=-5"); code != http.StatusOK {
		t.Fatalf("watch with default numbers answered %d, want 200", code)
	}
	if code := watch(driver.SessionID(), "&wait_ms=1"); code != http.StatusOK && code != http.StatusNoContent {
		t.Fatalf("watch without seen-counts answered %d, want 200 or 204", code)
	}
}

// TestRoomLossyLink runs a class over crowded wifi: the driver's create
// that opens the room, every join, poll, answer and driver act crosses one
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
			t.Fatalf("watcher %d join: %v", i, err)
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
				seenEvents[w].Store(int64(wc.seenEvents))
				seenMessages[w].Store(int64(wc.seenMessages))
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
	if st.Watchers != watchers || st.Answers != watchers {
		t.Fatalf("room counts %d watchers and %d answers, want %d each (retried joins and answers count once)", st.Watchers, st.Answers, watchers)
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

// TestRoomPrunesIdleWatcher: the idle sweep drops a watcher that stopped
// polling without a leave. Its blocked poll is released with a 404, the
// room counts no watcher, and the driven session — touched after the
// cutoff — stays live.
func TestRoomPrunesIdleWatcher(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	const roomID = "classroom-prune-room"
	if _, err := m.Act(&ActRequest{Session: roomID, Course: "classroom", Room: true}); err != nil {
		t.Fatal(err)
	}
	room, ok := m.Room(roomID)
	if !ok {
		t.Fatal("room not registered")
	}
	if _, err := m.JoinRoom(&RoomJoinRequest{Room: roomID, Watcher: "idle"}); err != nil {
		t.Fatal(err)
	}
	// Take the seed publication, so the next poll blocks.
	if header, _, _, _, err := room.WatchNext("idle", 0, 0, 0, nil); err != nil || header == nil {
		t.Fatalf("seed delivery: header %v, err %v", header != nil, err)
	}
	room.mu.Lock()
	w := room.watchers["idle"]
	room.mu.Unlock()
	seen := w.lastSeen.Load()
	time.Sleep(time.Millisecond)
	polled := make(chan error, 1)
	go func() {
		_, _, _, _, err := room.WatchNext("idle", 0, 0, maxWatchWait, nil)
		polled <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); w.lastSeen.Load() == seen; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the poll never started")
		}
	}

	// The watcher was last seen before the cutoff, the driver after it: a
	// frame read touches the session and publishes nothing.
	time.Sleep(time.Millisecond)
	cutoff := time.Now()
	time.Sleep(time.Millisecond)
	if err := m.WithFrame(roomID, func(*raster.Frame, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := m.ExpireIdle(cutoff); n != 0 {
		t.Fatalf("the sweep reclaimed %d sessions, want the driver kept", n)
	}

	select {
	case err := <-polled:
		if pe, ok := err.(*Error); !ok || pe.Status != http.StatusNotFound {
			t.Fatalf("pruned watcher's poll returned %v, want a 404", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the pruned watcher's poll is still blocked")
	}
	st, err := m.RoomStatsOf(roomID)
	if err != nil {
		t.Fatalf("room gone after pruning its watcher: %v", err)
	}
	if st.Watchers != 0 {
		t.Fatalf("watchers = %d after the sweep, want 0", st.Watchers)
	}
	if live := m.Live(); live != 1 {
		t.Fatalf("live sessions = %d, want the driver's", live)
	}
}

// TestJoinOnlySubscribes: a watcher's join subscribes and names the
// watcher, nothing more. It takes no lock of the driven session (it
// returns while the test holds the driver's lock), its JSON has exactly
// the keys room and watcher, and the catch-up — every event and message
// the driver emitted before the join, and the pending quiz — arrives with
// the watcher's first poll.
func TestJoinOnlySubscribes(t *testing.T) {
	ts, m := liveService(t, Options{})
	var rec recorder
	driver, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Room: true, Project: content.Classroom().Project, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	roomID := driver.SessionID()
	driver.Talk("teacher")
	driver.Examine("computer")
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	q, pending := driver.PendingQuiz()
	if !pending || len(driver.Messages()) == 0 {
		t.Fatalf("driver setup: quiz pending %v, %d messages; want a quiz and a transcript", pending, len(driver.Messages()))
	}

	h, err := m.lookup(roomID)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	joined := make(chan error, 1)
	go func() {
		_, err := m.JoinRoom(&RoomJoinRequest{Room: roomID, Watcher: "w-locked"})
		joined <- err
	}()
	select {
	case err := <-joined:
		h.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		h.mu.Unlock()
		<-joined
		t.Fatal("JoinRoom waited on the driven session's lock")
	}

	resp, err := http.Post(ts.URL+RoomJoinPath+"?room="+url.QueryEscape(roomID), "application/json", strings.NewReader(`{"watcher":"w-json"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("join answered %s (%v)", resp.Status, err)
	}
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"room", "watcher"}) {
		t.Fatalf("join reply keys = %v, want [room watcher]", keys)
	}

	wc, err := JoinRoom(RoomClientOptions{BaseURL: ts.URL, Room: roomID})
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := wc.Poll(2 * time.Second)
	if err != nil || u == nil {
		t.Fatalf("first poll after the join: update %v, err %v; want the catch-up at once", u, err)
	}
	if u.Quiz != q.ID || wc.PendingQuiz() != q.ID {
		t.Fatalf("first poll's quiz %q (client %q), want %q", u.Quiz, wc.PendingQuiz(), q.ID)
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
