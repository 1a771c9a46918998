package playsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// dialOpts is dial with a ClientOptions hook for client-mode variants.
func dialOpts(t testing.TB, baseURL string, obs runtime.Observer, mod func(*ClientOptions)) *Client {
	t.Helper()
	o := ClientOptions{
		BaseURL:  baseURL,
		Course:   "classroom",
		Project:  content.Classroom().Project,
		Observer: obs,
	}
	if mod != nil {
		mod(&o)
	}
	c, err := Dial(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenClassroomRun produces the seeded guided trace plus the event log,
// final state and transcript of a local replay — the reference every
// protocol leg must reproduce bit-identically.
func goldenClassroomRun(t *testing.T) (trace []sim.TraceStep, wantLog []runtime.Event, wantState []byte, wantMsgs []string) {
	t.Helper()
	var golden recorder
	res, err := sim.Run(classroomBlob(t), sim.GuidedFactory, sim.Config{
		MaxSteps: 40, Patience: 15, Seed: 7, RecordTrace: true, Observer: &golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("guided seed run did not complete: %+v", res)
	}
	local, err := runtime.NewSession(classroomBlob(t), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Replay(local, res.Trace); err != nil {
		t.Fatal(err)
	}
	wantState, err = local.State().Save()
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace, golden.log(), wantState, local.Messages()
}

// checkReplayLeg replays the golden trace through one client and holds it
// to the reference: identical event log, identical transcript, identical
// final state, victory outcome.
func checkReplayLeg(t *testing.T, c *Client, trace []sim.TraceStep, rec *recorder,
	wantLog []runtime.Event, wantState []byte, wantMsgs []string) {
	t.Helper()
	if err := sim.Replay(c, trace); err != nil {
		t.Fatal(err)
	}
	// A mirror client may still hold a queued act tail; Sync flushes it so
	// the recorder holds the complete log.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rec.log(); !reflect.DeepEqual(got, wantLog) {
		t.Fatalf("event log diverged:\n got %v\nwant %v", got, wantLog)
	}
	state, err := c.State().Save()
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != string(wantState) {
		t.Fatalf("final state diverged:\n got %s\nwant %s", state, wantState)
	}
	if got := c.Messages(); !reflect.DeepEqual(got, wantMsgs) {
		t.Fatalf("transcript diverged:\n got %q\nwant %q", got, wantMsgs)
	}
	if !c.Ended() || c.Outcome() != "victory" {
		t.Fatalf("ended=%v outcome=%q", c.Ended(), c.Outcome())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryGoldenReplay is the act-path equivalence pin: the same seeded
// trace replayed by a thin client (every act a framed batch of one) and by
// a mirror (thick) client whose local replica answers every read and whose
// acts ship as batches of mirrorBatch — each both direct and fronted by a
// consistent-hash gateway — must reproduce the local run's event log,
// transcript and final state bit-identically.
func TestBinaryGoldenReplay(t *testing.T) {
	trace, wantLog, wantState, wantMsgs := goldenClassroomRun(t)

	ts, m := liveService(t, Options{})
	_, gw := liveCluster(t, 3, Options{})
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	mirror := func(o *ClientOptions) { o.LocalMirror = true; o.Pkg = pkg }

	legs := []struct {
		name string
		url  string
		mod  func(*ClientOptions)
	}{
		{"thin", ts.URL, nil},
		{"thin-gateway", gw.URL, nil},
		{"mirror", ts.URL, mirror},
		{"mirror-gateway", gw.URL, mirror},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			var rec recorder
			c := dialOpts(t, leg.url, &rec, leg.mod)
			checkReplayLeg(t, c, trace, &rec, wantLog, wantState, wantMsgs)
		})
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("%d sessions still live after all legs closed", live)
	}
}

// TestDroppedReplyChaos is the lost-reply delivery gate: both client modes,
// each direct and fronted by a 3-node gateway, replay the golden trace
// across a transport that loses replies after the server applied the
// request (faultnet resets), drops requests outright and injects 503s. The
// bar is exact delivery — the client-side event log and transcript must
// match the fault-free reference with zero lost and zero duplicated
// entries, and the final state must be byte-identical. The mirror legs
// additionally hold every batch reply to the replica (reconciliation is a
// sticky error, so a clean Close proves it), and their creates and leaves
// ride act frames, so a lost reply there is a lost create or leave too.
func TestDroppedReplyChaos(t *testing.T) {
	trace, wantLog, wantState, wantMsgs := goldenClassroomRun(t)
	ts, m := liveService(t, Options{})
	cl, gw := liveCluster(t, 3, Options{})
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}

	// Reset-heavy profile: the point is replies lost after application,
	// the exact case seq/batch dedup and leave tombstones exist for.
	profile := faultnet.Profile{
		Name:      "reply-loss",
		ResetRate: 0.15,
		DropRate:  0.05,
		ErrorRate: 0.02,
	}

	legs := []struct {
		name string
		seed int64
		// sessions replayed over the one faulty transport: a mirror
		// session is a handful of requests, so it takes several for the
		// seeded fault stream to eat batch replies.
		sessions int
		mod      func(*ClientOptions)
	}{
		{"thin", 7, 1, nil},
		{"mirror", 11, 12, func(o *ClientOptions) { o.LocalMirror = true; o.Pkg = pkg }},
		{"thin-gateway", 13, 1, nil},
		{"mirror-gateway", 17, 12, func(o *ClientOptions) { o.LocalMirror = true; o.Pkg = pkg }},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			url := ts.URL
			if strings.HasSuffix(leg.name, "-gateway") {
				url = gw.URL
			}
			faulty := faultnet.WrapClient(nil, profile, leg.seed)
			for i := 0; i < leg.sessions; i++ {
				var rec recorder
				c := dialOpts(t, url, &rec, func(o *ClientOptions) {
					o.HTTP = faulty
					// Enough attempts that a 22% per-request fault rate
					// cannot plausibly exhaust the ladder mid-trace.
					o.Retry = &faultnet.RetryPolicy{
						Attempts:  10,
						BaseDelay: time.Millisecond,
						MaxDelay:  20 * time.Millisecond,
						Seed:      leg.seed,
					}
					if leg.mod != nil {
						leg.mod(o)
					}
				})
				checkReplayLeg(t, c, trace, &rec, wantLog, wantState, wantMsgs)
			}
			if st := faulty.Transport.(*faultnet.Transport).Stats(); st.Resets == 0 {
				t.Fatalf("no reply was lost in %d requests; the leg proved nothing", st.Requests)
			}
		})
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("%d sessions still live after chaos legs closed", live)
	}
	checkClusterEmpty(t, cl)
}

// checkClusterEmpty holds a cluster whose clients all closed to "nothing
// left": no session live on any node and none in the directory.
func checkClusterEmpty(t *testing.T, cl *Cluster) {
	t.Helper()
	for _, name := range cl.NodeNames() {
		if live := cl.Node(name).Manager.Live(); live != 0 {
			t.Fatalf("%s still hosts %d sessions", name, live)
		}
	}
	if n := cl.Dir().Len(); n != 0 {
		t.Fatalf("the directory still holds %d sessions", n)
	}
}

// lossyOnce applies the first request it sees on path and then loses the
// reply, running between first before it reports the loss; every other
// request passes through.
type lossyOnce struct {
	path    string
	between func()
	mu      sync.Mutex
	lost    bool
}

func (l *lossyOnce) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil || l.lost || r.URL.Path != l.path {
		return resp, err
	}
	l.lost = true
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	l.between()
	return nil, errors.New("reply lost in transit")
}

// TestLostFirstFrameAcrossRingMove: a mirror client's first frame carries
// its create and 16 acts. The cluster applies it and the reply is lost;
// before the retry a node joins and takes the session's id. The retried
// create must not mint a second session on the new owner: the gateway
// rescues the live copy off the old one, the new owner thaws it and
// answers the retry from its dedup state. One session is created, the
// entry events reach the observer exactly once, and after Close no node
// hosts it and the directory holds nothing.
func TestLostFirstFrameAcrossRingMove(t *testing.T) {
	cl, gw := liveCluster(t, 3, Options{})
	pkg, err := gamepack.Open(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	// Node names are sequential, so the ring after one more node is known:
	// dial (free for a mirror) until the id is one node-4 will own.
	next := NewGateway(nil)
	for i := 1; i <= 4; i++ {
		next.AddNode(fmt.Sprintf("node-%d", i), "http://unused")
	}
	lossy := &lossyOnce{path: ActV2Path, between: func() {
		if _, err := cl.StartNode(); err != nil {
			t.Error(err)
		}
	}}
	var rec recorder
	var c *Client
	for tries := 0; ; tries++ {
		rec = recorder{}
		c = dialOpts(t, gw.URL, &rec, func(o *ClientOptions) {
			o.HTTP = &http.Client{Transport: lossy}
			o.LocalMirror, o.Pkg = true, pkg
		})
		if owner, _ := next.ownerOf(c.SessionID()); owner.name == "node-4" {
			break
		}
		if tries == 200 {
			t.Fatal("no minted id hashes onto the fourth node")
		}
	}
	var local recorder
	ref, err := runtime.NewSessionFromPackage(pkg, runtime.Options{Observer: &local})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mirrorBatch; i++ {
		c.Talk("teacher")
		ref.Talk("teacher")
	}
	if !lossy.lost {
		t.Fatal("the first frame never went out")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.log(), local.log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("observer got %v, want the replica's %v once", got, want)
	}
	cs := cl.Gateway().Stats().Cluster
	if cs["sessions_created"] != 1 || cs["sessions_resumed"] != 1 || cs["sessions_closed"] != 1 {
		t.Fatalf("cluster counted created %d, resumed %d, closed %d; want one session moved once",
			cs["sessions_created"], cs["sessions_resumed"], cs["sessions_closed"])
	}
	if got := cl.Node("node-4").Manager.Snapshot()["sessions_resumed"]; got != 1 {
		t.Fatalf("the new owner thawed %d sessions, want the one that moved", got)
	}
	checkClusterEmpty(t, cl)
}

// TestJSONAdapterMatchesFrame pins the JSON adapter against the framed
// route: two sessions created — once by a kind-less POST /play/act naming
// the course, once by a create-only frame — then driven by the same acts —
// once as curl-shaped Seq-less JSON POSTs to /play/act, once as framed
// batches of one on /play/actv2 — and resumed — once by a kind-less JSON
// resume, once by a resume-only frame — must yield the same Reply through
// the shared handler at every step: the create's state, entry events,
// course and geometry; each act's state, events, messages, pending quiz and
// correct/took results; the resume's view, course and Resumed mark; the
// leave's final tails without a state.
func TestJSONAdapterMatchesFrame(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	post := func(path, ctype string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", path, resp.Status, out)
		}
		return out
	}
	viaJSON := func(session string, a ActRequest) *Reply {
		a.Session = session
		var r Reply
		if err := json.Unmarshal(post(ActPath, "application/json", mustJSON(&a)), &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	viaFrame := func(session string, a ActRequest) *Reply {
		out, err := ParseReplyFrame(post(ActV2Path, FrameContentType,
			EncodeActFrame(&BatchRequest{Session: session, Acts: []ActRequest{a}})))
		if err != nil {
			t.Fatal(err)
		}
		r, err := out.single()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Talking to the teacher then examining the computer opens the
	// diagnosis quiz; the take and the answer carry result bits.
	script := []ActRequest{
		{Kind: ActTalk, Object: "teacher"},
		{Kind: ActTake, Object: "teacher"},
		{Kind: ActExamine, Object: "computer"},
		{Kind: ActQuiz, Quiz: "q-diagnosis", Choice: 1},
		{Kind: ActTick, Ticks: 3},
	}
	// The create: the JSON adapter on one id, a create-only frame on the
	// other — state, entry events, course and geometry alike.
	sessions := [2]string{newSessionID("classroom"), newSessionID("classroom")}
	jc := *viaJSON(sessions[0], ActRequest{Course: "classroom"})
	out, err := ParseReplyFrame(post(ActV2Path, FrameContentType,
		EncodeActFrame(&BatchRequest{Session: sessions[1], Create: "classroom"})))
	if err != nil {
		t.Fatal(err)
	}
	if out.ActErr != nil || len(out.Results) != 0 {
		t.Fatalf("create-only frame answered %+v", out)
	}
	fc := out.Reply
	if jc.State == nil || len(jc.Events) == 0 || jc.Course != "classroom" || jc.Width == 0 || jc.Height == 0 || jc.FPS == 0 {
		t.Fatalf("JSON create reply lacks state, entry events or course metadata: %+v", jc)
	}
	fc.Session = jc.Session
	if !reflect.DeepEqual(&jc, fc) {
		t.Fatalf("create: JSON adapter and frame disagree:\n json  %+v\n frame %+v", &jc, fc)
	}
	sawQuiz, sawCorrect, sawTook := false, false, false
	for _, a := range script {
		j, f := viaJSON(sessions[0], a), viaFrame(sessions[1], a)
		sawQuiz = sawQuiz || j.Quiz != ""
		sawCorrect = sawCorrect || j.Correct != nil
		sawTook = sawTook || j.Took != nil
		f.Session = j.Session // the only field allowed to differ
		if !reflect.DeepEqual(j, f) {
			t.Fatalf("%s: JSON adapter and frame disagree:\n json  %+v\n frame %+v", a.Kind, j, f)
		}
	}
	if !sawQuiz || !sawCorrect || !sawTook {
		t.Fatalf("script never exercised quiz=%v correct=%v took=%v", sawQuiz, sawCorrect, sawTook)
	}
	// The resume: a kind-less JSON body with resume set on one id, a
	// resume-only frame on the other — the view (nothing was acknowledged,
	// so every retained tail), the course and the Resumed mark alike.
	jr := viaJSON(sessions[0], ActRequest{Resume: true})
	out, err = ParseReplyFrame(post(ActV2Path, FrameContentType,
		EncodeActFrame(&BatchRequest{Session: sessions[1], Resume: true})))
	if err != nil {
		t.Fatal(err)
	}
	if out.ActErr != nil || len(out.Results) != 0 {
		t.Fatalf("resume-only frame answered %+v", out)
	}
	if !jr.Resumed || jr.State == nil || jr.Course != "classroom" || jr.Width == 0 {
		t.Fatalf("JSON resume reply lacks the Resumed mark, state or course metadata: %+v", jr)
	}
	fr := out.Reply
	fr.Session = jr.Session
	if !reflect.DeepEqual(jr, fr) {
		t.Fatalf("resume: JSON adapter and frame disagree:\n json  %+v\n frame %+v", jr, fr)
	}
	// The leave: the final tails (nothing was acknowledged, so all of
	// them) and no state, either way.
	j, f := viaJSON(sessions[0], ActRequest{Kind: ActLeave}), viaFrame(sessions[1], ActRequest{Kind: ActLeave})
	if j.State != nil || len(j.Events) == 0 || len(j.Messages) == 0 {
		t.Fatalf("JSON leave reply is not the final tails alone: %+v", j)
	}
	f.Session = j.Session
	if !reflect.DeepEqual(j, f) {
		t.Fatalf("leave: JSON adapter and frame disagree:\n json  %+v\n frame %+v", j, f)
	}
	if m.Live() != 0 {
		t.Fatalf("%d sessions live after both leaves", m.Live())
	}
	// The room create: a kind-less JSON body with course and room set on
	// one id, a create-and-room frame on the other — the same create reply
	// either way, and each opens its room at publication seq 1.
	rooms := [2]string{newSessionID("classroom"), newSessionID("classroom")}
	jroom := viaJSON(rooms[0], ActRequest{Course: "classroom", Room: true})
	out, err = ParseReplyFrame(post(ActV2Path, FrameContentType,
		EncodeActFrame(&BatchRequest{Session: rooms[1], Create: "classroom", Room: true})))
	if err != nil {
		t.Fatal(err)
	}
	froom := out.Reply
	froom.Session = jroom.Session
	if !reflect.DeepEqual(jroom, froom) {
		t.Fatalf("room create: JSON adapter and frame disagree:\n json  %+v\n frame %+v", jroom, froom)
	}
	for _, id := range rooms {
		if st, err := m.RoomStatsOf(id); err != nil || st.Seq != 1 {
			t.Fatalf("room %s after its create: %+v, %v; want seq 1", id, st, err)
		}
	}
}

// TestRetriedLeaveDeliversFinalTail pins the lost-reply bug on the leave
// path: a leave whose confirmation was lost is retried, and the retry must
// return the SAME final tail (the events and messages the client had not
// yet acknowledged) — not an empty confirmation and not a 404.
func TestRetriedLeaveDeliversFinalTail(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	// Generate a tail the client has NOT acked, then leave.
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", Seq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}); err != nil {
		t.Fatal(err)
	}
	leave := &ActRequest{Session: r.Session, Kind: ActLeave, Seq: 2,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}
	first, err := m.Act(leave)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Events) == 0 || len(first.Messages) == 0 {
		t.Fatalf("leave confirmation lost the unacked tail: %+v", first)
	}
	if first.State != nil {
		t.Fatalf("leave confirmation carries a state snapshot; a leave changes none: %+v", first.State)
	}
	// The same for a mirror's last frame: acts with the leave at its end.
	// Every retry of the lost reply is answered with the first one whole —
	// the acts' results and the same final tail.
	r2, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	tail := &BatchRequest{Session: r2.Session, BaseSeq: 1, SeenEvents: r2.EventCount, SeenMessages: r2.MessageCount,
		Acts: []ActRequest{{Kind: ActTalk, Object: "teacher"}, {Kind: ActTake, Object: "teacher"}, {Kind: ActLeave}}}
	last, err := m.ActBatch(tail)
	if err != nil {
		t.Fatal(err)
	}
	if last.ActErr != nil || len(last.Results) != 3 || !last.Results[1].HasTook || last.Reply.State != nil ||
		len(last.Reply.Events) == 0 || len(last.Reply.Messages) == 0 {
		t.Fatalf("tail+leave reply is not the acts' results and the final tails: %+v %+v", last, last.Reply)
	}
	for i := 0; i < 3; i++ {
		again, err := m.ActBatch(tail)
		if err != nil {
			t.Fatalf("tail+leave retry %d: %v", i, err)
		}
		if !reflect.DeepEqual(again, last) {
			t.Fatalf("tail+leave retry %d diverged:\n got %+v\nwant %+v", i, again, last)
		}
	}
	if m.Live() != 0 {
		t.Fatalf("%d sessions live after leave", m.Live())
	}
	// The confirmation was "lost": the client retries the identical leave.
	for i := 0; i < 3; i++ {
		again, err := m.Act(leave)
		if err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("retry %d diverged:\n got %+v\nwant %+v", i, again, first)
		}
	}
}

// TestFrozenLeaveDeliversTail covers leave racing the TTL janitor: the
// session was frozen to a snapshot (its unacked tail riding the envelope)
// before the leave arrived. The leave must thaw it, deliver the tail, and
// release it — dropping the snapshot must not drop the events.
func TestFrozenLeaveDeliversTail(t *testing.T) {
	o, _ := durableOptions(t)
	m := NewManager(o)
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", Seq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}); err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}
	leave := &ActRequest{Session: r.Session, Kind: ActLeave, Seq: 2,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount}
	conf, err := m.Act(leave)
	if err != nil {
		t.Fatal(err)
	}
	if len(conf.Events) == 0 || len(conf.Messages) == 0 {
		t.Fatalf("frozen leave dropped the unacked tail: %+v", conf)
	}
	if m.Live() != 0 {
		t.Fatalf("%d sessions live after frozen leave", m.Live())
	}
	// And the retry still answers from the tombstone.
	again, err := m.Act(leave)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, conf) {
		t.Fatalf("frozen-leave retry diverged:\n got %+v\nwant %+v", again, conf)
	}
}

// TestRetriedBatchAfterThawNotDoubleApplied pins the envelope v2 fix: the
// batch-dedup state (base seq, result bits) survives freeze/thaw, so a
// batch whose reply was lost while the session migrated is recognized as
// a retry and rebuilt — not applied twice.
func TestRetriedBatchAfterThawNotDoubleApplied(t *testing.T) {
	o, _ := durableOptions(t)
	m := NewManager(o)
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	batch := &BatchRequest{
		Session: r.Session, BaseSeq: 1,
		SeenEvents: r.EventCount, SeenMessages: r.MessageCount,
		Acts: []ActRequest{
			{Kind: ActTalk, Object: "teacher"},
			{Kind: ActExamine, Object: "computer"},
			{Kind: ActTick, Ticks: 1},
		},
	}
	first, err := m.ActBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.ActErr != nil {
		t.Fatalf("batch failed: %v", first.ActErr)
	}

	// The reply is lost; the session is frozen (TTL janitor / handoff)
	// before the retry arrives.
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}

	again, err := m.ActBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if again.Reply.EventCount != first.Reply.EventCount ||
		again.Reply.MessageCount != first.Reply.MessageCount ||
		again.Reply.Tick != first.Reply.Tick {
		t.Fatalf("retry re-applied the batch: first count %d/%d tick %d, retry %d/%d tick %d",
			first.Reply.EventCount, first.Reply.MessageCount, first.Reply.Tick,
			again.Reply.EventCount, again.Reply.MessageCount, again.Reply.Tick)
	}
	if !reflect.DeepEqual(again.Results, first.Results) {
		t.Fatalf("retry results diverged:\n got %+v\nwant %+v", again.Results, first.Results)
	}
	if !reflect.DeepEqual(again.Reply.Events, first.Reply.Events) {
		t.Fatalf("retry event tail diverged:\n got %v\nwant %v", again.Reply.Events, first.Reply.Events)
	}

	// A genuinely new batch still applies.
	next, err := m.ActBatch(&BatchRequest{
		Session: r.Session, BaseSeq: 4,
		SeenEvents: first.Reply.EventCount, SeenMessages: first.Reply.MessageCount,
		Acts: []ActRequest{{Kind: ActTick, Ticks: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next.Reply.Tick != first.Reply.Tick+1 {
		t.Fatalf("follow-up batch tick = %d, want %d", next.Reply.Tick, first.Reply.Tick+1)
	}
}

// TestNegativeSeenCounts sweeps hostile seen-counts through every consumer
// — act, batch, state read and the resume route. Negative values clamp to
// "seen nothing" (full retained tail back, no panic, no log corruption);
// absurdly large values clamp to "seen everything" without over-trimming.
func TestNegativeSeenCounts(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	total, totalMsgs := rr.EventCount, rr.MessageCount
	if total == 0 || totalMsgs == 0 {
		t.Fatalf("no tail to fight over: %d events, %d messages", total, totalMsgs)
	}

	// All non-positive seen-counts are ack no-ops: the full tail comes
	// back and the retained window is untouched. (The past-end clamp is
	// exercised at the end — its ack legitimately compacts the log.)
	cases := []struct {
		name         string
		seenEvents   int
		seenMessages int
		wantEvents   int // len of returned tail
		wantMessages int
	}{
		{"negative", -1, -1, total, totalMsgs},
		{"deeply negative", -1 << 40, -1 << 40, total, totalMsgs},
		{"zero", 0, 0, total, totalMsgs},
	}
	for _, tc := range cases {
		t.Run("resume/"+tc.name, func(t *testing.T) {
			got, err := m.Act(&ActRequest{Session: r.Session, Resume: true, SeenEvents: tc.seenEvents, SeenMessages: tc.seenMessages})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) != tc.wantEvents || len(got.Messages) != tc.wantMessages {
				t.Fatalf("tail = %d events / %d messages, want %d/%d",
					len(got.Events), len(got.Messages), tc.wantEvents, tc.wantMessages)
			}
			if got.EventCount != total || got.MessageCount != totalMsgs {
				t.Fatalf("absolute counts drifted: %d/%d, want %d/%d",
					got.EventCount, got.MessageCount, total, totalMsgs)
			}
		})
	}

	// The resume route takes the same clamp: a negative seen-count resume
	// receives the full retained transcript.
	res, err := m.Act(&ActRequest{Session: r.Session, Resume: true, SeenEvents: -7, SeenMessages: -7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("resume create did not mark Resumed")
	}
	if len(res.Events) != total || len(res.Messages) != totalMsgs {
		t.Fatalf("resume tail = %d/%d, want %d/%d", len(res.Events), len(res.Messages), total, totalMsgs)
	}

	// A negative-seen ACT must not corrupt the retained window: the log
	// is not un-trimmed, not over-trimmed, and a later honest ack works.
	rr2, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTick, Ticks: 1, Seq: 2,
		SeenEvents: -5, SeenMessages: -5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr2.Events) < total {
		t.Fatalf("negative-seen act returned %d events, want the full log (>= %d)", len(rr2.Events), total)
	}
	h, err := m.lookup(r.Session)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	base := h.eventBase
	h.mu.Unlock()
	if base != 0 {
		t.Fatalf("negative seen-count moved the ack base to %d", base)
	}
	rr3, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTick, Ticks: 1, Seq: 3,
		SeenEvents: rr2.EventCount, SeenMessages: rr2.MessageCount})
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	base, retained := h.eventBase, len(h.events)
	h.mu.Unlock()
	if base != rr2.EventCount || base+retained != rr3.EventCount {
		t.Fatalf("honest ack after hostile seen: window [%d,%d), want base %d total %d",
			base, base+retained, rr2.EventCount, rr3.EventCount)
	}

	// A past-the-end seen-count clamps to "release everything retained":
	// no panic, empty tail, and the window never goes negative.
	over, err := m.Act(&ActRequest{Session: r.Session, Resume: true, SeenEvents: rr3.EventCount + 99, SeenMessages: rr3.MessageCount + 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Events) != 0 || over.EventCount != rr3.EventCount {
		t.Fatalf("past-end read: tail %d, count %d, want 0/%d", len(over.Events), over.EventCount, rr3.EventCount)
	}
	h.mu.Lock()
	base, retained = h.eventBase, len(h.events)
	h.mu.Unlock()
	if retained != 0 || base != rr3.EventCount {
		t.Fatalf("past-end ack left window [%d,%d), want [%d,%d)", base, base+retained, rr3.EventCount, rr3.EventCount)
	}
}

// TestReplyIsPureAckTrims pins the compact-only-on-ack rule directly:
// building a reply must not trim the event log (the reply may be lost in
// flight); only the next request's acknowledged seen-count releases the
// prefix.
func TestReplyIsPureAckTrims(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Read the full tail twice: replies are pure, so the second read still
	// sees everything even though the first reply "delivered" it.
	for i := 0; i < 2; i++ {
		got, err := m.Act(&ActRequest{Session: r.Session, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != rr.EventCount {
			t.Fatalf("read %d: tail %d, want %d — a reply trimmed the log", i, len(got.Events), rr.EventCount)
		}
	}
	// Only the acked request compacts.
	if _, err := m.Act(&ActRequest{Session: r.Session, Resume: true, SeenEvents: rr.EventCount, SeenMessages: rr.MessageCount}); err != nil {
		t.Fatal(err)
	}
	h, err := m.lookup(r.Session)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	base, retained := h.eventBase, len(h.events)
	h.mu.Unlock()
	if base != rr.EventCount || retained != 0 {
		t.Fatalf("ack did not compact: window [%d,%d), want [%d,%d)", base, base+retained, rr.EventCount, rr.EventCount)
	}
}
