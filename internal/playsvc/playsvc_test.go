package playsvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/runtime"
	"repro/internal/sim"
)

var (
	onceBlob sync.Once
	blob     []byte
	blobErr  error
)

func classroomBlob(t testing.TB) []byte {
	t.Helper()
	onceBlob.Do(func() {
		blob, blobErr = content.Classroom().BuildPackage(studio.Options{QStep: 10})
	})
	if blobErr != nil {
		t.Fatal(blobErr)
	}
	return blob
}

// liveService routes a play service beside a netstream server on one mux
// — the deployment shape vgbl-server uses.
func liveService(t testing.TB, o Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(o)
	t.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/play/", m.Handler())
	mux.Handle("/room/", m.Handler())
	mux.Handle("/", srv)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, m
}

func dial(t testing.TB, ts *httptest.Server, obs runtime.Observer) *Client {
	t.Helper()
	c, err := Dial(ClientOptions{
		BaseURL:  ts.URL,
		Course:   "classroom",
		Project:  content.Classroom().Project,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// createSession opens a hosted session on course under a minted id — a
// create is an act that names a course and no kind — and returns its
// first reply.
func createSession(m *Manager, course string) (*Reply, error) {
	return m.Act(&ActRequest{Session: newSessionID(course), Course: course})
}

// recorder captures an event log for equality comparisons.
type recorder struct {
	mu     sync.Mutex
	events []runtime.Event
}

func (r *recorder) Record(e runtime.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) log() []runtime.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]runtime.Event(nil), r.events...)
}

// TestRemotePlayThroughProtocol drives the classroom mission entirely over
// the wire: dialogue, taking, scenario switches, item use and quizzes all
// happen in the hosted session, and the client mirror tracks it.
func TestRemotePlayThroughProtocol(t *testing.T) {
	ts, m := liveService(t, Options{})
	var rec recorder
	c := dial(t, ts, &rec)

	if w, h, fps := c.VideoMeta(); w != 160 || h != 120 || fps != 10 {
		t.Fatalf("video meta = %dx%d@%d", w, h, fps)
	}
	if c.Scenario() == nil || c.Scenario().ID != "classroom" {
		t.Fatalf("scenario = %+v", c.Scenario())
	}
	// The OnEnter briefing arrived with the create reply.
	if len(c.Messages()) == 0 {
		t.Fatal("no OnEnter messages mirrored")
	}

	// Walk the mission by hand.
	c.Examine("computer") // learn + quiz q-diagnosis
	if q, ok := c.PendingQuiz(); !ok || q.ID != "q-diagnosis" {
		t.Fatalf("pending quiz = %v %v", q, ok)
	}
	if correct, err := c.AnswerQuiz("q-diagnosis", 1); err != nil || !correct {
		t.Fatalf("diagnosis answer: correct=%v err=%v", correct, err)
	}
	if !c.Take("desk-coin") {
		t.Fatal("could not take the coin")
	}
	if !c.State().HasItem("coin") {
		t.Fatal("coin not mirrored into inventory")
	}
	if err := c.GotoScenario("market"); err != nil {
		t.Fatal(err)
	}
	if !c.Take("stall-ram") {
		t.Fatal("could not buy the module")
	}
	if _, err := c.AnswerQuiz("q-shopping", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.GotoScenario("classroom"); err != nil {
		t.Fatal(err)
	}
	c.UseItemOn("ram module", "computer")
	if _, err := c.AnswerQuiz("q-install", 0); err != nil {
		t.Fatal(err)
	}
	if !c.Ended() || c.Outcome() != "victory" {
		t.Fatalf("ended=%v outcome=%q", c.Ended(), c.Outcome())
	}
	if err := c.Advance(3); err != nil {
		t.Fatal(err)
	}

	// The frame endpoint serves the composited presentation frame.
	f, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 160 || f.H != 120 || len(f.Pix) != 3*160*120 {
		t.Fatalf("frame = %dx%d (%d bytes)", f.W, f.H, len(f.Pix))
	}

	// Answering a non-pending quiz is a 400, not a session failure.
	if _, err := c.AnswerQuiz("q-diagnosis", 0); err == nil {
		t.Fatal("re-answering an answered quiz succeeded")
	}
	if c.Err() != nil {
		t.Fatalf("bad request stuck: %v", c.Err())
	}

	// Leaving releases the hosted session; the stats agree.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if stat(t, st, "sessions_created") != 1 || stat(t, st, "sessions_closed") != 1 || stat(t, st, "sessions_live") != 0 {
		t.Fatalf("stats = %v", st)
	}
	if stat(t, st, "acts") == 0 || stat(t, st, "frames") != 1 {
		t.Fatalf("stats = %v", st)
	}
	// Every event the server emitted reached the client observer.
	if len(rec.log()) == 0 {
		t.Fatal("no events forwarded")
	}

	// Acting on the released session is a 404.
	if err := c.Advance(1); err == nil {
		t.Fatal("act on a left session succeeded")
	}
}

// TestGoldenReplay is the determinism pin: a seeded sim run records its
// action trace; replaying that trace through a fresh local session AND
// through a play-service client must reproduce the original event log,
// transcript and final state exactly.
func TestGoldenReplay(t *testing.T) {
	pkg := classroomBlob(t)

	var golden recorder
	res, err := sim.Run(pkg, sim.GuidedFactory, sim.Config{
		MaxSteps: 40, Patience: 15, Seed: 7, RecordTrace: true, Observer: &golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Steps {
		t.Fatalf("trace has %d steps, run took %d", len(res.Trace), res.Steps)
	}
	if !res.Completed {
		t.Fatalf("guided seed run did not complete: %+v", res)
	}
	wantLog := golden.log()

	// A trace survives serialization (it is a wire-shippable artifact).
	traceJSON, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var trace []sim.TraceStep
	if err := json.Unmarshal(traceJSON, &trace); err != nil {
		t.Fatal(err)
	}

	// Leg 1: replay through a fresh local session.
	var localRec recorder
	local, err := runtime.NewSession(pkg, runtime.Options{Observer: &localRec})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Replay(local, trace); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localRec.log(), wantLog) {
		t.Fatalf("local replay event log diverged:\n got %v\nwant %v", localRec.log(), wantLog)
	}

	// Leg 2: replay through the play service.
	ts, _ := liveService(t, Options{})
	var remoteRec recorder
	remote := dial(t, ts, &remoteRec)
	if err := sim.Replay(remote, trace); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteRec.log(), wantLog) {
		t.Fatalf("remote replay event log diverged:\n got %v\nwant %v", remoteRec.log(), wantLog)
	}

	// Final states and transcripts agree across all three runs.
	if localState, remoteState := stateBytes(local.State()), stateBytes(remote.State()); string(localState) != string(remoteState) {
		t.Fatalf("final states diverge:\nlocal  %q\nremote %q", localState, remoteState)
	}
	if !reflect.DeepEqual(local.Messages(), remote.Messages()) {
		t.Fatalf("transcripts diverge:\nlocal  %q\nremote %q", local.Messages(), remote.Messages())
	}
	if !remote.Ended() || remote.Outcome() != "victory" {
		t.Fatalf("remote replay ended=%v outcome=%q", remote.Ended(), remote.Outcome())
	}
}

// TestRemoteGuidedRunMatchesLocal runs the same seeded policy locally and
// remotely; steps, completion and the digested reports must agree.
func TestRemoteGuidedRunMatchesLocal(t *testing.T) {
	cfg := sim.Config{MaxSteps: 40, Patience: 15, Seed: 3}
	localRes, err := sim.Run(classroomBlob(t), sim.GuidedFactory, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := liveService(t, Options{})
	col := &analytics.Collector{}
	c, err := Dial(ClientOptions{
		BaseURL: ts.URL, Course: "classroom",
		Project: content.Classroom().Project, Observer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	remoteRes, err := sim.RunGame(c, sim.GuidedFactory, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if localRes.Steps != remoteRes.Steps || localRes.Completed != remoteRes.Completed ||
		localRes.QuitReason != remoteRes.QuitReason {
		t.Fatalf("runs diverged: local %+v, remote %+v", localRes, remoteRes)
	}
	if localRes.Report.String() != remoteRes.Report.String() {
		t.Fatalf("reports diverge:\nlocal\n%s\nremote\n%s", localRes.Report, remoteRes.Report)
	}
}

// TestEvictionTTL exercises the janitor path directly on a zero-Dir
// manager: idle sessions are reclaimed and counted, frozen rather than
// discarded, and each client's next act thaws its session where it left
// off.
func TestEvictionTTL(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	c1 := dial(t, ts, nil)
	c2 := dial(t, ts, nil)
	c1.Advance(1)
	c2.Advance(1)

	if n := m.ExpireIdle(time.Now().Add(-time.Minute)); n != 0 {
		t.Fatalf("expired %d fresh sessions", n)
	}
	if n := m.ExpireIdle(time.Now().Add(time.Minute)); n != 2 {
		t.Fatalf("expired %d of 2 idle sessions", n)
	}
	st := m.Snapshot()
	if stat(t, st, "sessions_evicted") != 2 || stat(t, st, "sessions_frozen") != 2 ||
		stat(t, st, "sessions_live") != 0 || stat(t, st, "sessions_created") != 2 {
		t.Fatalf("stats = %v", st)
	}
	for _, c := range []*Client{c1, c2} {
		if err := c.Advance(1); err != nil {
			t.Fatalf("evicted session's next act: %v", err)
		}
		if c.Ticks() != 2 {
			t.Fatalf("thawed session at tick %d, want 2", c.Ticks())
		}
	}
	st = m.Snapshot()
	if stat(t, st, "sessions_resumed") != 2 || stat(t, st, "sessions_live") != 2 || stat(t, st, "sessions_created") != 2 {
		t.Fatalf("stats after thaw = %v", st)
	}
}

// TestCreateErrors covers the create-side protocol errors.
func TestCreateErrors(t *testing.T) {
	ts, m := liveService(t, Options{MaxSessions: 1, TTL: -1})
	if _, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "nope", Project: content.Classroom().Project}); err == nil {
		t.Fatal("unknown course accepted")
	}
	c := dial(t, ts, nil)
	if _, err := Dial(ClientOptions{BaseURL: ts.URL, Course: "classroom", Project: content.Classroom().Project}); err == nil {
		t.Fatal("session cap not enforced")
	}
	// A room opens with its session's create, never on a resume or an act.
	if _, err := m.Act(&ActRequest{Session: c.SessionID(), Resume: true, Room: true}); httpStatus(err) != http.StatusBadRequest {
		t.Fatalf("room on a resume: %v, want a 400", err)
	}
	if _, err := m.Act(&ActRequest{Session: c.SessionID(), Room: true, Kind: ActTick}); httpStatus(err) != http.StatusBadRequest {
		t.Fatalf("room on an act: %v, want a 400", err)
	}
	if _, err := Dial(ClientOptions{BaseURL: ts.URL, Resume: c.SessionID(), Room: true, Project: content.Classroom().Project}); err == nil {
		t.Fatal("Dial accepted a room on a resume")
	}
	if _, ok := m.Room(c.SessionID()); ok {
		t.Fatal("a refused room request opened a room")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 0 {
		t.Fatalf("live = %d", m.Live())
	}
	if err := m.AddCourse("", nil); err == nil {
		t.Fatal("empty course name accepted")
	}
	if err := m.AddCourse("bad", []byte("not a package")); err == nil {
		t.Fatal("garbage package accepted")
	}
}

// TestFramePathZeroAlloc pins the acceptance criterion: once warmed, the
// frame path allocates nothing per request. Each request is preceded by a
// one-frame advance of the hosted session, done in place (a tick act's
// reply assembly would allocate), so every render decodes a new frame.
func TestFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	noop := func(f *raster.Frame, tick int) error { return nil }
	// Warm sprite cache, frame buffer and decoder recycling (one full loop
	// of the segment so the wrap-around seek path is warm too).
	for i := 0; i < 50; i++ {
		advanceInPlace(t, m, r.Session)
		if err := m.WithFrame(r.Session, noop); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		advanceInPlace(t, m, r.Session)
		if err := m.WithFrame(r.Session, noop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame path allocates %.1f per request, want 0", allocs)
	}
}

// advanceInPlace moves a hosted session's playback one frame under its
// lock, with no act and no reply.
func advanceInPlace(t testing.TB, m *Manager, id string) {
	t.Helper()
	h, err := m.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	err = h.sess.Advance(1)
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// TestFrameBuffersAreLent: a live session holds no frame buffer. A frame
// request borrows one from a pool for the length of its callback, so
// once the sessions' playback is warm, frames across many distinct sessions
// allocate nothing, and a fresh session's first frame allocates less than a
// frame's pixels (57.6 KB at 160×120): the buffer it renders into is one an
// earlier request already returned.
func TestFrameBuffersAreLent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	var pixels int
	frame := func(id string, advance int) {
		if advance > 0 {
			advanceInPlace(t, m, id)
		}
		if err := m.WithFrame(id, func(f *raster.Frame, _ int) error {
			pixels = len(f.Pix)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 64)
	for i := range ids {
		r, err := createSession(m, "classroom")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.Session
	}
	frame(ids[0], 0)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for _, id := range ids[1:] {
		frame(id, 0)
	}
	goruntime.ReadMemStats(&after)
	if perFirst := int(after.TotalAlloc-before.TotalAlloc) / (len(ids) - 1); perFirst >= pixels {
		t.Errorf("a fresh session's first frame allocates %d B, at least a %d B frame buffer of its own", perFirst, pixels)
	}
	for range 50 { // a whole loop of the segment, so the wrap-around seek is warm
		for _, id := range ids {
			frame(id, 1)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		frame(ids[i%len(ids)], 1)
		i++
	}); allocs != 0 {
		t.Errorf("frames across %d sessions allocate %.2f per request, want 0", len(ids), allocs)
	}
}

// TestSessionCountsFollowCreatesAndLeaves creates many sessions and checks
// the created and live counts, then that every leave releases its slot.
func TestSessionCountsFollowCreatesAndLeaves(t *testing.T) {
	ts, m := liveService(t, Options{TTL: -1})
	const n = 32
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = dial(t, ts, nil)
		clients[i].Advance(1)
	}
	st := m.Snapshot()
	if stat(t, st, "sessions_created") != n || stat(t, st, "sessions_live") != n {
		t.Fatalf("stats = %v", st)
	}
	if got := len(m.LiveSessions()); got != n {
		t.Fatalf("LiveSessions lists %d ids, want %d", got, n)
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Live() != 0 {
		t.Fatalf("live = %d after closing all", m.Live())
	}
}

// TestEventLogTrimming pins the ack-and-release side of the protocol: the
// server retains only the event tail the client has not yet acknowledged,
// and a retried request with a stale seen-count still gets the retained
// tail instead of an error.
func TestEventLogTrimming(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	seen := r.EventCount
	var lastTail int
	for i := 0; i < 6; i++ {
		rr, err := m.Act(&ActRequest{Session: r.Session, Kind: ActTalk, Object: "teacher", SeenEvents: seen})
		if err != nil {
			t.Fatal(err)
		}
		seen = rr.EventCount
		lastTail = len(rr.Events)
	}
	h, err := m.lookup(r.Session)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	retained, base := len(h.events), h.eventBase
	h.mu.Unlock()
	if base+retained != seen {
		t.Fatalf("retained window [%d,%d) disagrees with total %d", base, base+retained, seen)
	}
	if retained != lastTail {
		t.Fatalf("server retains %d events, want only the last unacked tail (%d)", retained, lastTail)
	}
	// A stale retry (seen-count lower than the trimmed base) is served the
	// retained tail, not an error, and EventCount stays absolute.
	rr, err := m.Act(&ActRequest{Session: r.Session, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.EventCount != seen || len(rr.Events) != retained {
		t.Fatalf("stale read: count %d tail %d, want %d/%d", rr.EventCount, len(rr.Events), seen, retained)
	}
}

// TestCreateCapUnderConcurrency hammers a cap-8 manager with parallel
// creates, then with parallel thaws racing creates: the atomic slot
// reservation, taken by a thaw as by a create, must never let the live
// count or the session map overshoot MaxSessions.
func TestCreateCapUnderConcurrency(t *testing.T) {
	m := NewManager(Options{TTL: -1, MaxSessions: 8})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var created atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := createSession(m, "classroom"); err == nil {
				created.Add(1)
			}
		}()
	}
	wg.Wait()
	if created.Load() != 8 || m.Live() != 8 {
		t.Fatalf("created %d live %d, cap is 8", created.Load(), m.Live())
	}
	if live := stat(t, m.Snapshot(), "sessions_live"); live != 8 {
		t.Fatalf("snapshot live = %d", live)
	}

	// Freeze the eight, then race their thaws (resumes) against 24 more
	// creates: the cap holds whichever kind takes a slot.
	frozen := m.LiveSessions()
	for _, id := range frozen {
		if err := m.Freeze(id); err != nil {
			t.Fatal(err)
		}
	}
	var admitted atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i < len(frozen) {
				_, err = m.ActBatch(&BatchRequest{Session: frozen[i], Resume: true})
			} else {
				_, err = createSession(m, "classroom")
			}
			if err == nil {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 8 || m.Live() != 8 || len(m.LiveSessions()) != 8 {
		t.Fatalf("admitted %d, live %d, hosted %d after thaws raced creates; cap is 8", admitted.Load(), m.Live(), len(m.LiveSessions()))
	}
}

// TestPackageSharing pins that hosted sessions share one parsed package:
// the course is opened once, not per create.
func TestPackageSharing(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	r1, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Session == r2.Session {
		t.Fatalf("duplicate session id %q", r1.Session)
	}
	h1, err := m.lookup(r1.Session)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.lookup(r2.Session)
	if err != nil {
		t.Fatal(err)
	}
	if h1.course.pkg != h2.course.pkg {
		t.Fatal("sessions do not share the parsed package")
	}
	if h1.sess.Project() != h2.sess.Project() {
		t.Fatal("sessions do not share the project document")
	}
}

// --- chunk store hosting (PR 4) --------------------------------------------

// TestCoursesShareVideo: N courses over the same footage hold one video
// buffer — the "pay for the bytes once" property of the chunk-store
// refactor.
func TestCoursesShareVideo(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	// A second course: same footage, different project document.
	other := content.Classroom()
	other.Project.Title = "Remedial Repair"
	video, err := other.RecordVideo(studio.Options{QStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := gamepack.Build(other.Project, video)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddCourse("remedial", blob2); err != nil {
		t.Fatal(err)
	}
	if courses := m.Courses(); len(courses) != 2 {
		t.Fatalf("courses = %v", courses)
	}
	if n := stat(t, m.Snapshot(), "video_buffers"); n != 1 {
		t.Errorf("video buffers = %d, want 1 (shared footage)", n)
	}
	// Both courses still play.
	for _, course := range []string{"classroom", "remedial"} {
		r, err := createSession(m, course)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActLeave}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCourseReplaceReleasesVideo: re-publishing a course with new footage
// must drop the old video buffer instead of pinning a generation per edit.
func TestCourseReplaceReleasesVideo(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	edited := content.Classroom()
	edited.Film.Shots[1].Seed ^= 0xbeef
	blob2, err := edited.BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddCourse("classroom", blob2); err != nil {
		t.Fatal(err)
	}
	if n := stat(t, m.Snapshot(), "video_buffers"); n != 1 {
		t.Errorf("video buffers = %d after replace, want 1", n)
	}
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Act(&ActRequest{Session: r.Session, Kind: ActLeave}); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerRefusals: what a node and the gateway refuse before any
// session is touched — a request with the wrong method, a malformed or
// oversized JSON body, a frame that does not parse, a frame GET that names
// no session or that no node can take. Each row's body says
// which check answered, so a refusal that falls through to a later one
// fails too.
func TestHandlerRefusals(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	defer m.Close()
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	g := NewGateway(nil) // no node: nothing refused here reaches one
	// An oversized create would open a session if it were read whole.
	oversized := `{"session":"big","course":"classroom","pad":"` + strings.Repeat("x", maxBody) + `"}`
	for _, tc := range []struct {
		name         string
		h            http.Handler
		method, path string
		body         string
		status       int
		says         string
	}{
		{"node act GET", m.Handler(), http.MethodGet, ActPath, "", http.StatusMethodNotAllowed, "POST only"},
		{"node act malformed JSON", m.Handler(), http.MethodPost, ActPath, `{"session":`, http.StatusBadRequest, "bad request"},
		{"node act oversized", m.Handler(), http.MethodPost, ActPath, oversized, http.StatusBadRequest, "too large"},
		{"node actv2 GET", m.Handler(), http.MethodGet, ActV2Path, "", http.StatusMethodNotAllowed, "POST only"},
		{"node actv2 bad frame", m.Handler(), http.MethodPost, ActV2Path, "not a frame", http.StatusBadRequest, "bad request"},
		{"node drain GET", m.Handler(), http.MethodGet, DrainPath, "", http.StatusMethodNotAllowed, "POST only"},
		{"gateway act malformed JSON", g.Handler(), http.MethodPost, ActPath, `{"session":`, http.StatusBadRequest, "bad request"},
		{"gateway actv2 GET", g.Handler(), http.MethodGet, ActV2Path, "", http.StatusMethodNotAllowed, "POST only"},
		{"gateway actv2 bad frame", g.Handler(), http.MethodPost, ActV2Path, "not a frame", http.StatusBadRequest, "bad request"},
		{"gateway frame without session", g.Handler(), http.MethodGet, FramePath, "", http.StatusBadRequest, "missing session"},
		{"gateway frame with no node", g.Handler(), http.MethodGet, FramePath + "?session=s1", "", http.StatusBadGateway, "no nodes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.says) {
				t.Fatalf("%s %s answered %d %q, want %d saying %q", tc.method, tc.path, rec.Code, rec.Body.String(), tc.status, tc.says)
			}
			if tc.status == http.StatusMethodNotAllowed && rec.Header().Get("Allow") != http.MethodPost {
				t.Fatalf("405 with Allow %q, want POST", rec.Header().Get("Allow"))
			}
		})
	}
	if m.Live() != 0 || m.DrainAll() != 0 {
		t.Fatal("a refused request opened a session")
	}
}
