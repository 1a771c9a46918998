package playsvc

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// demoCourses are the three demo courses, each packaged once.
var demoCourses = sync.OnceValues(func() (map[string]demoCourse, error) {
	out := map[string]demoCourse{}
	for name, c := range map[string]*content.Course{
		"classroom": content.Classroom(),
		"museum":    content.Museum(),
		"street":    content.StreetDemo(),
	} {
		b, err := c.BuildPackage(studio.Options{QStep: 10})
		if err != nil {
			return nil, err
		}
		out[name] = demoCourse{c.Project, b}
	}
	return out, nil
})

type demoCourse struct {
	proj *core.Project
	blob []byte
}

// traceActs is the act batch a thin client sends for one step of a
// recorded sim trace: the action, the quiz answers, the watching time.
func traceActs(proj *core.Project, st sim.TraceStep) []ActRequest {
	a := st.Action
	var acts []ActRequest
	switch a.Kind {
	case "click":
		_, o := proj.FindObject(a.Object)
		acts = append(acts, ActRequest{Kind: ActClick, X: o.Region.X + o.Region.W/2, Y: o.Region.Y + o.Region.H/2})
	case "use":
		acts = append(acts, ActRequest{Kind: ActUse, Item: a.Item, Object: a.Object})
	default:
		acts = append(acts, ActRequest{Kind: a.Kind, Object: a.Object})
	}
	for _, ans := range st.Answers {
		acts = append(acts, ActRequest{Kind: ActQuiz, Quiz: ans.Quiz, Choice: ans.Choice})
	}
	return append(acts, ActRequest{Kind: ActTick, Ticks: st.Ticks})
}

// batchDriver plays one hosted session batch by batch, as a client that
// acknowledges events one reply late (so a freeze often holds a tail), and
// keeps the event log the replies deliver. With freeze set, the session is
// frozen after every batch and every frame, so each request thaws it.
type batchDriver struct {
	t       *testing.T
	m       *Manager
	id      string
	freeze  bool
	seq     int64
	seen    [2]int // the two latest replies' event counts
	events  []runtime.Event
	freezes int
}

func (d *batchDriver) batch(req *BatchRequest) {
	d.t.Helper()
	req.Session, req.SeenEvents = d.id, d.seen[0]
	if len(req.Acts) > 0 {
		req.BaseSeq = d.seq + 1
		d.seq += int64(len(req.Acts))
	}
	out, err := d.m.ActBatch(req)
	if err != nil {
		d.t.Fatalf("%s: batch %d: %v", d.id, d.seq, err)
	}
	if out.ActErr != nil {
		d.t.Fatalf("%s: batch %d: %v", d.id, d.seq, out.ActErr)
	}
	r := out.Reply
	from := r.EventCount - len(r.Events)
	if from > len(d.events) {
		d.t.Fatalf("%s: reply serves events from %d, %d delivered", d.id, from, len(d.events))
	}
	d.events = append(d.events[:from], r.Events...)
	d.seen = [2]int{d.seen[1], r.EventCount}
	d.frozen()
}

// frame ticks the session by a batch of its own, then reads its frame: a
// frame read moves no playback.
func (d *batchDriver) frame(ticks int) {
	d.t.Helper()
	d.batch(&BatchRequest{Acts: []ActRequest{{Kind: ActTick, Ticks: ticks}}})
	if err := d.m.WithFrame(d.id, func(*raster.Frame, int) error { return nil }); err != nil {
		d.t.Fatalf("%s: frame: %v", d.id, err)
	}
	d.frozen()
}

func (d *batchDriver) frozen() {
	d.t.Helper()
	if !d.freeze {
		return
	}
	if err := d.m.Freeze(d.id); err != nil {
		d.t.Fatal(err)
	}
	d.freezes++
}

// finish thaws the session if it is frozen and reads off what it shows.
func (d *batchDriver) finish() (view struct {
	messages, opened []string
	state, frame     []byte
	ticks            int
	ended            bool
	outcome          string
}) {
	d.t.Helper()
	err := d.m.WithFrame(d.id, func(f *raster.Frame, _ int) error {
		view.frame = append([]byte(nil), f.Pix...)
		return nil
	})
	if err != nil {
		d.t.Fatal(err)
	}
	h, err := d.m.lookup(d.id)
	if err != nil {
		d.t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.sess
	view.state = stateBytes(s.State())
	view.messages, view.opened = s.Messages(), s.OpenedResources()
	view.ticks, view.ended, view.outcome = s.Ticks(), s.Ended(), s.Outcome()
	return view
}

// TestThawAtEveryBatch: a hosted session frozen after every batch and
// every frame — so each request thaws it from its envelope — plays exactly
// as one never frozen. All three demos, the guided policy and random seeds
// 1–3; tick batches each followed by a frame read, and more than maxTicks ticks
// between two freezes. The assertions are the runtime resume-equivalence
// test's: event log, transcript, state bytes, ticks, outcome,
// opened resources and the rendered frame.
func TestThawAtEveryBatch(t *testing.T) {
	courses, err := demoCourses()
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := durableOptions(t)
	m := NewManager(opts)
	t.Cleanup(m.Close)
	for name, c := range courses {
		if err := m.AddCourse(name, c.blob); err != nil {
			t.Fatal(err)
		}
	}
	policies := []struct {
		f    sim.Factory
		seed int64
	}{{sim.GuidedFactory, 1}, {sim.RandomFactory, 1}, {sim.RandomFactory, 2}, {sim.RandomFactory, 3}}
	for _, name := range []string{"classroom", "museum", "street"} {
		for _, p := range policies {
			t.Run(fmt.Sprintf("%s/%s-%d", name, p.f.Name, p.seed), func(t *testing.T) {
				res, err := sim.Run(courses[name].blob, p.f, sim.Config{MaxSteps: 60, Patience: 60, Seed: p.seed, RecordTrace: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d steps, %s", len(res.Trace), res.QuitReason)
				proj := courses[name].proj
				play := func(d *batchDriver) {
					d.batch(&BatchRequest{Create: name})
					for i, st := range res.Trace {
						d.batch(&BatchRequest{Acts: traceActs(proj, st)})
						if i%2 == 1 {
							d.frame(2)
						}
						if i == len(res.Trace)/2 {
							d.batch(&BatchRequest{Acts: []ActRequest{{Kind: ActTick, Ticks: maxTicks}, {Kind: ActTick, Ticks: maxTicks}}})
							d.frame(maxTicks)
						}
					}
				}
				id := fmt.Sprintf("%s-%s-%d", name, p.f.Name, p.seed)
				full := &batchDriver{t: t, m: m, id: id + "-full"}
				thawed := &batchDriver{t: t, m: m, id: id + "-thawed", freeze: true}
				resumedBefore := stat(t, m.Snapshot(), "sessions_resumed")
				play(full)
				play(thawed)
				want, got := full.finish(), thawed.finish()
				if n := stat(t, m.Snapshot(), "sessions_resumed") - resumedBefore; n != int64(thawed.freezes) {
					t.Fatalf("%d thaws for %d freezes", n, thawed.freezes)
				}

				if !reflect.DeepEqual(thawed.events, full.events) {
					t.Fatalf("event logs diverge:\n got %v\nwant %v", thawed.events, full.events)
				}
				if !reflect.DeepEqual(got.messages, want.messages) {
					t.Fatalf("transcripts diverge:\n got %q\nwant %q", got.messages, want.messages)
				}
				if !bytes.Equal(got.state, want.state) {
					t.Fatalf("final states diverge:\n got %q\nwant %q", got.state, want.state)
				}
				if got.ticks != want.ticks {
					t.Fatalf("ticks = %d, want %d", got.ticks, want.ticks)
				}
				if got.ended != want.ended || got.outcome != want.outcome {
					t.Fatalf("ended=%v outcome=%q, want %v %q", got.ended, got.outcome, want.ended, want.outcome)
				}
				if !reflect.DeepEqual(got.opened, want.opened) {
					t.Fatalf("opened resources diverge: %v vs %v", got.opened, want.opened)
				}
				if !bytes.Equal(got.frame, want.frame) {
					t.Fatal("thawed session renders a different frame")
				}
			})
		}
	}
}

// TestRefusedActsChangeNothing: every act a session refuses leaves it as it
// was — state, tick clock, transcript, armed item, the whole quiz queue,
// event log and everything else the session's snapshot holds — so a
// refusal is only ever an answer, never a change the client did not see.
func TestRefusedActsChangeNothing(t *testing.T) {
	m := NewManager(Options{TTL: -1})
	t.Cleanup(m.Close)
	if err := m.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	talk := ActRequest{Kind: ActTalk, Object: "teacher"}
	examine := ActRequest{Kind: ActExamine, Object: "computer"} // asks q-diagnosis
	take := ActRequest{Kind: ActTake, Object: "desk-coin"}
	arm := ActRequest{Kind: ActSelect, Item: "coin"}
	tick := ActRequest{Kind: ActTick, Ticks: 7}
	for _, tc := range []struct {
		name    string
		prefix  []ActRequest
		refused ActRequest
	}{
		{"select an item not carried", []ActRequest{talk, tick}, ActRequest{Kind: ActSelect, Item: "ram module"}},
		{"select over an armed item", []ActRequest{take, arm}, ActRequest{Kind: ActSelect, Item: "ram module"}},
		{"goto an unknown scenario", []ActRequest{talk, take, tick}, ActRequest{Kind: ActGoto, Object: "narnia"}},
		{"answer with no quiz pending", []ActRequest{talk}, ActRequest{Kind: ActQuiz, Quiz: "q-diagnosis"}},
		{"answer a quiz not at the head", []ActRequest{talk, examine}, ActRequest{Kind: ActQuiz, Quiz: "q-shopping"}},
		{"answer out of range", []ActRequest{talk, examine, take, arm}, ActRequest{Kind: ActQuiz, Quiz: "q-diagnosis", Choice: 99}},
		{"answer below range", []ActRequest{talk, examine}, ActRequest{Kind: ActQuiz, Quiz: "q-diagnosis", Choice: -1}},
		{"tick past the bound", []ActRequest{talk, examine, tick}, ActRequest{Kind: ActTick, Ticks: maxTicks + 1}},
		{"unknown kind", []ActRequest{take, tick}, ActRequest{Kind: "dance"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func(id string) *hosted {
				t.Helper()
				out, err := m.ActBatch(&BatchRequest{Session: id, Create: "classroom", Acts: tc.prefix})
				if err != nil || out.ActErr != nil {
					t.Fatalf("prefix: %v %v", err, out.ActErr)
				}
				h, err := m.lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			id := "refused-" + tc.name
			refused, twin := open(id), open(id+"-twin")
			out, err := m.ActBatch(&BatchRequest{Session: id, Acts: []ActRequest{tc.refused}})
			if err != nil {
				t.Fatal(err)
			}
			if out.ActErr == nil {
				t.Fatalf("%+v was not refused", tc.refused)
			}
			view := func(h *hosted) []any {
				h.mu.Lock()
				defer h.mu.Unlock()
				s := h.sess
				st := stateBytes(s.State())
				snap := s.Snapshot()
				var quizzes []string
				for { // the queue, drained in order (the session is not used again)
					q, ok := s.PendingQuiz()
					if !ok {
						break
					}
					quizzes = append(quizzes, q.ID)
					if _, err := s.AnswerQuiz(q.ID, 0); err != nil {
						t.Fatal(err)
					}
				}
				return []any{string(st), s.Ticks(), s.Messages(), s.SelectedItem(),
					append([]runtime.Event(nil), h.events...), quizzes, string(snap)}
			}
			got, want := view(refused), view(twin)
			for i, what := range []string{"state", "ticks", "transcript", "armed item", "event log", "quiz queue", "snapshot"} {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("the refused act changed the %s:\n got %v\nwant %v", what, got[i], want[i])
				}
			}
		})
	}
}

// TestRefusedFrameThawsNothing: a frame request naming advance is refused
// before the session is resolved, so against a frozen session it thaws
// nothing, counts no frame and leaves the directory entry released.
func TestRefusedFrameThawsNothing(t *testing.T) {
	opts, dir := durableOptions(t)
	ts, m := durableService(t, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	resp, err := http.Get(fmt.Sprintf("%s%s?session=%s&advance=%d", ts.URL, FramePath, r.Session, maxTicks+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("advance %d answered %d, want 400", maxTicks+1, resp.StatusCode)
	}
	after := m.Snapshot()
	for _, k := range []string{"sessions_resumed", "frames", "sessions_live"} {
		if stat(t, after, k) != stat(t, before, k) {
			t.Errorf("%s went from %d to %d", k, stat(t, before, k), stat(t, after, k))
		}
	}
	if ref, ok := dir.Lookup(r.Session); !ok || ref.Checkpoint {
		t.Fatalf("directory entry after the refused frame: present %v, checkpoint %v; want released", ok, ref.Checkpoint)
	}
}

// TestFrameRejectsMalformedAdvance: every advance is refused with 400, a
// malformed or empty one included — before the session is resolved, so a
// frozen session stays frozen and no frame is counted — while a frame GET
// with no advance is served.
func TestFrameRejectsMalformedAdvance(t *testing.T) {
	opts, dir := durableOptions(t)
	ts, m := durableService(t, opts)
	r, err := createSession(m, "classroom")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(r.Session); err != nil {
		t.Fatal(err)
	}
	get := func(query string) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s%s?session=%s%s", ts.URL, FramePath, r.Session, query))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	before := m.Snapshot()
	for _, bad := range []string{"abc", "1.5", "-", "0x10", "", "0", "1"} {
		if code := get("&advance=" + url.QueryEscape(bad)); code != http.StatusBadRequest {
			t.Errorf("advance %q answered %d, want 400", bad, code)
		}
	}
	after := m.Snapshot()
	for _, k := range []string{"sessions_resumed", "frames", "sessions_live"} {
		if stat(t, after, k) != stat(t, before, k) {
			t.Errorf("%s went from %d to %d", k, stat(t, before, k), stat(t, after, k))
		}
	}
	if ref, ok := dir.Lookup(r.Session); !ok || ref.Checkpoint {
		t.Fatalf("directory entry after the refused frames: present %v, checkpoint %v; want released", ok, ref.Checkpoint)
	}
	if code := get(""); code != http.StatusOK {
		t.Errorf("frame with no advance answered %d, want 200", code)
	}
}

// seedEnvelopes freezes two classroom sessions on m and returns their
// envelopes: a newborn one and one 60 random-policy steps in.
func seedEnvelopes(tb testing.TB, m *Manager, dir *MemDir) [][]byte {
	tb.Helper()
	res, err := sim.Run(classroomBlob(tb), sim.RandomFactory, sim.Config{MaxSteps: 60, Patience: 60, Seed: 1, RecordTrace: true})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Trace) != 60 {
		tb.Fatalf("the random learner quit after %d steps (%s)", len(res.Trace), res.QuitReason)
	}
	var out [][]byte
	for _, id := range []string{"seed-newborn", "seed-60-steps"} {
		if _, err := m.ActBatch(&BatchRequest{Session: id, Create: "classroom"}); err != nil {
			tb.Fatal(err)
		}
		if id == "seed-60-steps" {
			for _, st := range res.Trace {
				out, err := m.ActBatch(&BatchRequest{Session: id, Acts: traceActs(content.Classroom().Project, st)})
				if err != nil || out.ActErr != nil {
					tb.Fatalf("step %+v: %v %v", st, err, out.ActErr)
				}
			}
		}
		if err := m.Freeze(id); err != nil {
			tb.Fatal(err)
		}
		ref, _ := dir.Lookup(id)
		out = append(out, ref.Envelope)
	}
	return out
}
