package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var (
	oncePkg sync.Once
	pkgBlob []byte
	pkgErr  error
)

func classroomBlob(t *testing.T) []byte {
	t.Helper()
	oncePkg.Do(func() {
		pkgBlob, pkgErr = content.Classroom().BuildPackage(studio.Options{QStep: 12})
	})
	if pkgErr != nil {
		t.Fatal(pkgErr)
	}
	return pkgBlob
}

// liveStack brings up a deployment with the classroom course published —
// the full stack the load generator targets.
func liveStack(t *testing.T) (*httptest.Server, *telemetry.Service, *playsvc.Manager) {
	t.Helper()
	d := deployStack(t, deploy.Config{})
	ts := httptest.NewServer(d)
	t.Cleanup(ts.Close)
	return ts, d.Telemetry, d.Play
}

// deployStack builds a deployment and publishes the classroom course.
func deployStack(t *testing.T, c deploy.Config) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.Publish("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleet500StatsExact is the subsystem's acceptance test: 500 concurrent
// simulated learners play against a live netstream.Server, reporting
// through batched telemetry, and the ingested course totals must equal the
// sum of the 500 local per-session analytics reports — exactly.
func TestFleet500StatsExact(t *testing.T) {
	ts, svc, _ := liveStack(t)
	const learners = 500
	sum, err := Run(Config{
		ServerURL:   ts.URL,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30},
		FlushEvery:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d learners failed: %v", sum.Failed, sum.Errors)
	}
	if len(sum.Reports) != learners {
		t.Fatalf("reports = %d", len(sum.Reports))
	}

	// Ground truth: the straight sum of the per-session local reports.
	var want analytics.Rolling
	for _, r := range sum.Reports {
		want.Add(r)
	}
	cs := svc.Store().Snapshot()["classroom"]
	if cs.SessionsStarted != learners || cs.SessionsEnded != learners || cs.LiveSessions != 0 {
		t.Fatalf("session accounting: %+v", cs)
	}
	if cs.Events != want.Events || cs.Decisions != want.Decisions ||
		cs.Knowledge != want.Knowledge || cs.UniqueKnowledge != want.UniqueKnowledge ||
		cs.Rewards != want.Rewards || cs.Completed != want.Completed ||
		cs.Ticks != want.Ticks || cs.QuizAsked != want.QuizAsked ||
		cs.QuizCorrect != want.QuizCorrect {
		t.Errorf("ingested totals diverge from summed reports:\n got %+v\nwant %+v", cs, want)
	}
	for unit, n := range want.KnowledgeCounts {
		if cs.KnowledgeCounts[unit] != n {
			t.Errorf("KnowledgeCounts[%q] = %d, want %d", unit, cs.KnowledgeCounts[unit], n)
		}
	}
	for outcome, n := range want.Outcomes {
		if cs.Outcomes[outcome] != n {
			t.Errorf("Outcomes[%q] = %d, want %d", outcome, cs.Outcomes[outcome], n)
		}
	}
	sessions := 0
	for _, n := range cs.TickHist {
		sessions += n
	}
	if sessions != learners {
		t.Errorf("tick histogram holds %d sessions: %v", sessions, cs.TickHist)
	}

	// The manifest cache did its job: one cold delta sync (the prefetch:
	// manifest + every distinct chunk, exactly once), then one 304
	// revalidation per learner.
	if sum.Fetch.NotModified != learners {
		t.Errorf("not-modified = %d, want %d", sum.Fetch.NotModified, learners)
	}
	man, err := gamepack.ExtractManifest(classroomBlob(t))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := len(man.Encode())
	for _, size := range man.ChunkSet() {
		wantBytes += size
	}
	if sum.Fetch.BytesFetched != wantBytes {
		t.Errorf("fetched %d bytes, want exactly one manifest+chunk sync (%d)", sum.Fetch.BytesFetched, wantBytes)
	}
	if sum.Fetch.ChunksFetched != len(man.ChunkSet()) {
		t.Errorf("fetched %d chunks, want %d", sum.Fetch.ChunksFetched, len(man.ChunkSet()))
	}
	if sum.EventsReported != want.Events {
		t.Errorf("events reported = %d, want %d", sum.EventsReported, want.Events)
	}
	if sum.BatchesReported < learners { // at least the final done batch each
		t.Errorf("batches = %d", sum.BatchesReported)
	}
	if sum.Completed == 0 {
		t.Error("no guided learner completed the classroom mission")
	}
}

// TestFleetProgressiveAndInterval exercises the interval flusher on a small
// fleet (the progressive-startup measurement it once also switched on is
// fleet.RunStreamers).
func TestFleetProgressiveAndInterval(t *testing.T) {
	ts, svc, _ := liveStack(t)
	sum, err := Run(Config{
		ServerURL:     ts.URL,
		Package:       "classroom",
		Learners:      10,
		Policy:        sim.ExplorerFactory,
		Sim:           sim.Config{MaxSteps: 6, TicksPerStep: 1, Patience: 30},
		FlushEvery:    1000, // only the timer and Close flush
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("failures: %v", sum.Errors)
	}
	var want analytics.Rolling
	for _, r := range sum.Reports {
		want.Add(r)
	}
	cs := svc.Store().Snapshot()["classroom"]
	if cs.Events != want.Events || cs.SessionsEnded != 10 {
		t.Errorf("stats = %+v, want events %d", cs, want.Events)
	}
	if sum.Startup.Max <= 0 || sum.Session.Max <= 0 {
		t.Errorf("latency summaries empty: %+v / %+v", sum.Startup, sum.Session)
	}
}

// TestPlaysvc200Learners is the play service's scale/race acceptance test:
// 200 concurrent learners play the full game over the wire — every click,
// quiz answer and scenario switch is an HTTP act against server-hosted
// sessions — while reporting through telemetry. Session accounting on the
// play service and ingested telemetry totals must both be exact.
func TestPlaysvc200Learners(t *testing.T) {
	ts, svc, mgr := liveStack(t)
	const learners = 200
	sum, err := Run(Config{
		ServerURL:   ts.URL,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: true,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, WatchEvery: 4},
		FlushEvery:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d learners failed: %v", sum.Failed, sum.Errors)
	}
	if len(sum.Reports) != learners {
		t.Fatalf("reports = %d", len(sum.Reports))
	}
	if sum.Completed == 0 {
		t.Error("no remote guided learner completed the classroom mission")
	}

	// Exact session accounting on the play service: every learner created
	// one hosted session and released it on the way out.
	ps := mgr.Snapshot()
	if stat(t, ps, "sessions_created") != learners || stat(t, ps, "sessions_closed") != learners ||
		stat(t, ps, "sessions_live") != 0 || stat(t, ps, "sessions_evicted") != 0 {
		t.Fatalf("play service accounting: %v", ps)
	}
	if acts := stat(t, ps, "acts"); acts < int64(learners)*12 {
		t.Errorf("acts = %d, implausibly low for %d learners", acts, learners)
	}
	if stat(t, ps, "frames") == 0 {
		t.Error("WatchEvery fetched no frames")
	}

	// Exact telemetry accounting, same bar as the local-sim fleet: the
	// ingested course totals equal the sum of the local per-learner reports
	// digested from the events the server emitted.
	var want analytics.Rolling
	for _, r := range sum.Reports {
		want.Add(r)
	}
	cs := svc.Store().Snapshot()["classroom"]
	if cs.SessionsStarted != learners || cs.SessionsEnded != learners || cs.LiveSessions != 0 {
		t.Fatalf("telemetry session accounting: %+v", cs)
	}
	if cs.Events != want.Events || cs.Decisions != want.Decisions ||
		cs.Knowledge != want.Knowledge || cs.UniqueKnowledge != want.UniqueKnowledge ||
		cs.Rewards != want.Rewards || cs.Completed != want.Completed ||
		cs.Ticks != want.Ticks || cs.QuizAsked != want.QuizAsked ||
		cs.QuizCorrect != want.QuizCorrect {
		t.Errorf("ingested totals diverge from summed reports:\n got %+v\nwant %+v", cs, want)
	}
	if sum.EventsReported != want.Events {
		t.Errorf("events reported = %d, want %d", sum.EventsReported, want.Events)
	}
}

// TestFleetInteractiveMatchesLocalTotals runs the same seeded fleet twice —
// local simulation vs remote play — and requires identical aggregate
// learning outcomes: hosting the session server-side must not change what
// learners experience.
func TestFleetInteractiveMatchesLocalTotals(t *testing.T) {
	run := func(interactive bool) *Summary {
		ts, _, _ := liveStack(t)
		sum, err := Run(Config{
			ServerURL:   ts.URL,
			Package:     "classroom",
			Learners:    20,
			Interactive: interactive,
			Policy:      sim.GuidedFactory,
			Sim:         sim.Config{MaxSteps: 10, TicksPerStep: 1, Patience: 30, Seed: 5},
			FlushEvery:  8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 {
			t.Fatalf("failures: %v", sum.Errors)
		}
		return sum
	}
	local, remote := run(false), run(true)
	var localAgg, remoteAgg analytics.Rolling
	for i := range local.Reports {
		localAgg.Add(local.Reports[i])
		remoteAgg.Add(remote.Reports[i])
	}
	if localAgg.Events != remoteAgg.Events || localAgg.Knowledge != remoteAgg.Knowledge ||
		localAgg.Completed != remoteAgg.Completed || localAgg.Ticks != remoteAgg.Ticks ||
		localAgg.QuizCorrect != remoteAgg.QuizCorrect {
		t.Errorf("local and remote fleets diverge:\nlocal  %+v\nremote %+v", localAgg, remoteAgg)
	}
	if local.Steps != remote.Steps {
		t.Errorf("steps: local %d, remote %d", local.Steps, remote.Steps)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{ServerURL: "http://127.0.0.1:1", Package: "nope", Learners: 1}); err == nil {
		t.Error("unreachable server not reported")
	}
}

// TestMirrorNeedsInteractive: a mirror is a hosted session's local
// replica, so PlayMirror without Interactive is refused before any request
// instead of silently running local simulation.
func TestMirrorNeedsInteractive(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	_, err := Run(Config{ServerURL: srv.URL, Package: "classroom", Learners: 1, PlayMirror: true})
	if err == nil || !strings.Contains(err.Error(), "PlayMirror needs Interactive") {
		t.Errorf("PlayMirror without Interactive: err = %v", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the refused config sent %d requests", n)
	}
}

func TestSummaryString(t *testing.T) {
	s := &Summary{Learners: 3, Completed: 2, Failed: 1, Errors: []string{"learner 0: boom"}}
	out := s.String()
	for _, want := range []string{"3 learners", "2 completed", "boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// stat reads one key of a flat stats view. An absent key fails the test,
// so a misspelt name cannot read as 0.
func stat(t testing.TB, flat map[string]int64, key string) int64 {
	t.Helper()
	v, ok := flat[key]
	if !ok {
		t.Fatalf("stats have no key %q: %v", key, flat)
	}
	return v
}
