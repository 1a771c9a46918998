package fleet

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// churnStack brings up the cluster deployment shape: a front server with
// the package catalog and telemetry ingest, plus an n-node play cluster
// behind a gateway. The fleet downloads and reports against the front and
// plays against the gateway.
func churnStack(t *testing.T, nodes int) (front *httptest.Server, gwSrv *httptest.Server, svc *telemetry.Service, cl *playsvc.Cluster) {
	t.Helper()
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	svc = telemetry.NewService(telemetry.Options{})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	if err := srv.Mount("/telemetry/", h); err != nil {
		t.Fatal(err)
	}
	if err := srv.Mount(telemetry.HealthPath, h); err != nil {
		t.Fatal(err)
	}
	front = httptest.NewServer(srv)
	t.Cleanup(front.Close)

	cl, err := playsvc.NewCluster(playsvc.ClusterOptions{
		Node: playsvc.Options{TTL: -1, CheckpointEvery: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	gwSrv = httptest.NewServer(cl.Gateway().Handler())
	t.Cleanup(gwSrv.Close)
	return front, gwSrv, svc, cl
}

// TestClusterChurnResume is the multi-node scale gate: ≥200 interactive
// learners play through the cluster gateway across 3 nodes while one node
// is taken down mid-run (gracefully — a deploy-style SIGTERM that drains
// every hosted session into the shared directory) and a replacement node
// joins. Learners must never notice: zero failed sessions, zero losses,
// and the ingested telemetry totals must equal the sum of the 200 local
// reports exactly — the same bar the single-node fleet test sets.
func TestClusterChurnResume(t *testing.T) {
	front, gwSrv, svc, cl := churnStack(t, 3)
	const learners = 200
	published := cl.Store().Stats().Chunks

	// Churn while the fleet is mid-flight: as soon as a healthy slice of
	// sessions is live, kill one node (drain → freeze → reroute) and then
	// bring a fresh node in (shifting ~1/4 of the id space onto it).
	churned := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for cl.Gateway().SessionCount() < 40 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		victim := cl.NodeNames()[0]
		if err := cl.StopNode(victim); err != nil {
			churned <- "stop " + victim + ": " + err.Error()
			return
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := cl.StartNode(); err != nil {
			churned <- "start replacement: " + err.Error()
			return
		}
		churned <- ""
	}()

	sum, err := Run(Config{
		ServerURL:   front.URL,
		PlayURL:     gwSrv.URL,
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
	if msg := <-churned; msg != "" {
		t.Fatalf("churn failed: %s", msg)
	}
	// Zero lost sessions: every learner finished, none errored.
	if sum.Failed != 0 {
		t.Fatalf("%d learners failed: %v", sum.Failed, sum.Errors)
	}
	if len(sum.Reports) != learners {
		t.Fatalf("reports = %d", len(sum.Reports))
	}
	if sum.Completed == 0 {
		t.Error("no guided learner completed the mission under churn")
	}

	// The churn actually bit: the gateway created every session, the dead
	// node's sessions were frozen and thawed elsewhere, and nothing is
	// left behind — no live sessions, no tracked ids, no orphaned
	// snapshots in the directory.
	gs := cl.Gateway().Stats()
	if n := stat(t, gs.Gateway, "creates"); n != learners {
		t.Errorf("gateway created %d sessions, want %d", n, learners)
	}
	if stat(t, gs.Cluster, "sessions_resumed") == 0 {
		t.Error("churn resumed no sessions — the node removal missed the run")
	}
	if live, tracked := stat(t, gs.Cluster, "sessions_live"), stat(t, gs.Gateway, "sessions"); live != 0 || tracked != 0 {
		t.Errorf("cluster still holds %d live / %d tracked sessions", live, tracked)
	}
	if dir, ok := cl.Dir().(*playsvc.MemDir); ok && dir.Len() != 0 {
		t.Errorf("%d snapshots stranded in the directory", dir.Len())
	}
	// The store holds courses and nothing else: freezes, checkpoints and
	// thaws never touch it.
	if got := cl.Store().Stats().Chunks; got != published {
		t.Errorf("the chunk store holds %d chunks, %d after publishing", got, published)
	}

	// Exact telemetry accounting, unchanged from the single-node bar: the
	// ingested course totals equal the sum of the local per-learner
	// reports digested from the events the cluster emitted.
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
