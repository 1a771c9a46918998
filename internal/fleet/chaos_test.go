package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/faultnet"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestClusterChaosSoak is the resilience gate: 200 interactive learners
// play through a 3-node cluster while every HTTP hop — fleet→gateway,
// fleet→front, and gateway→node — crosses a seeded wifi-flaky fault
// injector (added latency, dropped requests, connection resets, injected
// 503s, slow responses), and one node is crash-killed mid-run. The bar is
// the same as the clean churn gate: zero failed learners, zero lost
// sessions, and exact telemetry accounting — retries, act-sequence dedup,
// idempotent creates, auto-resume, and the gateway's exclusion routing
// have to absorb every injected fault. The resilience counters must also
// be scrapeable from a /metrics registry.
func TestClusterChaosSoak(t *testing.T) {
	profile, ok := faultnet.Lookup("wifi-flaky")
	if !ok {
		t.Fatal("wifi-flaky profile missing")
	}

	// Front server: package catalog + telemetry ingest.
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	svc := telemetry.NewService(telemetry.Options{})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	if err := srv.Mount("/telemetry/", h); err != nil {
		t.Fatal(err)
	}
	if err := srv.Mount(telemetry.HealthPath, h); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	// Play cluster whose gateway→node hops are themselves fault-injected:
	// the breakers and exclusion routing see real transport failures, not
	// just the killed node.
	gwHTTP := faultnet.WrapClient(&http.Client{Transport: faultnet.NewHTTPTransport(64)}, profile, 7)
	cl, err := playsvc.NewCluster(playsvc.ClusterOptions{
		HTTP: gwHTTP,
		Node: playsvc.Options{TTL: -1, CheckpointEvery: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.AddCourse("classroom", classroomBlob(t)); err != nil {
		t.Fatal(err)
	}
	published := cl.Store().Stats().Chunks
	for i := 0; i < 3; i++ {
		if _, err := cl.StartNode(); err != nil {
			t.Fatal(err)
		}
	}
	gwSrv := httptest.NewServer(cl.Gateway().Handler())
	t.Cleanup(gwSrv.Close)

	// The resilience counters ride the ordinary metrics registry: the
	// gateway's breaker/retry families plus one surviving node's admission
	// counters, exactly what vgbl-server exports at /metrics.
	reg := obs.NewRegistry("vgbl")
	cl.Gateway().Register(reg)
	names := cl.NodeNames()
	victim, kept := names[0], names[1]
	cl.Node(kept).Manager.Register(reg)

	// Crash (not drain) one node as soon as a healthy slice of sessions is
	// live, then bring in a replacement. Sessions on the victim lose at
	// most one checkpoint interval and must thaw elsewhere via the
	// clients' auto-resume.
	churned := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(60 * time.Second)
		for cl.Gateway().SessionCount() < 40 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if err := cl.KillNode(victim); err != nil {
			churned <- "kill " + victim + ": " + err.Error()
			return
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := cl.StartNode(); err != nil {
			churned <- "start replacement: " + err.Error()
			return
		}
		churned <- ""
	}()

	// The whole fleet rides one flaky transport (separate seed from the
	// gateway's so the two fault streams are uncorrelated).
	fleetHTTP := faultnet.WrapClient(&http.Client{Transport: faultnet.NewHTTPTransport(64)}, profile, 11)
	const learners = 200
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
		HTTP:        fleetHTTP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg := <-churned; msg != "" {
		t.Fatalf("churn failed: %s", msg)
	}

	// Zero lost sessions: every learner finished despite the faults.
	if sum.Failed != 0 {
		t.Fatalf("%d learners failed under faults: %v", sum.Failed, sum.Errors)
	}
	if len(sum.Reports) != learners {
		t.Fatalf("reports = %d, want %d", len(sum.Reports), learners)
	}
	if sum.Completed == 0 {
		t.Error("no guided learner completed the mission under chaos")
	}

	// The cluster healed behind the fleet's back: every id was created
	// (retried creates may recount — the id-keyed dedup makes the retry
	// safe, not invisible), the kill forced snapshot resumes, and nothing
	// is left live.
	gs := cl.Gateway().Stats()
	if n := stat(t, gs.Gateway, "creates"); n < learners {
		t.Errorf("gateway created %d sessions, want >= %d", n, learners)
	}
	if stat(t, gs.Cluster, "sessions_resumed") == 0 {
		t.Error("no session resumed — the crash missed the run")
	}
	if stat(t, gs.Gateway, "retries") == 0 {
		t.Error("gateway retried nothing despite injected faults")
	}
	if live, tracked := stat(t, gs.Cluster, "sessions_live"), stat(t, gs.Gateway, "sessions"); live != 0 || tracked != 0 {
		t.Errorf("cluster still holds %d live / %d tracked sessions", live, tracked)
		for _, name := range cl.NodeNames() {
			for _, id := range cl.Node(name).Manager.LiveSessions() {
				ref, ok := cl.Dir().Lookup(id)
				t.Logf("node %s holds %s (dir entry %v, checkpoint %v)", name, id, ok, ok && ref.Checkpoint)
			}
		}
	}

	// A crash-killed node's sessions recover from their directory entries;
	// none of it ever reaches the chunk store.
	if got := cl.Store().Stats().Chunks; got != published {
		t.Errorf("the chunk store holds %d chunks, %d after publishing", got, published)
	}

	// Exact telemetry accounting, the same bar as the clean churn gate:
	// lost acks are replayed under the same batch sequence number and
	// deduplicated server-side, so injected drops/resets must not skew a
	// single counter.
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

	// The resilience counters are scrapeable: breaker, retry and shed
	// families all present in the Prometheus rendering.
	var b strings.Builder
	reg.WritePrometheus(&b)
	metrics := b.String()
	for _, family := range []string{
		"vgbl_gateway_breaker_trips_total",
		"vgbl_gateway_breakers_open",
		"vgbl_gateway_retries_total",
		"vgbl_playsvc_shed_total",
		"vgbl_playsvc_inflight",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("metric family %s missing from /metrics", family)
		}
	}
}
