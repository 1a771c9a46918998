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
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// E15 is the observability experiment: the same churn scenario as E14 —
// an interactive fleet through a 3-node cluster while one node is
// replaced mid-run — but measured through the metrics layer instead of
// ad-hoc counters. It scrapes every node's /metrics endpoint for the
// per-node act-latency percentile table the load-test CLI prints, and
// reads the gateway's rescue-latency histogram to price what a forced
// handoff costs the unlucky request.
func E15(learners int) (string, error) {
	if learners <= 0 {
		learners = 120
	}
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("E15 — where time went: per-node latency and rescue cost under churn\n")
	b.WriteString("3 play nodes behind a consistent-hash gateway; one node replaced\n")
	b.WriteString("mid-run; every number below is scraped from /metrics\n\n")

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
	// The gateway's own families (hops, rescue latency) live in a local
	// registry exactly as vgbl-server wires them.
	reg := obs.NewRegistry("vgbl")
	cl.Gateway().Register(reg)
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

	fmt.Fprintf(&b, "churn run: %d learners, %d completed, %d failed, %0.1f sessions/s\n\n",
		learners, sum.Completed, sum.Failed, sum.SessionsPerSec)

	// The per-node table a loadtest run prints: node discovery through the
	// gateway's /play/stats, histograms from each node's own /metrics.
	b.WriteString("per-node act latency (scraped from each node's /metrics):\n")
	b.WriteString(fleet.FormatLatencyTable(fleet.ScrapeActLatencies(nil, gw.URL)))
	b.WriteString("\n")

	// The price of churn, from the gateway's registry: how many routed
	// calls needed more than one backend hop, and what a rescue costs.
	snap := reg.Snapshot()
	fmt.Fprintf(&b, "gateway: %d creates, %d rescues, %d retries\n", snap.Value("vgbl_gateway_creates_total"),
		snap.Value("vgbl_gateway_rescues_total"), snap.Value("vgbl_gateway_retries_total"))
	if h := snap.Hist("vgbl_gateway_hops"); h != nil {
		multi := int64(0)
		for i, bound := range h.Bounds {
			if bound > 1 {
				multi += h.Counts[i]
			}
		}
		multi += h.Counts[len(h.Counts)-1]
		fmt.Fprintf(&b, "  routed calls          : %d, %d needed >1 backend hop\n", h.Count, multi)
	}
	if h := snap.Hist("vgbl_gateway_rescue_seconds"); h != nil {
		fmt.Fprintf(&b, "  rescue latency        : p50 %v  p95 %v  max bucket %v over %d rescues\n",
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.Quantile(1)).Round(time.Microsecond), h.Count)
		b.WriteString("  rescue latency histogram:\n")
		b.WriteString(renderLatencyHistogram(*h, "    "))
	}
	return b.String(), nil
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
