// Fleet: the networked classroom at scale. A deployment publishes the
// classroom course with the telemetry service mounted; fifty simulated
// learners fetch it (one real download, then ETag revalidations), play it
// concurrently, and report their sessions in batches. At the end we print
// the fleet's own summary and the live aggregate a lecturer would read
// from /telemetry/stats.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	// 1. Publish the classroom course on a deployment.
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		log.Fatal(err)
	}
	// The deployment mounts telemetry and /metrics beside the package
	// server; its registry also takes the learners' delta-sync histograms
	// (via Config.Obs below).
	d, err := deploy.New(deploy.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	if err := d.Publish("classroom", blob); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, d)
	url := "http://" + ln.Addr().String()
	fmt.Printf("== classroom course served at %s/manifest/classroom\n", url)

	// 2. Run the 50-learner fleet.
	sum, err := fleet.Run(fleet.Config{
		ServerURL:     url,
		Package:       "classroom",
		Learners:      50,
		Policy:        sim.GuidedFactory,
		Sim:           sim.Config{MaxSteps: 30, TicksPerStep: 2, Patience: 20, RewardBoost: 10, Seed: 42},
		FlushEvery:    16,
		FlushInterval: 50 * time.Millisecond,
		Obs:           d.Registry,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== fleet summary")
	fmt.Print(sum.String())

	// 3. The lecturer's view: the live course aggregate. Every acked batch
	// is already in it.
	cs := d.Telemetry.Store().Snapshot()["classroom"]
	fmt.Println("\n== live /telemetry/stats snapshot (course: classroom)")
	fmt.Printf("  sessions: %d started, %d ended, %d completed the mission\n",
		cs.SessionsStarted, cs.SessionsEnded, cs.Completed)
	fmt.Printf("  activity: %d events, %d decisions, %d knowledge deliveries, %d rewards\n",
		cs.Events, cs.Decisions, cs.Knowledge, cs.Rewards)
	fmt.Printf("  outcomes: %v\n", cs.Outcomes)
	var units []string
	for u := range cs.KnowledgeCounts {
		units = append(units, u)
	}
	sort.Strings(units)
	fmt.Println("  knowledge reach (unit → sessions):")
	for _, u := range units {
		fmt.Printf("    %-24s %d\n", u, cs.KnowledgeCounts[u])
	}
	bounds := telemetry.TickBuckets()
	fmt.Println("  session length histogram (ticks):")
	for i, n := range cs.TickHist {
		label := fmt.Sprintf("> %d", bounds[len(bounds)-1])
		if i < len(bounds) {
			label = fmt.Sprintf("<= %d", bounds[i])
		}
		fmt.Printf("    %-8s %d\n", label, n)
	}

	// 4. The operator's view: the same numbers, scraped from /metrics the
	// way a Prometheus deployment would read them (JSON form here).
	var snap obs.RegistrySnapshot
	if err := faultnet.GetJSON(nil, url+"/metrics?format=json", &snap); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== /metrics?format=json (server + fleet families)")
	fmt.Printf("  netstream: %d requests, %d bytes served, %d not-modified\n",
		snap.Value("vgbl_netstream_requests_total"), snap.Value("vgbl_netstream_bytes_total"),
		snap.Value("vgbl_netstream_not_modified_total"))
	fmt.Printf("  telemetry: %d batches applied, %d shed, %d refused\n",
		snap.Value("vgbl_telemetry_batches_applied_total"), snap.Value("vgbl_telemetry_batches_rejected_total"),
		snap.Value("vgbl_telemetry_apply_errors_total"))
	if h := snap.Hist("vgbl_netstream_delta_seconds"); h != nil {
		fmt.Printf("  delta-sync downloads: %d, p50 %v  p99 %v\n", h.Count,
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
	}
}
