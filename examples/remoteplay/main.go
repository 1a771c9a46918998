// Remoteplay: the thin-client deployment. A server publishes the classroom
// course with the play service mounted; the learner's machine holds only
// the course document — the game session itself (state, scripts, video
// decoding) lives on the server. A guided learner plays the whole mission
// over HTTP, act by act, fetching rendered frames like a dumb terminal,
// and the same sim policy that drives local sessions drives this one
// unchanged.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/faultnet"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

func main() {
	// 1. Server side: publish the course and mount the play service.
	course := content.Classroom()
	blob, err := course.BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		log.Fatal(err)
	}
	srv := netstream.NewServer()
	if err := srv.AddPackage("classroom", blob); err != nil {
		log.Fatal(err)
	}
	play := playsvc.NewManager(playsvc.Options{})
	defer play.Close()
	if err := play.AddCourse("classroom", blob); err != nil {
		log.Fatal(err)
	}
	if err := srv.Mount("/play/", play.Handler()); err != nil {
		log.Fatal(err)
	}
	// The operator surface: every subsystem registers its metric families
	// and the scrape endpoint serves them all.
	reg := obs.NewRegistry("vgbl")
	srv.Register(reg)
	play.Register(reg)
	if err := srv.Mount("/metrics", reg.Handler()); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	url := "http://" + ln.Addr().String()
	fmt.Printf("== play service at %s%s\n", url, playsvc.CreatePath)

	// 2. Client side: dial a hosted session and let the guided policy play
	// it over the wire. Every server-emitted event lands in the collector.
	col := &analytics.Collector{}
	client, err := playsvc.Dial(playsvc.ClientOptions{
		BaseURL:  url,
		Course:   "classroom",
		Project:  course.Project,
		Observer: col,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== hosted session %s\n\n", client.SessionID())

	res, err := sim.RunGame(client, sim.GuidedFactory,
		sim.Config{MaxSteps: 40, Patience: 15, Seed: 1, WatchEvery: 2}, col)
	if err != nil {
		log.Fatal(err)
	}

	// 3. What the learner saw: the final composited frame, fetched as raw
	// RGB from /play/frame and rendered as ASCII.
	frame, err := client.Frame()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== final frame (server-rendered, fetched over the wire)")
	fmt.Println(frame.ASCII(64, 20))

	fmt.Println("== transcript tail")
	msgs := client.Messages()
	for i := max(0, len(msgs)-6); i < len(msgs); i++ {
		fmt.Println("  " + msgs[i])
	}

	fmt.Printf("\n== result: %d steps, completed=%v (%s)\n", res.Steps, res.Completed, res.QuitReason)
	fmt.Printf("   report: %d events, knowledge %v, rewards %v\n",
		res.Report.TotalEvents, res.Report.Knowledge, res.Report.Rewards)

	if err := client.Close(); err != nil {
		log.Fatal(err)
	}

	// 4. The operator's view: scrape the same /metrics endpoint a
	// Prometheus deployment would (here in its JSON form) and read the act
	// latency distribution out of the play-service family.
	snap := scrapeMetrics(url)
	fmt.Println("\n== /metrics?format=json (play-service family)")
	fmt.Printf("   sessions: %d created, %d live after leave\n",
		snap.Value("vgbl_playsvc_sessions_created_total"), snap.Value("vgbl_playsvc_sessions_live"))
	fmt.Printf("   served:   %d acts, %d frames\n",
		snap.Value("vgbl_playsvc_acts_total"), snap.Value("vgbl_playsvc_frames_total"))
	if h := snap.Hist("vgbl_playsvc_act_seconds"); h != nil {
		fmt.Printf("   act latency: p50 %v  p95 %v  p99 %v over %d acts\n",
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond), h.Count)
	}
}

// scrapeMetrics fetches the registry snapshot the metrics endpoint serves
// with ?format=json.
func scrapeMetrics(base string) *obs.RegistrySnapshot {
	var snap obs.RegistrySnapshot
	if err := faultnet.GetJSON(nil, base+"/metrics?format=json", &snap); err != nil {
		log.Fatal(err)
	}
	return &snap
}
