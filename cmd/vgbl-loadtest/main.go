// Command vgbl-loadtest drives a learner fleet against a package server —
// the classroom-at-scale measurement. Pointed at a running vgbl-server it
// load-tests that deployment; with no -server it brings up an in-process
// server with the classroom course and exercises the full loop locally.
// With -interactive the learners do not simulate locally: each one creates
// a server-hosted session on the play service and plays the whole game
// over the wire (optionally fetching rendered frames with -watch-every).
// With -abr the learners adaptively stream a quality-ladder package
// instead, each on its own (optionally fault-injected) link, and the run
// prints segments and bytes per quality tier.
//
// Usage:
//
//	vgbl-loadtest -learners 500 -policy guided
//	vgbl-loadtest -server http://127.0.0.1:8807 -pkg classroom -learners 1000
//	vgbl-loadtest -interactive -learners 200 -watch-every 4
//	vgbl-loadtest -interactive -server http://pkg:8807 -play-server http://gateway:8808
//	vgbl-loadtest -abr -learners 50 -abr-profile cap-64k
//
// The run prints the fleet's throughput/latency summary and the server's
// final /telemetry/stats (plus, interactively, /play/stats) snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	server := flag.String("server", "", "package server base URL (empty: serve the classroom course in-process)")
	playServer := flag.String("play-server", "", "play service base URL when it differs from -server (a gateway on another host)")
	pkgName := flag.String("pkg", "classroom", "published package name")
	learners := flag.Int("learners", 500, "fleet size")
	concurrency := flag.Int("concurrency", 128, "max simultaneously playing learners")
	policy := flag.String("policy", "guided", "learner policy: guided, explorer, random")
	steps := flag.Int("steps", 30, "max interactions per session")
	flushEvery := flag.Int("flush", 32, "telemetry batch size")
	flushMS := flag.Int("flush-interval-ms", 250, "telemetry interval flush (0 disables)")
	interactive := flag.Bool("interactive", false, "play server-hosted sessions over the wire instead of simulating locally")
	playMirror := flag.Bool("play-mirror", false, "thick-client mode (with -interactive): a local replica answers reads and frames; acts ship as reconciled batches of 16 (default: thin clients, one framed round trip per act)")
	watchEvery := flag.Int("watch-every", 0, "fetch the rendered frame every N steps (0 disables; interactive frame traffic)")
	abr := flag.Bool("abr", false, "adaptive streaming mode: learners stream the package through the ABR picker instead of simulating play (in-process serving publishes a quality ladder)")
	abrProfile := flag.String("abr-profile", "clean", "ABR mode: faultnet link profile per learner (clean, wifi-flaky, mobile-3g, or cap-<N>k for an N KiB/s bandwidth cap)")
	abrSpeed := flag.Float64("abr-speed", 1, "ABR mode: playhead speed in media-seconds per wall-second")
	abrDecode := flag.Bool("abr-decode", false, "ABR mode: decode each segment's first frame to prove fetched tiers play")
	rooms := flag.Int("rooms", 0, "classroom mode: drive N shared rooms instead of a per-learner fleet")
	watchers := flag.Int("watchers", 200, "classroom mode: watchers per room")
	roomFPS := flag.Int("room-fps", 10, "classroom mode: driver pace in acts per second")
	roomTicks := flag.Int("room-ticks", 100, "classroom mode: driver acts per room")
	seed := flag.Int64("seed", 1, "base RNG seed")
	faultProfile := flag.String("fault", "", fmt.Sprintf("inject a named fault profile into the fleet's HTTP path (%s)", strings.Join(faultnet.ProfileNames(), ", ")))
	faultSeed := flag.Int64("fault-seed", 1, "fault injection RNG seed (deterministic per seed)")
	flag.Parse()

	factories := map[string]sim.Factory{
		"guided":   sim.GuidedFactory,
		"explorer": sim.ExplorerFactory,
		"random":   sim.RandomFactory,
	}
	f, ok := factories[*policy]
	if !ok {
		fail(fmt.Errorf("unknown policy %q", *policy))
	}

	url := *server
	if url == "" {
		var err error
		url, err = serveInProcess(*pkgName, *abr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("serving %s in-process at %s\n", *pkgName, url)
	}

	if *abr {
		// Adaptive streaming mode: every learner rides its own link and its
		// own cache, picking a quality rung per segment. Prints the per-tier
		// segment/byte table; the server side of the same ledger is the
		// netstream_tier_bytes_total family on /metrics.
		fmt.Printf("streaming %d learners (%s link, ×%.2g speed) against %s/manifest/%s ...\n",
			*learners, *abrProfile, *abrSpeed, url, *pkgName)
		sum, err := fleet.RunStreamers(fleet.StreamConfig{
			ServerURL:    url,
			Package:      *pkgName,
			Learners:     *learners,
			Concurrency:  *concurrency,
			Profile:      *abrProfile,
			Seed:         *seed,
			Speed:        *abrSpeed,
			DecodeFrames: *abrDecode,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println()
		fmt.Print(sum.String())
		return
	}

	if *rooms > 0 {
		// Classroom mode: R shared rooms, W watchers each, every watcher a
		// replica of its room's driver. Prints the fan-out summary plus the
		// server's /play/stats (rooms, deliveries, answers).
		playURL := *playServer
		if playURL == "" {
			playURL = url
		}
		fmt.Printf("driving %d rooms × %d watchers (%s policy, %d fps) against %s ...\n",
			*rooms, *watchers, *policy, *roomFPS, playURL)
		sum, err := fleet.RunClassroom(fleet.ClassroomConfig{
			ServerURL: url,
			PlayURL:   *playServer,
			Package:   *pkgName,
			Rooms:     *rooms,
			Watchers:  *watchers,
			FPS:       *roomFPS,
			Ticks:     *roomTicks,
			Policy:    f,
			Seed:      *seed,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println()
		fmt.Print(sum.String())
		printStats(playURL, playsvc.StatsPath)
		if sum.WatchersFailed > 0 || sum.DriversFailed > 0 || sum.Diverged > 0 {
			os.Exit(1)
		}
		return
	}

	mode := "local-sim"
	if *interactive {
		mode = "remote-play"
	}
	// With -fault, every fleet request crosses a deterministic fault
	// injector: same profile + seed, same misbehavior, run after run.
	var faultHTTP *http.Client
	if *faultProfile != "" {
		profile, ok := faultnet.Lookup(*faultProfile)
		if !ok {
			fail(fmt.Errorf("unknown fault profile %q (have: %s)", *faultProfile, strings.Join(faultnet.ProfileNames(), ", ")))
		}
		base := &http.Client{Transport: faultnet.NewHTTPTransport(*concurrency)}
		faultHTTP = faultnet.WrapClient(base, profile, *faultSeed)
		fmt.Printf("injecting fault profile %q (seed %d) into the fleet's HTTP path\n", profile.Name, *faultSeed)
	}
	fmt.Printf("driving %d learners (%s policy, %s) against %s/manifest/%s ...\n", *learners, *policy, mode, url, *pkgName)
	sum, err := fleet.Run(fleet.Config{
		ServerURL:     url,
		PlayURL:       *playServer,
		Package:       *pkgName,
		Learners:      *learners,
		Concurrency:   *concurrency,
		Interactive:   *interactive,
		PlayMirror:    *playMirror,
		Policy:        f,
		Sim:           sim.Config{MaxSteps: *steps, TicksPerStep: 2, Patience: 20, RewardBoost: 10, Seed: *seed, WatchEvery: *watchEvery},
		FlushEvery:    *flushEvery,
		FlushInterval: time.Duration(*flushMS) * time.Millisecond,
		HTTP:          faultHTTP,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println()
	fmt.Print(sum.String())

	// Every acked batch is already applied: show what the lecturer would see.
	printStats(url, telemetry.StatsPath)
	if *interactive {
		playURL := *playServer
		if playURL == "" {
			playURL = url
		}
		printStats(playURL, playsvc.StatsPath)
		// The per-node act-latency percentiles come from the histograms each
		// play node serves at /metrics — against a cluster gateway this is
		// one row per backend, against a single manager one row.
		fmt.Printf("\nper-node act latency (scraped from /metrics):\n")
		fmt.Print(fleet.FormatLatencyTable(fleet.ScrapeActLatencies(nil, playURL)))
	}
	if sum.Failed > 0 {
		os.Exit(1)
	}
}

// printStats fetches and prints one JSON stats endpoint.
func printStats(url, path string) {
	var body json.RawMessage
	if err := faultnet.GetJSON(nil, url+path, &body); err != nil {
		fail(err)
	}
	fmt.Printf("\n%s:\n%s\n", path, body)
}

// serveInProcess builds the named bundled course and publishes it on a
// deployment (vgbl-server's routes and /metrics), returning its base URL.
// With ladder set the course is published as a multi-tier quality ladder
// (what the -abr streaming fleet picks from).
func serveInProcess(name string, ladder bool) (string, error) {
	courses := map[string]*content.Course{
		"classroom": content.Classroom(),
		"museum":    content.Museum(),
		"street":    content.StreetDemo(),
	}
	course, ok := courses[name]
	if !ok {
		return "", fmt.Errorf("no bundled course %q (have classroom, museum, street)", name)
	}
	var blob []byte
	var err error
	if ladder {
		blob, err = course.BuildLadderPackage(studio.Options{}, nil)
	} else {
		blob, err = course.BuildPackage(studio.Options{QStep: 10})
	}
	if err != nil {
		return "", err
	}
	d, err := deploy.New(deploy.Config{})
	if err != nil {
		return "", err
	}
	if err := d.Publish(name, blob); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go http.Serve(ln, d)
	return "http://" + ln.Addr().String(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vgbl-loadtest:", err)
	os.Exit(1)
}
