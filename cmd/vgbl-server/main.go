// Command vgbl-server publishes game packages over HTTP (paper §2: students
// "easily access these resources via network"). It serves the bundled demo
// courses plus any .tkg files given on the command line, with range support
// so the progressive client can start playing before the download finishes,
// mounts the telemetry ingest service so playing clients (and the
// vgbl-loadtest fleet) can report their sessions to /telemetry/ingest and
// lecturers can read live aggregates from /telemetry/stats, and mounts the
// play service so clients can play server-hosted sessions through
// /play/actv2 (framed create or resume, acts and leave; /play/act is its
// curl-able JSON adapter) and /play/frame (live counters at /play/stats).
// A classroom room is a session whose create carries a room record
// ({"session":…,"course":…,"room":true} on /play/act); watchers join,
// watch, answer and leave on /room/*, naming the room in the query.
//
// All course bytes live in one content-addressed chunk store shared by the
// package server and the play service (segments shared across courses are
// stored once; -store-dir persists chunks on disk, -cache-bytes budgets
// the hot-chunk LRU tier). Delta-syncing clients use /manifest/<name> and
// /chunk/<hash> to transfer only chunks whose hashes changed.
//
// Hosted play sessions are durable: the TTL janitor snapshots-then-evicts
// into the snapshot directory, -checkpoint-every bounds what a crash can lose,
// and a resume (a frame's resume record, or {"session":…,"resume":true} on
// /play/act) reattaches a client to a frozen session. With -cluster N the
// play service runs as N nodes behind a consistent-hash gateway; session
// handoff between nodes rides the same snapshots.
//
// Every subsystem reports into one metrics registry served at /metrics
// (Prometheus text; ?format=json for the structured snapshot), request
// traces are inspectable at /debug/traces?trace=<id>, and -pprof mounts
// the standard profiler at /debug/pprof/. In cluster mode each play node
// additionally serves its own /metrics, /debug/traces and /healthz.
//
// With -ladder the demo courses are published as multi-tier quality
// ladders: one package, one manifest tree, one rung per quality tier, so
// adaptive (ABR) streaming clients pick a rung per segment while plain
// clients keep receiving the canonical full-quality video. Bytes served
// per tier are counted on the netstream_tier_bytes_total metrics family.
//
// Usage:
//
//	vgbl-server -addr 127.0.0.1:8807 extra1.tkg extra2.tkg
//	vgbl-server -cluster 3 -checkpoint-every 10s
//	vgbl-server -ladder
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux; mounted only with -pprof
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/playsvc"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8807", "listen address")
	storeDir := flag.String("store-dir", "", "on-disk chunk store directory (empty = in-memory)")
	cacheBytes := flag.Int64("cache-bytes", blobstore.DefaultCacheBytes, "hot-chunk LRU cache budget in bytes (negative disables)")
	ingestIdle := flag.Duration("ingest-idle-timeout", 30*time.Minute, "fold telemetry sessions idle this long (negative disables)")
	playTTL := flag.Duration("play-ttl", 10*time.Minute, "snapshot-and-evict hosted play sessions idle this long (negative disables)")
	playMax := flag.Int("play-max-sessions", 16384, "cap on live hosted play sessions (negative disables)")
	playInflight := flag.Int("play-max-inflight", 0, "shed play requests (429 + Retry-After) beyond this many in flight per node (0 disables)")
	checkpointEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodically snapshot active play sessions so a crash loses at most this much progress (0 disables)")
	cluster := flag.Int("cluster", 0, "run N play-service nodes behind a consistent-hash gateway instead of one in-process manager")
	ladder := flag.Bool("ladder", false, "publish the demo courses as multi-tier quality ladders (adds video@<tier> rungs so ABR clients can pick a rung per segment; bytes served per tier land on netstream_tier_bytes_total)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/")
	flag.Parse()

	// One content-addressed chunk store behind both the package server and
	// the play service: segments shared across courses are stored once, hot
	// chunks ride the LRU tier, and -store-dir persists the catalog.
	var backend blobstore.Backend = blobstore.NewMemory()
	if *storeDir != "" {
		disk, err := blobstore.NewDisk(*storeDir)
		if err != nil {
			fail(err)
		}
		backend = disk
	}
	store, err := blobstore.New(blobstore.Options{Backend: backend, CacheBytes: *cacheBytes})
	if err != nil {
		fail(err)
	}

	srv := netstream.NewServerWith(store)
	// One process-wide metric namespace: every subsystem registers its
	// families here and /metrics scrapes them all. In cluster mode each
	// play node additionally serves its own /metrics on its node URL.
	reg := obs.NewRegistry("vgbl")
	store.Register(reg)
	srv.Register(reg)
	// Hosted sessions are durable: one snapshot directory backs TTL
	// snapshot-then-evict, crash checkpoints and — in cluster mode — handoff
	// between nodes. The play service only reads the chunk store above (to
	// open courses).
	dir := playsvc.NewMemDir()
	nodeOpts := playsvc.Options{
		TTL:             *playTTL,
		MaxSessions:     *playMax,
		MaxInflight:     *playInflight,
		Store:           store,
		Dir:             dir,
		CheckpointEvery: *checkpointEvery,
	}
	// The play surface is either one in-process manager or a gateway over
	// N nodes; both publish courses the same way and mount at /play/.
	var playHandler http.Handler
	var traceHandler http.Handler
	var addCourse func(name string, blob []byte) error
	var addManifest func(name string, man *gamepack.Manifest) error
	var nodeURLs []string
	if *cluster > 0 {
		cl, err := playsvc.NewCluster(playsvc.ClusterOptions{Store: store, Dir: dir, Node: nodeOpts})
		if err != nil {
			fail(err)
		}
		defer cl.Close()
		for i := 0; i < *cluster; i++ {
			n, err := cl.StartNode()
			if err != nil {
				fail(err)
			}
			nodeURLs = append(nodeURLs, n.URL)
		}
		cl.Gateway().Register(reg)
		playHandler = cl.Gateway().Handler()
		traceHandler = cl.Gateway().Ring().Handler()
		addCourse = cl.AddCourse
		addManifest = cl.AddManifest
	} else {
		play := playsvc.NewManager(nodeOpts)
		defer play.Close()
		play.Register(reg)
		playHandler = play.Handler()
		traceHandler = play.Ring().Handler()
		addCourse = play.AddCourse
		addManifest = play.AddCourseFromManifest
	}
	publish := func(name string, blob []byte) {
		if err := srv.AddPackage(name, blob); err != nil {
			fail(err)
		}
		if err := addCourse(name, blob); err != nil {
			fail(err)
		}
	}
	// A slice, not a map: publish order, log order and chunk-store
	// insertion order are the same on every start.
	for _, demo := range []struct {
		name   string
		course *content.Course
	}{
		{"classroom", content.Classroom()},
		{"museum", content.Museum()},
		{"street", content.StreetDemo()},
	} {
		// Demo courses go through the store: chunks deposited once, then
		// both services open them by manifest. With -ladder each course is
		// recorded at every rung of the default quality ladder (each rung's
		// own quantizer; a QStep option would be ignored); the play service
		// keeps consuming the canonical rung.
		var man *gamepack.Manifest
		var err error
		if *ladder {
			man, err = demo.course.PublishLadderTo(store, studio.Options{}, nil)
		} else {
			man, err = demo.course.PublishTo(store, studio.Options{QStep: 8})
		}
		if err != nil {
			fail(err)
		}
		if err := srv.AddManifest(demo.name, man); err != nil {
			fail(err)
		}
		if err := addManifest(demo.name, man); err != nil {
			fail(err)
		}
	}
	srv.AddResource("umbrella", "UMBRELLAS: PORTABLE RAIN PROTECTION SINCE 1000 BC")
	srv.AddResource("ram", "RAM MODULES MUST MATCH THE BOARD'S SOCKET TYPE")

	for _, path := range flag.Args() {
		blob, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		publish(strings.TrimSuffix(filepath.Base(path), ".tkg"), blob)
	}

	svc := telemetry.NewService(telemetry.Options{IdleTimeout: *ingestIdle})
	defer svc.Close()
	svc.Register(reg)
	h := svc.Handler()
	if err := srv.Mount("/telemetry/", h); err != nil {
		fail(err)
	}
	if err := srv.Mount(telemetry.HealthPath, h); err != nil {
		fail(err)
	}
	if err := srv.Mount("/play/", playHandler); err != nil {
		fail(err)
	}
	// Shared classroom sessions live on the same play surface (same mux,
	// same gateway routing) but under their own path root.
	if err := srv.Mount("/room/", playHandler); err != nil {
		fail(err)
	}
	if err := srv.Mount("/metrics", reg.Handler()); err != nil {
		fail(err)
	}
	if err := srv.Mount("/debug/traces", traceHandler); err != nil {
		fail(err)
	}
	if *pprofOn {
		// net/http/pprof registered itself on the default mux at import.
		if err := srv.Mount("/debug/pprof/", http.DefaultServeMux); err != nil {
			fail(err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	ss := srv.StoreStats()
	fmt.Printf("vgbl-server listening on http://%s\n", ln.Addr())
	fmt.Printf("  chunk store: %d chunks, %d bytes (%d dedup hits)\n", ss.Chunks, ss.StoredBytes, ss.DedupHits)
	fmt.Println("  packages:")
	for _, n := range srv.Names() {
		fmt.Printf("    http://%s/pkg/%s\n", ln.Addr(), n)
	}
	fmt.Printf("  listing:  http://%s/list\n", ln.Addr())
	fmt.Printf("  telemetry: http://%s%s (POST %s), http://%s%s\n", ln.Addr(), telemetry.IngestPath, telemetry.BatchContentType, ln.Addr(), telemetry.StatsPath)
	fmt.Printf("  play:     http://%s%s (POST), %s, %s, %s\n", ln.Addr(), playsvc.ActV2Path, playsvc.ActPath, playsvc.FramePath, playsvc.StatsPath)
	fmt.Printf("  rooms:    http://%s%s?room= (POST), %s, %s; a room opens with a create's room record\n", ln.Addr(), playsvc.RoomJoinPath, playsvc.RoomWatchPath, playsvc.RoomStatsPath)
	if *cluster > 0 {
		fmt.Printf("  cluster:  %d play nodes behind the /play/ gateway (checkpoint every %v)\n", *cluster, *checkpointEvery)
		for _, u := range nodeURLs {
			fmt.Printf("            %s/metrics\n", u)
		}
	}
	fmt.Printf("  metrics:  http://%s/metrics (?format=json), traces at /debug/traces\n", ln.Addr())
	if *pprofOn {
		fmt.Printf("  pprof:    http://%s/debug/pprof/\n", ln.Addr())
	}
	fmt.Printf("  health:   http://%s%s\n", ln.Addr(), telemetry.HealthPath)
	if err := http.Serve(ln, srv); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vgbl-server:", err)
	os.Exit(1)
}
