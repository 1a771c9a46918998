// Command vgbl-server publishes game packages over HTTP (paper §2: students
// "easily access these resources via network"). It serves the bundled demo
// courses plus any .tkg files given on the command line, each published
// once as its package to both the package server and the play service,
// mounts the telemetry ingest service so playing clients (and the
// vgbl-loadtest fleet) can report their sessions to /telemetry/ingest and
// lecturers can read live aggregates from /telemetry/stats, and mounts the
// play service so clients can play server-hosted sessions through
// /play/actv2 (framed create or resume, acts and leave; /play/act is its
// curl-able JSON adapter), the only way a session changes, and read their
// frames with a GET of /play/frame, which changes nothing (a tick is an
// act; a GET naming advance is refused); live counters are at
// /play/stats. A classroom room is a session whose create carries a room
// record ({"session":…,"course":…,"room":true} on /play/act); watchers
// watch, answer and read stats on /room/*, naming the room in the query.
// There is no join or leave: a watcher is a replica that holds the
// package, and a watch is a GET long poll that names how many of the
// driver's acts it holds (seq, 0 for none) and is answered with an act
// frame of the acts past it (at seq 0 behind the create), which the
// watcher replays and renders itself; the first is the catch-up. The
// server renders nothing for a room and keeps nothing per watcher, so a
// watcher that stops polling costs nothing.
//
// The package server keeps every package's bytes in one content-addressed
// chunk store (segments shared across courses are stored once; -store-dir
// persists chunks on disk, -cache-bytes budgets the hot-chunk LRU tier);
// the play service opens each package and interns its video. Delta-syncing
// and progressive clients use /manifest/<name> and /chunk/<hash> to
// transfer only the chunks they lack.
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
// The deployment itself — one route mux, metrics wiring and the publish
// rule — is internal/deploy's, the same one every in-process stack builds;
// this command adds the flags, the demo courses, -pprof and the banner.
// A publish holds only the package server's routes, so play goes on
// while a course is re-published.
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
	"sort"
	"strings"
	"time"

	"repro/internal/blobstore"
	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/media/studio"
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
	checkpointEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodically snapshot active play sessions so a crash loses at most this much progress (0 disables)")
	cluster := flag.Int("cluster", 0, "run N play-service nodes behind a consistent-hash gateway instead of one in-process manager")
	ladder := flag.Bool("ladder", false, "publish the demo courses as multi-tier quality ladders (adds video@<tier> rungs so ABR clients can pick a rung per segment; bytes served per tier land on netstream_tier_bytes_total)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/")
	flag.Parse()

	// The package server's content-addressed chunk store: segments shared
	// across courses are stored once, hot chunks ride the LRU tier, and
	// -store-dir persists the catalog (nil Backend: in memory).
	var backend blobstore.Backend
	if *storeDir != "" {
		disk, err := blobstore.NewDisk(*storeDir)
		if err != nil {
			fail(err)
		}
		backend = disk
	}
	// Hosted sessions are durable: each manager's snapshot directory backs
	// TTL snapshot-then-evict and crash checkpoints, and in cluster mode
	// the nodes share the cluster's one directory for handoff.
	d, err := deploy.New(deploy.Config{
		Store:     blobstore.Options{Backend: backend, CacheBytes: *cacheBytes},
		Telemetry: telemetry.Options{IdleTimeout: *ingestIdle},
		Play: playsvc.ClusterOptions{Node: playsvc.Options{
			TTL:             *playTTL,
			MaxSessions:     *playMax,
			CheckpointEvery: *checkpointEvery,
		}},
		Nodes: *cluster,
	})
	if err != nil {
		fail(err)
	}
	defer d.Close()
	publish := func(name string, blob []byte) {
		if err := d.Publish(name, blob); err != nil {
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
		// With -ladder each course is recorded at every rung of the default
		// quality ladder (each rung's own quantizer; a QStep option would be
		// ignored); the play service keeps consuming the canonical rung.
		var blob []byte
		var err error
		if *ladder {
			blob, err = demo.course.BuildLadderPackage(studio.Options{}, nil)
		} else {
			blob, err = demo.course.BuildPackage(studio.Options{QStep: 8})
		}
		if err != nil {
			fail(err)
		}
		publish(demo.name, blob)
	}
	d.AddResource("umbrella", "UMBRELLAS: PORTABLE RAIN PROTECTION SINCE 1000 BC")
	d.AddResource("ram", "RAM MODULES MUST MATCH THE BOARD'S SOCKET TYPE")

	for _, path := range flag.Args() {
		blob, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		publish(strings.TrimSuffix(filepath.Base(path), ".tkg"), blob)
	}

	var h http.Handler = d
	if *pprofOn {
		// net/http/pprof registered itself on the default mux at import.
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
				http.DefaultServeMux.ServeHTTP(w, r)
				return
			}
			d.ServeHTTP(w, r)
		})
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	ss := d.Store.Stats()
	fmt.Printf("vgbl-server listening on http://%s\n", ln.Addr())
	fmt.Printf("  chunk store: %d chunks, %d bytes (%d dedup hits)\n", ss.Chunks, ss.StoredBytes, ss.DedupHits)
	fmt.Println("  packages (manifest; chunks at /chunk/<sha256>):")
	for _, n := range d.Names() {
		fmt.Printf("    http://%s/manifest/%s\n", ln.Addr(), n)
	}
	fmt.Printf("  listing:  http://%s/list\n", ln.Addr())
	fmt.Printf("  telemetry: http://%s%s (POST %s), http://%s%s\n", ln.Addr(), telemetry.IngestPath, telemetry.BatchContentType, ln.Addr(), telemetry.StatsPath)
	fmt.Printf("  play:     http://%s%s (POST), %s, %s (GET ?session=, a read), %s\n", ln.Addr(), playsvc.ActV2Path, playsvc.ActPath, playsvc.FramePath, playsvc.StatsPath)
	fmt.Printf("  rooms:    http://%s%s?room=&seq=&wait_ms= (GET: an act frame of the driver's acts past seq; seq=0 is the catch-up), %s (POST), %s; a room opens with a create's room record\n", ln.Addr(), playsvc.RoomWatchPath, playsvc.RoomAnswerPath, playsvc.RoomStatsPath)
	if *cluster > 0 {
		fmt.Printf("  cluster:  %d play nodes behind the /play/ gateway (checkpoint every %v)\n", *cluster, *checkpointEvery)
		names := d.Cluster.NodeNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("            %s/metrics\n", d.Cluster.Node(n).URL)
		}
	}
	fmt.Printf("  metrics:  http://%s/metrics (?format=json), traces at /debug/traces\n", ln.Addr())
	if *pprofOn {
		fmt.Printf("  pprof:    http://%s/debug/pprof/\n", ln.Addr())
	}
	fmt.Printf("  health:   http://%s%s\n", ln.Addr(), telemetry.HealthPath)
	if err := http.Serve(ln, h); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vgbl-server:", err)
	os.Exit(1)
}
