package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// segKey names one decoded segment: which course, which rung it landed
// at, which chapter.
type segKey struct {
	course  int
	tier    string
	chapter string
}

// streamCounts are the exact per-phase counts the netstream layer
// ratios use, read off the timing transport around each stage.
type streamCounts struct {
	opens, courses                     int64
	openRequests, openBytes            int64
	courseRequests, courseBytes        int64
	resyncRequests, resyncNotModified  int64
	resyncChunkHits, resyncChunkMisses int64 // client chunk cache, both DownloadDeltas
}

// streamRun is one stream run against one server.
type streamRun struct {
	cfg *config
	sv  *served

	mu       sync.Mutex
	n        streamCounts
	sums     map[segKey]uint32 // first checksum seen per segment
	unstable []string          // segments whose checksum changed between iterations
}

// wire is the worker's transport totals, for before/after deltas round a
// stage. Helper goroutines netstream starts have all returned by then.
func (w *worker) wire() (requests, bytes, notModified int64) {
	w.rt.mu.Lock()
	defer w.rt.mu.Unlock()
	for i := range w.rt.routes {
		requests += w.rt.routes[i].requests
		bytes += w.rt.routes[i].respBytes
		notModified += w.rt.routes[i].notModified
	}
	return
}

// startTier stands in, in a segKey, for "whatever rung the open chose";
// the check resolves it against the local reference ladder.
const startTier = "\x00start"

// watch is one iteration: a new learner with an empty cache opens the
// course, watches every chapter at a rotating rung, then syncs the whole
// package twice.
func (sr *streamRun) watch(w *worker, i int64) error {
	c := int(i % int64(len(courseNames)))
	url := sr.sv.pkgURL(c)
	cache := newPackageCache()
	root := w.tr.begin("stream.course")
	defer w.tr.end(root)

	began := now()
	req0, bytes0, _ := w.wire()
	watch := w.tr.begin("stream.watch") // open → last frame: what course_p50_ms times
	sp := w.tr.begin("netstream.open")
	g, err := openABR(w.hc, url, cache)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	opened := since(began)
	req1, bytes1, _ := w.wire()
	first, err := startChapter(g)
	if err != nil {
		return err
	}
	chs := chapters(g)
	for _, ch := range chs {
		if ch.name == first {
			sp := w.tr.begin("playback.frame_at")
			_, err := streamedPix(g, ch.start)
			w.tr.end(sp)
			if err != nil {
				return fmt.Errorf("first frame: %w", err)
			}
		}
	}
	startup := since(began)

	ts := tiers(g)
	sums := make(map[segKey]uint32, len(chs))
	decoded, want := 0, 0
	for ci, ch := range chs {
		// The rung is fixed by rotation, not by the throughput-driven
		// picker, so the bytes fetched repeat run to run.
		tier := ts[(ci+int(i%int64(len(ts))))%len(ts)]
		landed := tier
		if hasSegment(g, ch.name) {
			landed = startTier // the open fetched it; the call below fetches nothing
		}
		t0 := now()
		sp := w.tr.begin("netstream.segment")
		err := fetchSegment(g, ch.name, tier)
		w.tr.end(sp)
		if err != nil {
			return fmt.Errorf("segment %s: %w", ch.name, err)
		}
		if landed != startTier {
			w.add(sSegFetch, since(t0))
		}
		var sum uint32
		for f := ch.start; f < ch.end; f++ {
			t0 := now()
			sp := w.tr.begin("playback.frame_at")
			pix, err := streamedPix(g, f)
			w.tr.end(sp)
			if err != nil {
				return fmt.Errorf("frame %d: %w", f, err)
			}
			w.add(sFrame, since(t0))
			sum = crc32.Update(sum, crc32.IEEETable, pix)
			decoded++
		}
		want += ch.end - ch.start
		sums[segKey{c, landed, ch.name}] = sum
	}
	w.tr.end(watch)
	watched := since(began)
	req2, bytes2, _ := w.wire()
	if decoded != want {
		return fmt.Errorf("decoded %d frames, chapters hold %d", decoded, want)
	}

	// The cache now holds one rung per chapter. The first sync fetches
	// the missing rungs and materialises the package; the second is a
	// pure revalidation.
	t0 := now()
	sp = w.tr.begin("netstream.delta_fill")
	blob, fill, err := downloadDelta(w.hc, url, cache)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("delta fill: %w", err)
	}
	filled := since(t0)
	if !bytes.Equal(blob, sr.sv.blobs[c]) {
		return fmt.Errorf("delta-synced %s differs from the prefetched package", courseNames[c])
	}
	req3, _, nm3 := w.wire()
	t0 = now()
	sp = w.tr.begin("netstream.resync")
	_, warm, err := downloadDelta(w.hc, url, cache)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("resync: %w", err)
	}
	resynced := since(t0)
	req4, _, nm4 := w.wire()
	session := since(began)

	w.add(sOpen, opened)
	w.add(sStartup, startup)
	w.add(sCourse, watched)
	w.add(sDeltaFill, filled)
	w.add(sResync, resynced)
	w.add(sSession, session)

	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := &sr.n
	n.opens++
	n.courses++
	n.openRequests += req1 - req0
	n.openBytes += bytes1 - bytes0
	n.courseRequests += req2 - req0
	n.courseBytes += bytes2 - bytes0
	n.resyncRequests += req4 - req3
	n.resyncNotModified += nm4 - nm3
	n.resyncChunkHits += int64(fill.ChunkHits + warm.ChunkHits)
	n.resyncChunkMisses += int64(fill.ChunksFetched + warm.ChunksFetched)
	for k, sum := range sums {
		if prev, seen := sr.sums[k]; !seen {
			sr.sums[k] = sum
		} else if prev != sum {
			sr.unstable = append(sr.unstable, fmt.Sprintf("%s/%s/%s", courseNames[k.course], k.tier, k.chapter))
		}
	}
	return nil
}

func runStream(cfg *config, traced bool) (*result, error) {
	r := &result{Workload: "stream", Seed: cfg.seed, Traced: traced, Metrics: metrics{}}
	sv, err := setupServed(cfg, "-ladder")
	if err != nil {
		return nil, err
	}
	defer sv.close()
	defer func() { r.stderr = sv.srv.stderr.String() }()
	sr := &streamRun{cfg: cfg, sv: sv, sums: map[segKey]uint32{}}
	ref, win, err := runWindows(cfg, r, cfg.clients, sv.pool, cfg.warm, traced, edges{srv: sv.srv}, sr.watch,
		func() { sr.n = streamCounts{} })
	if err != nil {
		return nil, err
	}

	local, err := publishSplit(demoCourses())
	if err != nil {
		return nil, err
	}
	sr.checks(r, win, local)

	e2e := metrics{}
	ws := win.workers
	e2e.set("setup_s", sv.setup.Seconds(), "s")
	e2e.set("sessions_per_s", win.opsPerSecond(), "1/s")
	e2e.set("act_p50_us", us(win.p50(sDeltaFill)), "us")
	e2e.set("act_p90_us", us(win.p90(sDeltaFill)), "us")
	e2e.set("frame_p50_us", us(win.p50(sFrame)), "us")
	e2e.set("session_p50_ms", ms(win.p50(sSession)), "ms")
	e2e.set("startup_p50_ms", ms(win.p50(sStartup)), "ms")
	e2e.set("course_p50_ms", ms(win.p50(sCourse)), "ms")
	e2e.set("resync_p50_us", us(win.p50(sResync)), "us")
	e2e.set("publish_p50_ms", ms(sv.publish), "ms")
	servedCosts(e2e, r, sv, win)
	r.note("window %s: %d course watches, %d segment fetches, %d frames", win.span(), win.ops(), len(merged(ws, sSegFetch)), len(merged(ws, sFrame)))
	if !traced {
		r.Metrics = e2e
		return r, nil
	}

	spans, err := writeSpans(spanPath(cfg, "stream"), ws)
	if err != nil {
		return nil, err
	}
	r.note("%d spans written to %s", spans, spanPath(cfg, "stream"))
	m := r.Metrics
	sr.layers(m, r, win)
	refCourse := ref.p50(sCourse)
	m.set("harness.trace_overhead_ratio", ratio(float64(win.p50(sCourse)), float64(refCourse)), "ratio")
	r.note("trace overhead: course p50 %.2f ms untraced (%d watches) vs %.2f ms traced", ms(refCourse), ref.ops(), e2e["course_p50_ms"].Value)
	if err := layerProbes(m, r, local, local.steps, cfg.seed); err != nil {
		return nil, err
	}

	// Ledger: a course watch is its open, its segment fetches and its
	// frame decodes; what is left is the watch loop itself (checksums).
	// Parts are medians of per-watch sums, so they add up only roughly.
	total := e2e["course_p50_ms"].Value
	parts := childSums(ws, "stream.watch")
	open, fetch, decode := ms(quantile(parts["netstream.open"], 0.5)), ms(quantile(parts["netstream.segment"], 0.5)), ms(quantile(parts["playback.frame_at"], 0.5))
	rest := total - open - fetch - decode
	r.note("ledger stream: course_p50_ms %.2f = netstream.open %.2f + Σ segment_fetch %.2f + frames × frame_at %.2f + unexplained %.2f (%.0f%%); bare sequential decode is vcodec.decode_us_per_frame %.0f us against playback.frame_at_us %.0f us",
		total, open, fetch, decode, rest, 100*ratio(rest, total), m["vcodec.decode_us_per_frame"].Value, m["playback.frame_at_us"].Value)
	r.Ledger = &ledger{Total: total, Remainder: rest}
	return r, nil
}

// checks are the stream workload's correctness checks.
func (sr *streamRun) checks(r *result, win *phase, local *reference) {
	for _, s := range sr.unstable {
		r.fail("segment %s decoded to different pixels on different iterations", s)
	}
	// Decoded pixels equal the reference decoded from the locally built
	// ladder, per (course, rung, segment); and the local build is the
	// package the server delivered.
	for c := range courseNames {
		r.check(bytes.Equal(local.blobs[c], sr.sv.blobs[c]), "%s: locally built ladder package differs from the server's", courseNames[c])
	}
	var want [len(courseNames)]map[string]map[string]uint32
	for c := range courseNames {
		sums, err := local.frameSums(c)
		if err != nil {
			r.fail("reference decode of %s: %v", courseNames[c], err)
			return
		}
		want[c] = sums
	}
	for k, got := range sr.sums {
		tier := k.tier
		if tier == startTier {
			tier = smallestTier(local.videos[k.course])
		}
		if ref, ok := want[k.course][tier][k.chapter]; !ok || ref != got {
			r.fail("%s chapter %s at tier %q: streamed frames checksum %08x, reference %08x", courseNames[k.course], k.chapter, tier, got, ref)
		}
	}
	r.note("%d (course, rung, segment) checksums equal the local reference", len(sr.sums))

	// Per-tier bytes: what the transport received on /chunk/, attributed
	// by the manifests, equals what the server counted, to the byte.
	tierOf := map[string]string{}
	for c := range courseNames {
		chunkTiers(local.mans[c], tierOf)
	}
	client := map[string]int64{}
	for _, w := range win.workers {
		for hash, n := range w.rt.chunks {
			if label, ok := tierOf[hash]; ok {
				client[label] += n
			}
		}
	}
	labels := map[string]bool{}
	for _, label := range tierOf {
		labels[label] = true
	}
	for label := range labels {
		server := delta(win.before, win.after, fmt.Sprintf(`netstream_tier_bytes_total{tier=%q}`, label))
		r.check(float64(client[label]) == server, "tier %s: client received %d video chunk bytes, server counted %.0f", label, client[label], server)
	}
	r.note("per-tier bytes reconcile exactly over %d tiers", len(labels))
}

// layers fills the netstream, blobstore-over-the-wire and playback layer
// metrics from a traced window.
func (sr *streamRun) layers(m metrics, r *result, win *phase) {
	ws := win.workers
	n := sr.n
	man, chunk := routeTotals(ws, rManifest), routeTotals(ws, rChunk)
	all := routeTotals(ws, rManifest, rChunk, rPkg)
	m.set("netstream.open_us", us(win.p50(sOpen)), "us")
	m.set("netstream.startup_p90_us", us(win.p90(sStartup)), "us")
	m.set("netstream.manifest_rtt_us", us(quantile(man.rtts, 0.5)), "us")
	m.set("netstream.chunk_rtt_us", us(quantile(chunk.rtts, 0.5)), "us")
	m.set("netstream.requests_per_open", ratio(float64(n.openRequests), float64(n.opens)), "count")
	m.set("netstream.bytes_per_open", ratio(float64(n.openBytes), float64(n.opens)), "bytes")
	m.set("netstream.requests_per_course", ratio(float64(n.courseRequests), float64(n.courses)), "count")
	m.set("netstream.bytes_per_course", ratio(float64(n.courseBytes), float64(n.courses)), "bytes")
	m.set("netstream.segment_fetch_us", us(win.p50(sSegFetch)), "us")
	// Client self time of the fetch path per chunk: SHA-256 verify,
	// cache insert and range assembly, net of the HTTP round trips.
	seg := byName(ws, named("netstream.segment"))
	var self time.Duration
	for _, d := range seg.self {
		self += d
	}
	chunksInSegments := childCount(ws, "netstream.segment", "http /chunk/")
	m.set("netstream.client_self_us_per_chunk", ratio(us(self), float64(chunksInSegments)), "us")
	m.set("netstream.delta_fill_us", us(win.p50(sDeltaFill)), "us")
	m.set("netstream.resync_requests", ratio(float64(n.resyncRequests), float64(n.courses)), "count")
	m.set("netstream.not_modified_ratio", ratio(float64(n.resyncNotModified), float64(n.resyncRequests)), "ratio")
	m.set("netstream.retry_ratio", ratio(float64(all.resent), float64(all.requests)), "ratio")

	m.set("blobstore.server_get_hot_us", histMeanUS(win.before, win.after, "blobstore_get_seconds", `{tier="hot"}`)*win.speed(), "us")
	m.set("blobstore.server_get_cold_us", histMeanUS(win.before, win.after, "blobstore_get_seconds", `{tier="cold"}`)*win.speed(), "us")
	hits, misses := delta(win.before, win.after, "blobstore_hits_total"), delta(win.before, win.after, "blobstore_misses_total")
	m.set("blobstore.server_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("blobstore.client_hit_ratio", ratio(float64(n.resyncChunkHits), float64(n.resyncChunkHits+n.resyncChunkMisses)), "ratio")
	m.set("playback.frame_at_us", us(win.p50(sFrame)), "us")
	r.note("stream layers: %d manifest and %d chunk round trips timed", len(man.rtts), len(chunk.rtts))
}

// childCount counts spans named child directly under spans named parent.
func childCount(ws []*worker, parent, child string) int {
	n := 0
	for _, w := range ws {
		for _, s := range w.tr.spans {
			if s.name == child && s.parent >= 0 && w.tr.spans[s.parent].name == parent {
				n++
			}
		}
	}
	return n
}
