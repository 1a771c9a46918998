package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"time"
)

// reference is the three demo courses published locally, step by step:
// record every rung, build the ladder package, deposit its chunks. The
// stream check decodes its expected frames from it, the probes replay
// learners against it, and its step timings are the studio/gamepack
// layer metrics. PublishLadderTo is exactly these three steps.
type reference struct {
	courses [len(courseNames)]*course
	videos  [len(courseNames)][]tierVideo
	blobs   [len(courseNames)][]byte
	mans    [len(courseNames)]*manifest
	store   *store

	steps publishSteps
}

// publishSteps is one publish round's time by step, summed over the
// three courses.
type publishSteps struct {
	record, build, deposit time.Duration
}

// publishSplit publishes the three courses into one fresh store with
// each step timed apart.
func publishSplit(courses [len(courseNames)]*course) (*reference, error) {
	st, err := newStore()
	if err != nil {
		return nil, err
	}
	ref := &reference{courses: courses, store: st}
	for c, co := range courses {
		t0 := now()
		if ref.videos[c], err = recordLadder(co); err != nil {
			return nil, err
		}
		t1 := now()
		if ref.blobs[c], err = buildLadder(co, ref.videos[c]); err != nil {
			return nil, err
		}
		t2 := now()
		if ref.mans[c], err = depositChunks(ref.blobs[c], st); err != nil {
			return nil, err
		}
		t3 := now()
		ref.steps.record += t1.sub(t0)
		ref.steps.build += t2.sub(t1)
		ref.steps.deposit += t3.sub(t2)
	}
	return ref, nil
}

// courseFrames is the course's frame count: its chapters tile the film.
func courseFrames(co *course) int {
	n := 0
	for _, ch := range courseChapters(co) {
		n = max(n, ch.end)
	}
	return n
}

// smallestTier is the rung the ABR open fetches the start segment from.
func smallestTier(videos []tierVideo) string {
	best := 0
	for i, v := range videos {
		if len(v.Video) < len(videos[best].Video) {
			best = i
		}
	}
	return videos[best].Tier
}

// frameSums decodes every rung of course c sequentially and returns the
// checksum of each chapter's frames, keyed tier → chapter name.
func (ref *reference) frameSums(c int) (map[string]map[string]uint32, error) {
	out := map[string]map[string]uint32{}
	for _, tv := range ref.videos[c] {
		v, err := openVideo(tv.Video)
		if err != nil {
			return nil, err
		}
		sums := map[string]uint32{}
		for _, ch := range courseChapters(ref.courses[c]) {
			var sum uint32
			for i := ch.start; i < ch.end; i++ {
				pix, err := v.framePix(i)
				if err != nil {
					return nil, fmt.Errorf("tier %q frame %d: %w", tv.Tier, i, err)
				}
				sum = crc32.Update(sum, crc32.IEEETable, pix)
			}
			sums[ch.name] = sum
		}
		out[tv.Tier] = sums
	}
	return out, nil
}

// probeWorker is an untraced worker with no network: probes time calls
// with the same decorator the workloads use.
func probeWorker() *worker {
	return &worker{tr: &tracer{}}
}

// layerProbes fills the per-layer metrics that do not depend on the
// workload: in-process replays and step timings over the local
// reference. They run in every traced run so the ledger's floors
// (runtime.call_us inside handler_us, bare decode inside frame_at_us)
// come from the same process and moment as the numbers they sit under.
// steps are the publish step times to report: the reference round's own,
// or on the publish workload the medians over the window's rounds.
func layerProbes(m metrics, r *result, ref *reference, steps publishSteps, seed int64) error {
	frames, rungs, videoBytes, chunks, pkgBytes, manBytes := 0, 0, 0, 0, 0, 0
	for c, co := range ref.courses {
		frames += courseFrames(co)
		rungs = len(ref.videos[c])
		for _, tv := range ref.videos[c] {
			videoBytes += len(tv.Video)
		}
		chunks += chunkCount(ref.mans[c])
		pkgBytes += len(ref.blobs[c])
		manBytes += manifestBytes(ref.mans[c])
	}
	n := float64(len(ref.courses))
	m.set("studio.record_ms", ms(steps.record), "ms")
	m.set("studio.record_us_per_frame", us(steps.record)/float64(frames*rungs), "us")
	m.set("gamepack.build_ms", ms(steps.build), "ms")
	m.set("gamepack.deposit_ms", ms(steps.deposit), "ms")
	m.set("vcodec.bytes_per_frame", float64(videoBytes)/float64(frames*rungs), "bytes")
	m.set("gamepack.chunks_per_course", float64(chunks)/n, "count")
	m.set("gamepack.package_bytes", float64(pkgBytes)/n, "bytes")
	m.set("gamepack.manifest_bytes", float64(manBytes)/n, "bytes")

	var opens []time.Duration
	for _, blob := range ref.blobs {
		for k := 0; k < 5; k++ {
			t0 := now()
			if _, err := openPackage(blob); err != nil {
				return err
			}
			opens = append(opens, since(t0))
		}
	}
	m.set("gamepack.open_us", us(quantile(opens, 0.5)), "us")

	// blobstore: every chunk of the three courses into a fresh store,
	// then again (all duplicates).
	var all [][]byte
	for c := range ref.courses {
		cs, err := chunkBytes(ref.mans[c], ref.store)
		if err != nil {
			return err
		}
		all = append(all, cs...)
	}
	fresh, err := newStore()
	if err != nil {
		return err
	}
	puts, dups := 0, 0
	t0 := now()
	for pass := 0; pass < 2; pass++ {
		for _, data := range all {
			dup, err := putChunk(fresh, data)
			if err != nil {
				return err
			}
			puts++
			if dup {
				dups++
			}
		}
	}
	m.set("blobstore.put_us_per_chunk", us(since(t0))/float64(puts), "us")
	m.set("blobstore.dedup_ratio", float64(dups)/float64(puts), "ratio")

	// vcodec decode: the canonical rung of each course, sequential, no
	// network.
	decoded := 0
	var decode time.Duration
	for c, co := range ref.courses {
		opened, err := openPackage(ref.blobs[c])
		if err != nil {
			return err
		}
		v, err := openVideo(opened.Video)
		if err != nil {
			return err
		}
		t0 := now()
		for i := 0; i < courseFrames(co); i++ {
			if _, err := v.framePix(i); err != nil {
				return err
			}
		}
		decode += since(t0)
		decoded += courseFrames(co)
	}
	m.set("vcodec.decode_us_per_frame", us(decode)/float64(decoded), "us")

	return runtimeProbe(m, r, ref, seed)
}

// runtimeProbe replays the window's first learners against local
// runtime.Sessions on one goroutine: whole sessions through sim.Run for
// time and exact allocation counts, then again through the call
// decorator for per-call time.
func runtimeProbe(m metrics, r *result, ref *reference, seed int64) error {
	const learners = 30
	var sessions []time.Duration
	events := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := int64(0); i < learners; i++ {
		t0 := now()
		rep, err := runLocal(ref.blobs[i%int64(len(courseNames))], seed+7919*i)
		if err != nil {
			return err
		}
		sessions = append(sessions, since(t0))
		events += rep.TotalEvents
	}
	runtime.ReadMemStats(&after)
	m.set("runtime.session_us", us(quantile(sessions, 0.5)), "us")
	m.set("runtime.allocs_per_session", float64(after.Mallocs-before.Mallocs)/learners, "count")
	m.set("runtime.bytes_per_session", float64(after.TotalAlloc-before.TotalAlloc)/learners, "bytes")
	m.set("runtime.events_per_session", float64(events)/learners, "count")

	w := probeWorker()
	var opens []time.Duration
	acts := 0
	for i := int64(0); i < learners; i++ {
		col := &collector{}
		t0 := now()
		g, closeSession, err := newLocalSession(ref.blobs[i%int64(len(courseNames))], col)
		if err != nil {
			return err
		}
		opens = append(opens, since(t0))
		tg := newTimedGame(g, w, t0)
		err = runGame(tg, seed+7919*i, col)
		closeSession()
		if err != nil {
			return err
		}
		acts += tg.acts
	}
	m.set("runtime.open_us", us(quantile(opens, 0.5)), "us")
	calls := merged([]*worker{w}, sAct)
	m.set("runtime.call_us", us(quantile(calls, 0.5)), "us")
	m.set("runtime.acts_per_session", float64(acts)/learners, "count")
	r.note("runtime probe: %d local sessions, %d act calls", learners, len(calls))
	return nil
}
