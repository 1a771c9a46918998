package runtime_test

import (
	"hash/crc32"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analytics"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// watcher is a session whose Watch records a checksum of every frame
// presented, composited sprites included.
type watcher struct {
	*runtime.Session
	frame raster.Frame
	sums  []uint32
}

func (w *watcher) Watch() error {
	if err := w.Session.FrameInto(&w.frame); err != nil {
		return err
	}
	w.sums = append(w.sums, crc32.ChecksumIEEE(w.frame.Pix))
	return nil
}

// guided plays one seeded guided learner over pkg and returns its digest
// and the frames it watched. solo detaches the session from the package's
// frame cache: every frame is then decoded by the session's own
// playback.Video, the uncached reference.
func guided(pkg *gamepack.Package, seed int64, solo bool) (*analytics.Report, []uint32, error) {
	col := &analytics.Collector{}
	s, err := runtime.NewSessionFromPackage(pkg, runtime.Options{Observer: col})
	if err != nil {
		return nil, nil, err
	}
	if solo {
		s.DetachFrameCache()
	}
	w := &watcher{Session: s}
	res, err := sim.RunGame(w, sim.GuidedFactory, sim.Config{
		MaxSteps: 30, TicksPerStep: 2, Patience: 20, RewardBoost: 10, WatchEvery: 1, Seed: seed,
	}, col)
	if err != nil {
		return nil, nil, err
	}
	return res.Report, w.sums, nil
}

// TestSharedPackageConcurrentSessions opens one package and plays 16 seeded
// guided learners on it at once — the first of them racing to build the
// shared container, scripts and frame cache, all of them presenting through
// that one cache while others insert into it. Sharing must be invisible:
// each learner's digest equals its solo run's, and every frame it watched
// equals the one a session with no cache at all decoded at that step.
func TestSharedPackageConcurrentSessions(t *testing.T) {
	blob := runtime.ClassroomBlob(t)
	const learners = 16
	type run struct {
		report *analytics.Report
		sums   []uint32
		err    error
	}
	want := make([]run, learners)
	for i := range want {
		pkg, err := gamepack.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		r := &want[i]
		if r.report, r.sums, r.err = guided(pkg, int64(100+i), true); r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.sums) == 0 {
			t.Fatalf("learner %d watched nothing", i)
		}
	}

	shared, err := gamepack.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]run, learners)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &got[i]
			r.report, r.sums, r.err = guided(shared, int64(100+i), false)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i].err != nil {
			t.Fatalf("learner %d: %v", i, got[i].err)
		}
		if !reflect.DeepEqual(got[i].report, want[i].report) {
			t.Errorf("learner %d: digest on the shared package differs from its solo run:\n got %+v\nwant %+v", i, got[i].report, want[i].report)
		}
		if !reflect.DeepEqual(got[i].sums, want[i].sums) {
			t.Errorf("learner %d: watched frames differ from the uncached decode", i)
		}
	}
	hits, misses, _, frames, _ := shared.Frames().Stats()
	t.Logf("%d learners: %d cache hits, %d misses, %d distinct frames", learners, hits, misses, frames)
	if hits == 0 {
		t.Error("no learner ever presented a frame another had decoded")
	}
}
