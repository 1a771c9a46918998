package playback

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/media/raster"
)

// TestFrameCacheServesIdenticalPixels decodes every frame twice — once
// cold through one Video, once through a second Video sharing the warmed
// cache — and requires byte-identical output, including after backward
// seeks that would otherwise restart decoding from a keyframe.
func TestFrameCacheServesIdenticalPixels(t *testing.T) {
	blob, film := testBlob(t)
	cold, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*raster.Frame, film.FrameCount())
	for i := range want {
		f, err := cold.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f.Clone()
	}

	cache := NewFrameCache(1 << 30)
	warm, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm.UseCache(cache)
	for i := 0; i < film.FrameCount(); i++ { // warming pass: all misses
		if _, err := warm.FrameAt(i); err != nil {
			t.Fatal(err)
		}
	}
	hits0, misses, _, _, _ := cache.Stats()
	if hits0 != 0 || misses != int64(film.FrameCount()) {
		t.Fatalf("warming pass: hits=%d misses=%d, want 0/%d", hits0, misses, film.FrameCount())
	}

	second, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	second.UseCache(cache)
	// Worst-case access order for a decoder (strided, backward) — every
	// read must be a pure cache hit with exact pixels.
	order := []int{}
	for i := film.FrameCount() - 1; i >= 0; i -= 3 {
		order = append(order, i)
	}
	for i := 0; i < film.FrameCount(); i++ {
		order = append(order, i)
	}
	for _, i := range order {
		f, err := second.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Pix, want[i].Pix) {
			t.Fatalf("frame %d differs between cached and direct decode", i)
		}
	}
	hits, _, _, frames, bytesHeld := cache.Stats()
	if hits != int64(len(order)) {
		t.Fatalf("hits = %d, want %d", hits, len(order))
	}
	if frames != int64(film.FrameCount()) || bytesHeld <= 0 {
		t.Fatalf("cache holds %d frames / %d bytes, want %d frames", frames, bytesHeld, film.FrameCount())
	}
}

// TestFrameCacheEviction bounds the cache to a handful of frames and
// checks the budget is enforced while reads stay correct.
func TestFrameCacheEviction(t *testing.T) {
	blob, film := testBlob(t)
	v, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := int64(3 * 64 * 48)
	cache := NewFrameCache(4 * frameBytes)
	v.UseCache(cache)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < film.FrameCount(); i++ {
			f, err := v.FrameAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if p := raster.PSNR(film.Render(i), f); p < 22 {
				t.Errorf("pass %d frame %d PSNR %.1f", pass, i, p)
			}
		}
	}
	_, _, evictions, frames, bytesHeld := cache.Stats()
	if frames > 4 || bytesHeld > 4*frameBytes {
		t.Fatalf("cache exceeded budget: %d frames / %d bytes", frames, bytesHeld)
	}
	if evictions == 0 {
		t.Fatalf("budget-bounded cache reported zero evictions")
	}
}

// TestFrameCacheConcurrent hammers one cache from eight Videos: roomy, where
// after the first pass everything is a hit, and with a budget of a few
// frames, where every reader's hit — copied out after the lock is released
// — races the evictions other readers' misses cause. Cached pixels are
// immutable and an eviction only drops the cache's reference, so either way
// every frame read must equal the uncached decode.
//
// Free-running readers cannot promise the tight cache a hit: whether a
// repeat lands before three other misses push its frame out is the
// scheduler's call, and 9 runs in 700 saw none. So the tight cache's
// traffic is counted on a second, stepped pass instead: the eight readers
// take strict turns on a shared step counter — a token passed round a ring
// of channels, no sleeps — and step s reads frame (s/2) mod n. Each odd
// step re-reads the frame the step before it just put, a hit whatever the
// budget; each even step reads a frame n−1 others have displaced since, a
// miss. Two laps make the counts exact.
func TestFrameCacheConcurrent(t *testing.T) {
	const readers = 8
	blob, film := testBlob(t)
	n := film.FrameCount()
	ref, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*raster.Frame, n)
	for i := range want {
		f, err := ref.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f.Clone()
	}
	// run starts the readers on cache; reader g reads the frames frame(g, i)
	// names for i = 0, 1, … until it returns -1, each checked against the
	// uncached decode, passing wait and next round between reads.
	run := func(t *testing.T, cache *FrameCache, frame func(g, i int) int, wait, next func(g int)) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for g := 0; g < readers; g++ {
			v, err := OpenVideo(blob, 1)
			if err != nil {
				t.Fatal(err)
			}
			v.UseCache(cache)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var failed error
				for i := 0; ; i++ {
					idx := frame(g, i)
					if idx < 0 {
						break
					}
					wait(g)
					if failed == nil {
						if f, err := v.FrameAt(idx); err != nil {
							failed = err
						} else if !bytes.Equal(f.Pix, want[idx].Pix) {
							failed = fmt.Errorf("reader %d: frame %d differs from the uncached decode", g, idx)
						}
					}
					next(g)
				}
				if failed != nil {
					errs <- failed
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// hammer: strides of 7 from different phases, every third read a
	// repeat of a frame another reader just asked for, no coordination.
	hammer := func(g, i int) int {
		switch {
		case i == 2*n:
			return -1
		case i%3 == 2:
			return ((i-1)*7 + g + 1) % n
		}
		return (i*7 + g) % n
	}
	free := func(int) {}

	for name, budget := range map[string]int64{"roomy": 1 << 30, "evicting": 3 * int64(len(want[0].Pix))} {
		t.Run(name, func(t *testing.T) {
			cache := NewFrameCache(budget)
			run(t, cache, hammer, free, free)
			hits, _, _, _, held := cache.Stats()
			if held > budget {
				t.Errorf("the cache holds %d B of a %d B budget", held, budget)
			}
			if name == "roomy" {
				// 2n reads of n frames: some reader reads a frame twice,
				// and nothing is ever evicted.
				if hits == 0 {
					t.Error("no read was ever a hit")
				}
				return
			}

			steps := 4 * n
			turn := make([]chan struct{}, readers)
			for g := range turn {
				turn[g] = make(chan struct{}, 1)
			}
			turn[0] <- struct{}{}
			cache = NewFrameCache(budget)
			run(t, cache, func(g, i int) int {
				if s := g + readers*i; s < steps {
					return s / 2 % n
				}
				return -1
			}, func(g int) { <-turn[g] }, func(g int) { turn[(g+1)%readers] <- struct{}{} })
			hits, misses, evictions, _, held := cache.Stats()
			if hits != int64(2*n) || misses != int64(2*n) || evictions != int64(2*n-3) || held != budget {
				t.Errorf("stepped pass: %d hits, %d misses, %d evictions, %d B held; want %d, %d, %d, %d B",
					hits, misses, evictions, held, 2*n, 2*n, 2*n-3, budget)
			}
		})
	}
}
