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

// TestFrameCacheConcurrent hammers one cache from many Videos: roomy, where
// after the first pass everything is a hit, and with a budget of a few
// frames, where every reader's hit — copied out after the lock is released
// — races the evictions other readers' misses cause. Cached pixels are
// immutable and an eviction only drops the cache's reference, so either way
// every frame read must equal the uncached decode.
func TestFrameCacheConcurrent(t *testing.T) {
	blob, film := testBlob(t)
	ref, err := OpenVideo(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*raster.Frame, film.FrameCount())
	for i := range want {
		f, err := ref.FrameAt(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = f.Clone()
	}
	for name, budget := range map[string]int64{"roomy": 1 << 30, "evicting": 3 * int64(len(want[0].Pix))} {
		t.Run(name, func(t *testing.T) {
			cache := NewFrameCache(budget)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					v, err := OpenVideo(blob, 1)
					if err != nil {
						errs <- err
						return
					}
					v.UseCache(cache)
					for i := 0; i < 2*film.FrameCount(); i++ {
						// Strides of 7 from different phases, with every
						// third read a repeat of a frame another reader
						// just asked for.
						idx := (i*7 + seed) % film.FrameCount()
						if i%3 == 2 {
							idx = ((i-1)*7 + seed + 1) % film.FrameCount()
						}
						f, err := v.FrameAt(idx)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(f.Pix, want[idx].Pix) {
							errs <- fmt.Errorf("reader %d: frame %d differs from the uncached decode", seed, idx)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			hits, _, evictions, _, held := cache.Stats()
			if hits == 0 {
				t.Error("no read was ever a hit")
			}
			if name == "evicting" && (evictions == 0 || held > budget) {
				t.Errorf("the tight cache evicted %d frames and holds %d B of a %d B budget", evictions, held, budget)
			}
		})
	}
}
