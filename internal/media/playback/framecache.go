package playback

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/media/raster"
)

// FrameCache is a shared cache of decoded frames, keyed by global frame
// index. Many consumers decode the same container — a play service hosts
// hundreds of sessions on one course, and every one of them renders the
// same handful of presentation frames — so the cache turns N identical
// GOP roll-forwards into one decode and N-1 memcpys.
//
// A cache is bound to exactly one container's content: attach it only to
// Videos over the same blob (Video.UseCache). It is safe for concurrent
// use: cached pixels are immutable once inserted and eviction only drops
// the cache's reference to them, so a hit takes the entry under the lock
// and copies it out after releasing it.
type FrameCache struct {
	maxBytes int64

	mu    sync.Mutex
	bytes int64
	byIdx map[int]*list.Element
	lru   list.List // front = most recently used; values are *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	idx int
	f   *raster.Frame
}

// NewFrameCache returns a cache holding at most maxBytes of decoded
// pixels (<= 0 means a small default of 16 MiB). Eviction is LRU.
func NewFrameCache(maxBytes int64) *FrameCache {
	if maxBytes <= 0 {
		maxBytes = 16 << 20
	}
	return &FrameCache{maxBytes: maxBytes, byIdx: map[int]*list.Element{}}
}

// get copies frame i into dst if cached.
func (c *FrameCache) get(i int, dst *raster.Frame) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	el, ok := c.byIdx[i]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	c.lru.MoveToFront(el)
	f := el.Value.(*cacheEntry).f
	c.mu.Unlock()
	dst.CopyFrom(f)
	c.hits.Add(1)
	return true
}

// put stores a private clone of f as frame i, evicting the least
// recently used frames past the byte budget.
func (c *FrameCache) put(i int, f *raster.Frame) {
	if c == nil {
		return
	}
	n := int64(len(f.Pix))
	if n == 0 || n > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byIdx[i]; ok {
		return
	}
	c.byIdx[i] = c.lru.PushFront(&cacheEntry{idx: i, f: f.Clone()})
	c.bytes += n
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.byIdx, e.idx)
		c.bytes -= int64(len(e.f.Pix))
		c.evictions.Add(1)
	}
}

// Stats reports cache traffic and occupancy. evictions counts frames
// pushed out by the byte budget over the cache's lifetime.
func (c *FrameCache) Stats() (hits, misses, evictions, frames, bytes int64) {
	if c == nil {
		return 0, 0, 0, 0, 0
	}
	c.mu.Lock()
	frames, bytes = int64(c.lru.Len()), c.bytes
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), frames, bytes
}
