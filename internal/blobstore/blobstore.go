// Package blobstore is a content-addressed chunk store: immutable blobs
// keyed by their SHA-256. It is the storage substrate of the delivery
// layer — game packages are split into chunks at video-segment boundaries
// (see gamepack.Manifest), so identical segments shared by several courses
// are stored and transferred exactly once, and a course edit invalidates
// only the chunks whose bytes actually changed.
//
// A Store layers an LRU hot-chunk cache over a pluggable
// Backend (in-memory or on-disk). Reads served from the hot tier are
// allocation-free; reads that fall through to the backend are verified
// against their address before they are returned, so a corrupted disk (or
// a tampered cache directory) can never hand bytes to a decoder. A Store
// may also run cache-only (no backend): that shape is the client-side
// chunk cache, where eviction is harmless because any chunk can be
// refetched by hash.
//
// Two puts fill a store. Put hashes the bytes to find their address and
// keeps a copy, so a publisher may hand it slices of a package it goes on
// using. Adopt takes the address the caller expects (a manifest entry),
// hashes once to check it, and refuses a mismatch with ErrCorrupt; a
// cache-only store then keeps the caller's buffer itself. It is how a
// delivery client verifies a fetched chunk and caches it with one SHA-256
// and no copy.
package blobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// HashSize is the size of a chunk address in bytes.
const HashSize = sha256.Size

// Hash is a chunk address: the SHA-256 of the chunk's bytes.
type Hash [HashSize]byte

// Sum computes the address of a chunk.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the address as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash decodes a 64-character hex address.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("blobstore: bad hash length %d", len(s))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("blobstore: bad hash: %w", err)
	}
	return h, nil
}

// ErrNotFound reports that no chunk with the requested address is stored.
var ErrNotFound = errors.New("blobstore: chunk not found")

// ErrCorrupt reports that stored bytes no longer match their address.
var ErrCorrupt = errors.New("blobstore: chunk bytes do not match their hash")

// BackendStats counts what a backend holds.
type BackendStats struct {
	Chunks int
	Bytes  int64
}

// Backend is the durable tier under a Store. Implementations must be safe
// for concurrent use. Get may return a slice the caller must treat as
// read-only.
type Backend interface {
	// Put stores a chunk, reporting whether it was new (false = dedup hit).
	Put(h Hash, data []byte) (added bool, err error)
	Get(h Hash) ([]byte, error)
	Has(h Hash) (bool, error)
	Remove(h Hash) error
	Stats() BackendStats
}

// --- in-memory backend ------------------------------------------------------

// Memory is a map-backed Backend. Put copies, so callers may hand it
// slices of larger buffers without pinning them.
type Memory struct {
	mu    sync.RWMutex
	m     map[Hash][]byte
	bytes int64
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{m: map[Hash][]byte{}} }

// Put implements Backend.
func (b *Memory) Put(h Hash, data []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[h]; ok {
		return false, nil
	}
	b.m[h] = append([]byte(nil), data...)
	b.bytes += int64(len(data))
	return true, nil
}

// Get implements Backend.
func (b *Memory) Get(h Hash) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.m[h]
	if !ok {
		return nil, ErrNotFound
	}
	return data, nil
}

// Has implements Backend.
func (b *Memory) Has(h Hash) (bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.m[h]
	return ok, nil
}

// Remove implements Backend.
func (b *Memory) Remove(h Hash) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if data, ok := b.m[h]; ok {
		b.bytes -= int64(len(data))
		delete(b.m, h)
	}
	return nil
}

// Stats implements Backend.
func (b *Memory) Stats() BackendStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return BackendStats{Chunks: len(b.m), Bytes: b.bytes}
}

// --- on-disk backend --------------------------------------------------------

// Disk stores each chunk as a file named by its hex address, fanned out
// over 256 prefix directories (ab/abcdef...). Writes go through a temp
// file and rename, so a crash never leaves a half-written chunk under a
// valid address.
type Disk struct {
	dir string

	mu     sync.Mutex
	chunks int
	bytes  int64
}

// NewDisk opens (creating if needed) an on-disk backend rooted at dir and
// scans it so Stats reflects chunks left by previous runs.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	b := &Disk{dir: dir}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || len(d.Name()) != 2*HashSize {
			return err
		}
		if info, err := d.Info(); err == nil {
			b.chunks++
			b.bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blobstore: scanning %s: %w", dir, err)
	}
	return b, nil
}

func (b *Disk) path(h Hash) string {
	name := h.String()
	return filepath.Join(b.dir, name[:2], name)
}

// Put implements Backend. The whole check-write-rename sequence runs
// under the lock: two concurrent Puts of the same chunk must resolve to
// one addition, or the counters drift from the files (writes happen at
// publish time, so serializing them costs nothing that matters).
func (b *Disk) Put(h Hash, data []byte) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path := b.path(h)
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("blobstore: %w", werr)
	}
	b.chunks++
	b.bytes += int64(len(data))
	return true, nil
}

// Get implements Backend.
func (b *Disk) Get(h Hash) ([]byte, error) {
	data, err := os.ReadFile(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("blobstore: %w", err)
	}
	return data, nil
}

// Has implements Backend.
func (b *Disk) Has(h Hash) (bool, error) {
	_, err := os.Stat(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("blobstore: %w", err)
	}
	return true, nil
}

// Remove implements Backend.
func (b *Disk) Remove(h Hash) error {
	info, err := os.Stat(b.path(h))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	if err := os.Remove(b.path(h)); err != nil {
		return fmt.Errorf("blobstore: %w", err)
	}
	b.mu.Lock()
	b.chunks--
	b.bytes -= info.Size()
	b.mu.Unlock()
	return nil
}

// Stats implements Backend.
func (b *Disk) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{Chunks: b.chunks, Bytes: b.bytes}
}

// --- store (backend + hot tier) ---------------------------------------------

// DefaultCacheBytes is the hot-tier budget when Options.CacheBytes is 0.
const DefaultCacheBytes = 64 << 20

// Options configures a Store.
type Options struct {
	// Backend is the durable tier. nil makes the store cache-only: Put
	// inserts into the LRU tier (evictable), Get misses report ErrNotFound
	// — the client-side chunk cache shape, where any chunk can be
	// refetched by hash.
	Backend Backend
	// CacheBytes budgets the hot tier (0 = DefaultCacheBytes, negative =
	// no hot tier; a cache-only store rejects a negative budget).
	CacheBytes int64
}

// entry is one resident hot chunk on the hot tier's intrusive LRU list.
type entry struct {
	hash       Hash
	data       []byte
	prev, next *entry
}

// Store is a content-addressed chunk store with a hot-chunk cache tier.
// All methods are safe for concurrent use.
type Store struct {
	backend Backend

	// The hot tier: one map and one LRU list under one lock, held for a
	// lookup and a list splice and never across backend I/O. Sixteen
	// stripes of it read 0.55× as fast under two parallel readers
	// (EXPERIMENTS.md E28) and split the budget sixteen ways.
	mu     sync.Mutex
	m      map[Hash]*entry
	head   *entry // most recently used
	tail   *entry // eviction candidate
	bytes  int64
	budget int64 // hot-tier byte budget; <=0 disables the tier

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	bytesServed atomic.Int64
	dedupHits   atomic.Int64

	// getHot/getCold are the chunk-get latency histograms. The hot tier
	// serves in tens of nanoseconds, so timing every hit would dominate
	// the path being measured; hotSample admits one hit in 64 (the
	// histogram is a sampled distribution, the hits counter stays exact).
	// Cold gets pay backend I/O and are always timed.
	getHot    *obs.Histogram
	getCold   *obs.Histogram
	hotSample *obs.Sampler
}

// New builds a Store.
func New(o Options) (*Store, error) {
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	if o.Backend == nil && o.CacheBytes < 0 {
		return nil, errors.New("blobstore: cache-only store needs a cache budget")
	}
	return &Store{
		backend:   o.Backend,
		m:         map[Hash]*entry{},
		budget:    o.CacheBytes,
		getHot:    obs.NewHistogram(obs.LatencyBounds),
		getCold:   obs.NewHistogram(obs.LatencyBounds),
		hotSample: obs.NewSampler(64),
	}, nil
}

// NewCache builds a cache-only store (the client-side shape).
func NewCache(budget int64) *Store {
	s, err := New(Options{CacheBytes: budget})
	if err != nil {
		panic(err) // unreachable: budget 0 defaults, negative rejected above
	}
	return s
}

// unlink removes e from the LRU list; s.mu must be held.
func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used; s.mu must be held.
func (s *Store) pushFront(e *entry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// insert caches a chunk and evicts LRU entries past the budget, sparing
// the chunk just inserted (an oversized chunk may transiently overflow
// the tier rather than thrash). s.mu must be held.
func (s *Store) insert(h Hash, data []byte) {
	if _, ok := s.m[h]; ok {
		return
	}
	e := &entry{hash: h, data: data}
	s.m[h] = e
	s.pushFront(e)
	s.bytes += int64(len(data))
	for s.bytes > s.budget && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.m, victim.hash)
		s.bytes -= int64(len(victim.data))
		s.evictions.Add(1)
	}
}

// Put stores a chunk under its own hash and reports the address and
// whether the chunk was new to the store. The store keeps a copy: the
// caller may reuse data afterwards.
func (s *Store) Put(data []byte) (Hash, bool, error) {
	h := Sum(data)
	added, err := s.put(h, data, true)
	return h, added, err
}

// Adopt stores a chunk under the address the caller expects it to have,
// reporting whether it was new. It hashes data once and compares: on a
// mismatch it returns ErrCorrupt and stores nothing, so verifying a
// fetched chunk and caching it are one SHA-256. A cache-only store keeps
// data itself, without copying — the caller hands the buffer over and
// must not modify it afterwards; a backed store hands it to the backend
// (Memory copies, Disk writes it out).
func (s *Store) Adopt(h Hash, data []byte) (bool, error) {
	if Sum(data) != h {
		return false, fmt.Errorf("%w: %s", ErrCorrupt, h)
	}
	return s.put(h, data, false)
}

// put stores data under h, which the caller has already checked; a
// cache-only store copies data first when clone is set.
func (s *Store) put(h Hash, data []byte, clone bool) (bool, error) {
	if s.backend == nil {
		s.mu.Lock()
		_, dup := s.m[h]
		if !dup {
			if clone {
				data = append([]byte(nil), data...)
			}
			s.insert(h, data)
		}
		s.mu.Unlock()
		if dup {
			s.dedupHits.Add(1)
		}
		return !dup, nil
	}
	added, err := s.backend.Put(h, data)
	if err != nil {
		return false, err
	}
	if !added {
		s.dedupHits.Add(1)
	}
	return added, nil
}

// Get returns a chunk's bytes. The slice is shared and must be treated as
// read-only. Hot-tier hits are allocation-free; backend reads are
// verified against the address before being served (and cached).
func (s *Store) Get(h Hash) ([]byte, error) {
	if s.budget > 0 || s.backend == nil {
		var t0 time.Time
		sampled := s.hotSample.Tick()
		if sampled {
			t0 = time.Now()
		}
		s.mu.Lock()
		if e, ok := s.m[h]; ok {
			if s.head != e {
				s.unlink(e)
				s.pushFront(e)
			}
			s.mu.Unlock()
			s.hits.Add(1)
			s.bytesServed.Add(int64(len(e.data)))
			if sampled {
				s.getHot.ObserveSince(t0)
			}
			return e.data, nil
		}
		s.mu.Unlock()
	}
	s.misses.Add(1)
	if s.backend == nil {
		return nil, ErrNotFound
	}
	t0 := time.Now()
	data, err := s.backend.Get(h)
	if err != nil {
		return nil, err
	}
	if Sum(data) != h {
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, h)
	}
	if s.budget > 0 {
		s.mu.Lock()
		s.insert(h, data)
		s.mu.Unlock()
	}
	s.bytesServed.Add(int64(len(data)))
	s.getCold.ObserveSince(t0)
	return data, nil
}

// Has reports whether the store holds a chunk.
func (s *Store) Has(h Hash) bool {
	s.mu.Lock()
	_, ok := s.m[h]
	s.mu.Unlock()
	if ok {
		return true
	}
	if s.backend == nil {
		return false
	}
	ok, err := s.backend.Has(h)
	return err == nil && ok
}

// Remove drops a chunk from the hot tier and the backend.
func (s *Store) Remove(h Hash) error {
	s.mu.Lock()
	if e, ok := s.m[h]; ok {
		s.unlink(e)
		delete(s.m, h)
		s.bytes -= int64(len(e.data))
	}
	s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	return s.backend.Remove(h)
}

// Register exposes the store's counters and chunk-get latency histograms
// on a metrics registry. All exported counters are monotonic; the chunk
// and byte totals are gauges (they shrink when chunks are removed). The
// hot-tier histogram is a 1-in-64 sampled distribution — see the field
// comment — while the hits/misses counters remain exact.
func (s *Store) Register(reg *obs.Registry) {
	reg.CounterFunc("blobstore_hits_total", "chunk gets served from the hot tier", s.hits.Load)
	reg.CounterFunc("blobstore_misses_total", "chunk gets that fell through the hot tier", s.misses.Load)
	reg.CounterFunc("blobstore_evictions_total", "hot-tier LRU evictions", s.evictions.Load)
	reg.CounterFunc("blobstore_dedup_hits_total", "puts of chunks the store already held", s.dedupHits.Load)
	reg.CounterFunc("blobstore_bytes_served_total", "chunk bytes handed to readers", s.bytesServed.Load)
	reg.GaugeFunc("blobstore_chunks", "chunks resident in the durable tier", func() int64 { n, _ := s.durableTotals(); return int64(n) })
	reg.GaugeFunc("blobstore_stored_bytes", "bytes resident in the durable tier", func() int64 { _, b := s.durableTotals(); return b })
	reg.GaugeFunc("blobstore_cache_bytes", "bytes resident in the hot tier", func() int64 { _, b := s.cacheTotals(); return b })
	reg.RegisterHistogram("blobstore_get_seconds", "chunk get latency by tier (hot is 1/64 sampled)", "seconds", s.getHot, obs.L("tier", "hot"))
	reg.RegisterHistogram("blobstore_get_seconds", "chunk get latency by tier (hot is 1/64 sampled)", "seconds", s.getCold, obs.L("tier", "cold"))
}

// Stats is a counter snapshot of a Store.
type Stats struct {
	Chunks      int   // chunks in the durable tier (hot tier if cache-only)
	StoredBytes int64 // bytes in the durable tier (hot tier if cache-only)
	CacheChunks int
	CacheBytes  int64
	Hits        int64 // gets served from the hot tier
	Misses      int64 // gets that fell through (or missed entirely)
	Evictions   int64 // hot-tier LRU evictions
	BytesServed int64
	DedupHits   int64 // puts of chunks already stored
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		BytesServed: s.bytesServed.Load(),
		DedupHits:   s.dedupHits.Load(),
	}
	st.CacheChunks, st.CacheBytes = s.cacheTotals()
	st.Chunks, st.StoredBytes = s.durableTotals()
	return st
}

// cacheTotals reads the hot tier's size.
func (s *Store) cacheTotals() (chunks int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m), s.bytes
}

// durableTotals reads the durable tier — the hot tier if cache-only.
func (s *Store) durableTotals() (chunks int, bytes int64) {
	if s.backend == nil {
		return s.cacheTotals()
	}
	bs := s.backend.Stats()
	return bs.Chunks, bs.Bytes
}
