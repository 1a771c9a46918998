// Package netstream delivers game packages over HTTP — the paper's
// web-based deployment ("students can easily access these resources via
// network", §2) and the substitution for its "web page" resources.
//
// The delivery path is content-addressed: the Server resolves a package
// name to its chunk manifest and serves every payload byte out of a
// blobstore.Store (deduplicated across courses, hot chunks in an LRU tier)
// instead of holding whole blobs resident. A package crosses the wire one
// way, as its manifest and then its chunks:
//
//   - /manifest/<name>  — the chunk manifest (ordered hashes + sizes), with
//     the package's ETag and a 304 to a matching conditional GET.
//   - /chunk/<hex>      — one immutable chunk by content address.
//
// A package's ETag is the digest of its canonical manifest encoding (see
// validator), so a client that checks it on the manifest bytes and each
// chunk against its address has checked the whole package without hashing
// it again. A client is handed a package as a <base>/pkg/<name> URL, which
// names these two routes; no route serves /pkg/ itself.
//
// The Client offers two strategies, compared by experiments E8/E13:
//
//   - DownloadDelta: manifest diff against the local chunk cache, then
//     play; into an empty cache that is the whole package (the 2007
//     default), and on a course update only the chunks whose hashes
//     changed cross the wire, each verified against its address on receipt.
//   - ProgressiveOpenABR: the manifest, the metadata chunks and only the
//     start segment's chunks at the cheapest rung — play begins after a
//     small, size-independent prefix, and later segments ride the ABR
//     picker's rung (a single-quality package is a one-rung ladder).
package netstream

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/playback"
	"repro/internal/media/raster"
	"repro/internal/obs"
)

// pkgEntry is one published package: its manifest, its validator and the
// chunks the manifest lists. The payload bytes live in the chunk store,
// and a client reassembles the package from the manifest; what remains
// resident per package is its manifest and one hash per chunk.
type pkgEntry struct {
	manifest []byte           // canonical manifest encoding, served at /manifest/<name>
	etag     string           // validator(manifest)
	chunks   []blobstore.Hash // every chunk reference, in manifest order
}

// validator is a published package's ETag, served on /manifest/: the first
// 16 bytes of the SHA-256 of its canonical manifest encoding. The manifest
// lists every chunk's SHA-256 and size and the package is
// Manifest.Assemble's pure function of it (AddPackage refuses any other
// blob), so this digest is the package's Merkle root: a client that
// checks it on the manifest bytes and each chunk against its address has
// checked every byte of the package, hashing each once.
func validator(manifest []byte) string {
	sum := sha256.Sum256(manifest)
	return fmt.Sprintf(`"%x"`, sum[:16])
}

// Server publishes game packages as their manifests under
// /manifest/<name> and their chunks under /chunk/<hash>, with a package
// listing under /list and popup web resources under /res/<name>; every
// other path is a 404 (internal/deploy routes a deployment's other
// subsystems around it). All methods are safe for concurrent use; a
// classroom fleet hammers one Server from hundreds of goroutines.
type Server struct {
	mu        sync.RWMutex
	packages  map[string]*pkgEntry
	resources map[string]string
	started   time.Time
	store     *blobstore.Store
	// chunkRefs counts references per chunk across all published packages
	// and the publishes in flight, so replacing a package can release the
	// chunks only its old version used instead of leaking a generation per
	// course update, and never a chunk a concurrent publish is depositing.
	chunkRefs map[blobstore.Hash]int
	// chunkTier maps each published video chunk to its quality tier's
	// bytes-served counter, so the /chunk/ route counts a tiered chunk
	// with one read-locked lookup; tierBytes holds the counters by tier
	// label (TierLabel form), registered lazily on reg as tiers appear.
	chunkTier map[blobstore.Hash]*atomic.Int64
	tierBytes map[string]*atomic.Int64
	reg       *obs.Registry

	// Delivery counters for the package server's routes (a deployment's
	// other subsystems keep their own). All monotonic.
	requests    atomic.Int64
	bytesServed atomic.Int64
	notModified atomic.Int64 // conditional GETs answered 304
}

// NewServer creates an empty server with a private in-memory chunk store.
func NewServer() *Server {
	store, err := blobstore.New(blobstore.Options{Backend: blobstore.NewMemory()})
	if err != nil {
		panic(err) // unreachable: default options are valid
	}
	return NewServerWith(store)
}

// NewServerWith creates a server over a caller-owned chunk store — the
// production shape, built by internal/deploy, which picks the backend
// (memory or disk) and the hot-tier budget from its Config.Store and
// registers the store's metrics.
func NewServerWith(store *blobstore.Store) *Server {
	return &Server{
		packages:  map[string]*pkgEntry{},
		resources: map[string]string{},
		started:   time.Now(),
		store:     store,
		chunkRefs: map[blobstore.Hash]int{},
		chunkTier: map[blobstore.Hash]*atomic.Int64{},
		tierBytes: map[string]*atomic.Int64{},
	}
}

// StoreStats snapshots the chunk store's counters.
func (s *Server) StoreStats() blobstore.Stats { return s.store.Stats() }

// AddPackage publishes a package blob under a name. The blob is split
// into the content-addressed chunks its embedded manifest lists
// (deduplicated against everything already published); the blob itself is
// not retained, and a blob without a manifest is refused with
// gamepack.ErrNoManifest, as is any blob that is not byte for byte the
// assembly of its own manifest (Manifest.CheckFraming, and every chunk at
// its address): the package's validator names its manifest, so every
// delta client would reassemble bytes other than such a blob. Re-adding a
// name replaces the package — delta-syncing clients then transfer only
// changed chunks, and chunks referenced only by the replaced version are
// removed from the store. A sync still working from the old manifest then
// gets a 404 for such a chunk, and DownloadDelta re-syncs once from the
// new manifest.
//
// The chunks are stored with no lock held, so a publish stalls no fetch of
// another course. Before it deposits anything, the call reserves a
// reference to each chunk its manifest lists, so a concurrent replace
// cannot release a shared chunk in between; the package, its tier
// attribution and the release of the old version's references then land
// in one critical section.
func (s *Server) AddPackage(name string, blob []byte) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("netstream: bad package name %q", name)
	}
	if _, err := gamepack.Open(blob); err != nil {
		return fmt.Errorf("netstream: refusing to serve invalid package: %w", err)
	}
	man, err := gamepack.ExtractManifest(blob)
	if err != nil {
		return fmt.Errorf("netstream: %w", err)
	}
	if err := man.CheckFraming(blob); err != nil {
		return fmt.Errorf("netstream: %w", err)
	}
	self := man.Encode()
	ent := &pkgEntry{manifest: self, etag: validator(self)}
	for _, sc := range man.Sections {
		for _, c := range sc.Chunks {
			ent.chunks = append(ent.chunks, c.Hash)
		}
	}
	s.mu.Lock()
	for _, h := range ent.chunks {
		s.chunkRefs[h]++
	}
	s.mu.Unlock()

	added, err := s.deposit(man, blob)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// A failed publish must not grow the store: drop the reservation
		// and take back the chunks this call newly deposited, sparing any
		// that a published package or another publish also references.
		for _, h := range ent.chunks {
			s.unref(h)
		}
		for _, h := range added {
			if s.chunkRefs[h] == 0 {
				s.store.Remove(h)
			}
		}
		return err
	}
	old := s.packages[name]
	s.packages[name] = ent
	// Attribute video chunks to their tier for per-tier bytes-served
	// accounting. Sections run extras-first, canonical last, so a chunk
	// byte-identical across rungs lands on the canonical label — the
	// same preference a deduplicating client cache exhibits.
	for _, sc := range man.Sections {
		tier, ok := gamepack.VideoSectionTier(sc.Name)
		if !ok {
			continue
		}
		// Created here, so the series surfaces even before traffic.
		counter := s.tierCounterLocked(TierLabel(tier))
		for _, c := range sc.Chunks {
			s.chunkTier[c.Hash] = counter
		}
	}
	if old != nil {
		for _, h := range old.chunks {
			if s.unref(h) {
				s.store.Remove(h)
			}
		}
	}
	return nil
}

// unref drops one reference to a chunk and reports whether none is left,
// in which case the chunk is no longer attributed to a tier. s.mu must be
// held.
func (s *Server) unref(h blobstore.Hash) bool {
	if s.chunkRefs[h]--; s.chunkRefs[h] > 0 {
		return false
	}
	delete(s.chunkRefs, h)
	delete(s.chunkTier, h)
	return true
}

// tierCounterLocked finds or creates the bytes-served counter for a tier
// label, registering it on the metrics registry when one is attached.
// s.mu must be held.
func (s *Server) tierCounterLocked(label string) *atomic.Int64 {
	c := s.tierBytes[label]
	if c == nil {
		c = &atomic.Int64{}
		s.tierBytes[label] = c
		if s.reg != nil {
			s.reg.CounterFunc("netstream_tier_bytes_total",
				"video chunk bytes served per quality tier", c.Load,
				obs.Label{Key: "tier", Value: label})
		}
	}
	return c
}

// deposit stores every chunk of a blob whose framing matches its manifest,
// checking each against its address by the one SHA-256 that stores it. It
// returns the chunks it newly added to the store, those before a refusal
// included. It takes no lock: the caller holds a reference to every chunk
// the manifest lists.
func (s *Server) deposit(man *gamepack.Manifest, blob []byte) (added []blobstore.Hash, err error) {
	locs, _ := man.Layout()
	for i, sc := range man.Sections {
		pos := locs[i].Off
		for _, c := range sc.Chunks {
			h, isNew, err := s.store.Put(blob[pos : pos+c.Size])
			if err != nil {
				return added, fmt.Errorf("netstream: %w", err)
			}
			if isNew {
				added = append(added, h)
			}
			if h != c.Hash {
				return added, fmt.Errorf("netstream: manifest chunk hash mismatch in section %q", sc.Name)
			}
			pos += c.Size
		}
	}
	return added, nil
}

// AddResource publishes a text resource (the target of scripts' `open`).
func (s *Server) AddResource(name, content string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources[name] = content
}

// Names lists published packages, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.packages))
	for n := range s.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Server) pkg(name string) *pkgEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.packages[name]
}

// countingWriter tallies the bytes and 304s of one built-in-route
// response into the server's delivery counters.
type countingWriter struct {
	http.ResponseWriter
	srv *Server
}

func (cw *countingWriter) WriteHeader(code int) {
	if code == http.StatusNotModified {
		cw.srv.notModified.Add(1)
	}
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.srv.bytesServed.Add(int64(n))
	return n, err
}

// Register exposes the server's delivery counters on a metrics registry.
// requests/bytes/not_modified count only the package server's routes and
// its 404s — a deployment's other subsystems (telemetry, the play service)
// register their own families.
func (s *Server) Register(reg *obs.Registry) {
	reg.CounterFunc("netstream_requests_total", "requests served by the delivery routes", s.requests.Load)
	reg.CounterFunc("netstream_bytes_total", "response bytes written by the delivery routes", s.bytesServed.Load)
	reg.CounterFunc("netstream_not_modified_total", "conditional GETs answered 304", s.notModified.Load)
	s.mu.Lock()
	s.reg = reg
	for label, c := range s.tierBytes {
		reg.CounterFunc("netstream_tier_bytes_total",
			"video chunk bytes served per quality tier", c.Load,
			obs.Label{Key: "tier", Value: label})
	}
	s.mu.Unlock()
	reg.GaugeFunc("netstream_packages", "packages currently published", func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(len(s.packages))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w = &countingWriter{ResponseWriter: w, srv: s}
	switch {
	case r.URL.Path == "/list":
		for _, n := range s.Names() {
			fmt.Fprintln(w, n)
		}
	case strings.HasPrefix(r.URL.Path, "/manifest/"):
		name := strings.TrimPrefix(r.URL.Path, "/manifest/")
		ent := s.pkg(name)
		if ent == nil {
			http.NotFound(w, r)
			return
		}
		// The manifest shares the package's validator: a 304 here means
		// "your whole cached package is current" — the delta client's
		// cheapest round trip.
		w.Header().Set("ETag", ent.etag)
		http.ServeContent(w, r, name+".tkmf", s.started, bytes.NewReader(ent.manifest))
	case strings.HasPrefix(r.URL.Path, "/chunk/"):
		h, err := blobstore.ParseHash(strings.TrimPrefix(r.URL.Path, "/chunk/"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		data, err := s.store.Get(h)
		if errors.Is(err, blobstore.ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Chunks are immutable by construction: their name is their hash.
		w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
		w.Header().Set("Content-Type", "application/octet-stream")
		s.mu.RLock()
		tier := s.chunkTier[h]
		s.mu.RUnlock()
		if tier != nil {
			// Attribute the payload (what the client's per-tier ledger
			// counts) rather than wire bytes, so the two reconcile.
			tier.Add(int64(len(data)))
		}
		// A sized reply goes out in one write, without chunked framing.
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	case strings.HasPrefix(r.URL.Path, "/res/"):
		name := strings.TrimPrefix(r.URL.Path, "/res/")
		s.mu.RLock()
		content, ok := s.resources[name]
		s.mu.RUnlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, content)
	default:
		http.NotFound(w, r)
	}
}

// Stats counts what a client transfer cost.
type Stats struct {
	Requests      int
	BytesFetched  int
	NotModified   int // conditional GETs answered 304
	ChunksFetched int // chunks transferred over the wire
	ChunkHits     int // chunks served from the local chunk cache
	Elapsed       time.Duration
}

// Add accumulates another transfer's stats (fleet-level totals).
func (st *Stats) Add(o Stats) {
	st.Requests += o.Requests
	st.BytesFetched += o.BytesFetched
	st.NotModified += o.NotModified
	st.ChunksFetched += o.ChunksFetched
	st.ChunkHits += o.ChunkHits
	st.Elapsed += o.Elapsed
}

// ClientMetrics holds the optional delta-sync instruments a Client
// observes into: how many bytes each sync transferred and how long it
// took. A Client with nil Metrics records nothing.
type ClientMetrics struct {
	DeltaBytes   *obs.Histogram // bytes fetched per DownloadDelta call
	DeltaSeconds *obs.Histogram // wall time per DownloadDelta call
}

// NewClientMetrics builds the delta-sync histograms.
func NewClientMetrics() *ClientMetrics {
	return &ClientMetrics{
		DeltaBytes:   obs.NewHistogram(obs.SizeBounds),
		DeltaSeconds: obs.NewHistogram(obs.LatencyBounds),
	}
}

// Register attaches the histograms to a metrics registry.
func (m *ClientMetrics) Register(reg *obs.Registry) {
	reg.RegisterHistogram("netstream_delta_bytes", "bytes transferred per delta sync", "bytes", m.DeltaBytes)
	reg.RegisterHistogram("netstream_delta_seconds", "wall time per delta sync", "seconds", m.DeltaSeconds)
}

// Client fetches packages from a Server.
type Client struct {
	HTTP *http.Client // nil = faultnet.DefaultHTTPClient()
	// Metrics, when set, receives delta-sync observations (see
	// ClientMetrics). Shared safely by concurrent transfers.
	Metrics *ClientMetrics
}

// retryBudget is the wall-clock retry budget of every Client request: it
// rides out brief correlated outages (a network partition) that an
// attempt-counted budget cannot.
const retryBudget = 2 * time.Second

// get is the client's one wire call: an idempotent GET — conditional when
// etag is non-empty — through faultnet.Exchange. Transport failures,
// retryable statuses (429/5xx, honoring a server Retry-After) and a body
// cut after the headers are retried with jittered backoff; any other
// status is terminal, and a 404 wraps errNotFound. There is no per-attempt
// deadline: the largest body is one 64 KiB chunk, and on the slowest link
// profile (cap-6k, 6 kB/s) that takes about 11 s to arrive.
// A request the server answered counts once in st however many attempts
// it took; a 304 to a conditional GET returns notModified with no body.
// A 200's body is read into a buffer that starts at capacity bodyCap (see
// readBody).
func (c *Client) get(url, etag string, bodyCap int, st *Stats) (body []byte, respETag string, notModified bool, err error) {
	req := &faultnet.Request{Method: http.MethodGet, URL: url}
	if etag != "" {
		req.Header = http.Header{"If-None-Match": {etag}}
	}
	answered := false
	err = faultnet.Exchange(c.HTTP, &faultnet.RetryPolicy{Budget: retryBudget}, req, func(resp *http.Response) (error, bool) {
		answered = !faultnet.RetryableStatus(resp.StatusCode)
		switch {
		case resp.StatusCode == http.StatusOK:
			var rerr error
			body, rerr = readBody(resp.Body, bodyCap)
			respETag = resp.Header.Get("ETag")
			return rerr, true
		case etag != "" && resp.StatusCode == http.StatusNotModified:
			notModified = true
			return nil, false
		}
		if resp.StatusCode == http.StatusNotFound {
			return fmt.Errorf("netstream: GET %s: %w", url, errNotFound), false
		}
		return faultnet.WithRetryAfter(resp, fmt.Errorf("netstream: GET %s: %s", url, resp.Status)), !answered
	})
	if answered {
		st.Requests++
	}
	if err != nil {
		return nil, "", false, err
	}
	if notModified {
		st.NotModified++
	}
	st.BytesFetched += len(body)
	return body, respETag, notModified, nil
}

// errNotFound is what get wraps when the server answers 404: no such
// package, chunk or resource.
var errNotFound = errors.New("not found")

// anyBodyCap is the starting capacity for a body of unknown size (the
// manifest, a resource): io.ReadAll's.
const anyBodyCap = 512

// readBody reads r to EOF, as io.ReadAll does, into a buffer that starts
// at capacity n and grows only when the body outruns it. A chunk GET
// passes its manifest size plus one: an honest body fills the buffer to
// that size and ends, so it is read into one exact allocation, and the
// spare byte is what lets a longer body show — it is then read out in
// full and refused by the caller's length check, never cut to fit.
func readBody(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, n)
	for {
		k, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+k]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// defaultCacheBudget bounds a PackageCache's assembled-package tier.
const defaultCacheBudget = 256 << 20

// PackageCache is the client-side cache of the delivery layer: assembled
// packages by URL (with the validator the server sent, so repeat fetches
// can be conditional) over a shared content-addressed chunk cache. Both
// tiers are byte-budgeted with LRU eviction — a fleet that walks a large
// catalog no longer grows without bound. It is safe for concurrent use by
// a whole learner fleet.
type PackageCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element // url -> element holding *pkgCacheEntry
	lru     *list.List               // front = most recently used
	evicted int64

	chunks *blobstore.Store // cache-only store; shared across URLs
}

type pkgCacheEntry struct {
	url  string
	etag string
	blob []byte
}

// NewPackageCache creates a cache with the default budgets: 256 MiB of
// assembled packages over blobstore.DefaultCacheBytes of chunks.
func NewPackageCache() *PackageCache {
	return &PackageCache{
		budget:  defaultCacheBudget,
		entries: map[string]*list.Element{},
		lru:     list.New(),
		chunks:  blobstore.NewCache(blobstore.DefaultCacheBytes),
	}
}

// Chunks exposes the shared chunk cache (the delta-sync working set).
func (pc *PackageCache) Chunks() *blobstore.Store { return pc.chunks }

// Len reports cached package entries.
func (pc *PackageCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// Bytes reports bytes held by the assembled-package tier.
func (pc *PackageCache) Bytes() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.used
}

// Evicted reports packages dropped by the byte-budget LRU policy.
func (pc *PackageCache) Evicted() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.evicted
}

// Forget drops a URL's assembled package (its chunks stay cached).
func (pc *PackageCache) Forget(url string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[url]; ok {
		pc.drop(el)
	}
}

// drop removes an element from both the list and the map; pc.mu held.
func (pc *PackageCache) drop(el *list.Element) {
	e := el.Value.(*pkgCacheEntry)
	pc.lru.Remove(el)
	delete(pc.entries, e.url)
	pc.used -= int64(len(e.blob))
}

func (pc *PackageCache) get(url string) (*pkgCacheEntry, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[url]
	if !ok {
		return nil, false
	}
	pc.lru.MoveToFront(el)
	return el.Value.(*pkgCacheEntry), true
}

func (pc *PackageCache) put(url, etag string, blob []byte) {
	if etag == "" {
		return // nothing to validate against later
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.entries[url]; ok {
		pc.drop(old)
	}
	pc.entries[url] = pc.lru.PushFront(&pkgCacheEntry{url: url, etag: etag, blob: blob})
	pc.used += int64(len(blob))
	// Evict past the budget, least recently used first: a package larger
	// than the whole budget goes too, the moment it arrives.
	for pc.used > pc.budget {
		pc.drop(pc.lru.Back())
		pc.evicted++
	}
}

// splitPkgURL resolves a /pkg/ URL into its server base and package name.
// A package is named to a client by that URL form, <base>/pkg/<name>; the
// client fetches it from <base>/manifest/<name> and <base>/chunk/<hash>.
func splitPkgURL(url string) (base, name string, ok bool) {
	i := strings.LastIndex(url, "/pkg/")
	if i < 0 {
		return "", "", false
	}
	return url[:i], url[i+len("/pkg/"):], true
}

// fetchChunk transfers one chunk and verifies it against its address; a
// chunk whose bytes do not hash to their name is rejected, so a corrupted
// or hostile server cannot feed bytes into the decoder. The body is read
// into one buffer of the manifest's size (plus the spare byte readBody
// uses to see a longer one), and with a cache the one SHA-256 that
// verifies it also keys it there: the cache adopts that buffer, so a
// verified chunk is hashed once and never copied on its way in.
func (c *Client) fetchChunk(base string, ref gamepack.ChunkRef, cache *PackageCache, st *Stats) ([]byte, error) {
	data, _, _, err := c.get(base+"/chunk/"+ref.Hash.String(), "", ref.Size+1, st)
	if err != nil {
		return nil, err
	}
	if len(data) != ref.Size {
		return nil, fmt.Errorf("netstream: chunk %s is %d bytes, manifest says %d", ref.Hash, len(data), ref.Size)
	}
	if cache != nil {
		_, err = cache.chunks.Adopt(ref.Hash, data)
	} else if blobstore.Sum(data) != ref.Hash {
		err = blobstore.ErrCorrupt
	}
	if err != nil {
		return nil, fmt.Errorf("netstream: chunk %s failed hash verification: %w", ref.Hash, err)
	}
	st.ChunksFetched++
	return data, nil
}

// getChunk serves a chunk from the cache or the wire (populating the
// cache), counting hits and transfers.
func (c *Client) getChunk(base string, ref gamepack.ChunkRef, cache *PackageCache, st *Stats) ([]byte, error) {
	if cache != nil {
		if data, err := cache.chunks.Get(ref.Hash); err == nil {
			st.ChunkHits++
			return data, nil
		}
	}
	return c.fetchChunk(base, ref, cache, st)
}

// fetchManifest GETs, authenticates and parses a package's manifest, with
// the cached validator attached when the cache already holds the URL. A
// nil manifest with notModified means 304 — the cached package is current.
// A manifest whose bytes the server's validator does not name is refused
// with errValidatorMismatch, before any chunk is asked for.
func (c *Client) fetchManifest(url, etag string, st *Stats) (man *gamepack.Manifest, respETag string, notModified bool, err error) {
	data, respETag, notModified, err := c.get(url, etag, anyBodyCap, st)
	if err != nil {
		return nil, "", false, err
	}
	if notModified {
		return nil, etag, true, nil
	}
	if respETag != "" && respETag != validator(data) {
		return nil, "", false, errValidatorMismatch
	}
	man, err = gamepack.ParseManifest(data)
	if err != nil {
		return nil, "", false, err
	}
	return man, respETag, false, nil
}

// errValidatorMismatch rejects a manifest whose bytes the server's
// validator does not name.
var errValidatorMismatch = errors.New("netstream: manifest does not match server validator")

// DownloadDelta fetches a package by manifest diff: only chunks absent
// from the cache's chunk tier cross the wire (each hash-verified on
// receipt), and the package is reassembled locally — on a course update
// that edited one segment, the transfer is that segment plus the
// manifest. The package travels only as its manifest and its chunks, and
// any failure fails the sync: a manifest the validator does not name, a
// chunk that does not hash to its address or has the wrong length, and a
// transport failure that outlasts a request's own retries. One case is
// not a failure: a chunk that answers 404 means the package was re-added
// mid-sync and the chunks only its old version used are gone, so the sync
// runs once more from the new manifest (the chunks already verified stay
// in the cache). The returned blob must be treated as read-only.
func (c *Client) DownloadDelta(url string, cache *PackageCache) (blob []byte, st Stats, err error) {
	began := time.Now()
	blob, stale, err := c.syncManifest(url, cache, &st)
	if stale {
		blob, _, err = c.syncManifest(url, cache, &st)
	}
	st.Elapsed = time.Since(began)
	if c.Metrics != nil {
		c.Metrics.DeltaSeconds.ObserveSince(began)
		c.Metrics.DeltaBytes.Observe(int64(st.BytesFetched))
	}
	return blob, st, err
}

// syncManifest is the manifest-diff sync proper: conditional, authenticated
// manifest GET, missing chunks (each verified against its address),
// reassembly. It reports stale when a chunk the manifest lists answered
// 404.
func (c *Client) syncManifest(url string, cache *PackageCache, st *Stats) (blob []byte, stale bool, err error) {
	base, name, ok := splitPkgURL(url)
	if !ok {
		return nil, false, fmt.Errorf("netstream: %q is not a /pkg/ URL", url)
	}
	var etag string
	if cached, have := cache.get(url); have {
		etag = cached.etag
	}
	man, respETag, notModified, err := c.fetchManifest(base+"/manifest/"+name, etag, st)
	if err != nil {
		return nil, false, err
	}
	if notModified {
		if cached, have := cache.get(url); have {
			return cached.blob, false, nil
		}
		// Entry evicted between the conditional request and now; refetch.
		man, respETag, _, err = c.fetchManifest(base+"/manifest/"+name, "", st)
		if err != nil {
			return nil, false, err
		}
	}
	blob, err = c.materialize(base, man, cache, st)
	if err != nil {
		return nil, errors.Is(err, errNotFound), err
	}
	cache.put(url, respETag, blob)
	return blob, false, nil
}

// chunkFetchParallelism bounds concurrent chunk GETs during a sync, so a
// many-chunk cold fetch costs a few round-trip waves instead of one
// serial round trip per 64 KiB.
const chunkFetchParallelism = 8

// materialize assembles a manifest's package, fetching missing chunks.
func (c *Client) materialize(base string, man *gamepack.Manifest, cache *PackageCache, st *Stats) ([]byte, error) {
	// Resolve locally-cached chunks first, into an overlay: the cache
	// tier may evict under pressure, but assembly must see every chunk
	// exactly once.
	overlay := map[blobstore.Hash][]byte{}
	var missing []gamepack.ChunkRef
	for _, sc := range man.Sections {
		for _, ref := range sc.Chunks {
			if _, ok := overlay[ref.Hash]; ok {
				continue
			}
			overlay[ref.Hash] = nil
			if cache != nil {
				if data, err := cache.chunks.Get(ref.Hash); err == nil {
					st.ChunkHits++
					overlay[ref.Hash] = data
					continue
				}
			}
			missing = append(missing, ref)
		}
	}
	// Fan the delta out over a bounded worker pool (per-goroutine Stats,
	// merged after the wait, keep the counters race-free).
	fetched := make([][]byte, len(missing))
	stats := make([]Stats, len(missing))
	errs := make([]error, len(missing))
	sem := make(chan struct{}, chunkFetchParallelism)
	var wg sync.WaitGroup
	for i := range missing {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fetched[i], errs[i] = c.fetchChunk(base, missing[i], cache, &stats[i])
		}(i)
	}
	wg.Wait()
	for i := range missing {
		st.Add(stats[i]) // every fetch counts, those after a failure too
	}
	for i := range missing {
		if errs[i] != nil {
			return nil, errs[i]
		}
		overlay[missing[i].Hash] = fetched[i]
	}
	return man.Assemble(func(h blobstore.Hash) ([]byte, error) {
		if data, ok := overlay[h]; ok && data != nil {
			return data, nil
		}
		return nil, blobstore.ErrNotFound
	})
}

// RemoteGame is a progressively loaded game: full project document, video
// head, and packet data for the segments fetched so far. The packet data
// arrives as content-addressed chunks (hash-verified, shared through the
// PackageCache across every learner on the machine).
//
// Once opened a RemoteGame's fetches, lookups and FrameAt are safe for
// concurrent use: fetches and lookups serialise on the landed-run index,
// FrameAt calls on the decode cursor, and the two never hold each other's
// lock — a fetch in flight does not stall playback of what has already
// landed. The one thing goroutines sharing a game must order among
// themselves is the frame FrameAt returns (see FrameAt).
type RemoteGame struct {
	Project *core.Project
	head    *container.Head

	client *Client

	// rungs maps each quality tier to its fetch plan; "" is the canonical
	// full-quality rung, always present. abr picks the tier per segment
	// fetch (see abr.go).
	base  string
	rungs map[string]*tierRung
	abr   *ABRPicker
	cache *PackageCache

	mu        sync.Mutex
	landed    map[int]*landedRun // first-packet index → fetched packet run
	starts    []int              // sorted landed keys
	tierBytes map[string]int64   // wire bytes fetched per tier (video chunks)

	// Decode cursor: one persistent decoder and the landed run it last
	// decoded from. Guarded by curMu, never by mu.
	curMu sync.Mutex
	seek  *playback.Seeker
	cur   *landedRun
	own   *raster.Frame // recycled frame returned by FrameAt
}

// landedRun is one fetched run of packets [from, end): a segment's bytes
// from its preceding keyframe, at the quality tier they landed at. A run is
// immutable once installed — a wider or re-fetched run is a new value — so
// the decode cursor tells "the bytes I last decoded from" by pointer.
type landedRun struct {
	from, end int
	tier      string
	head      *container.Head // head of the rung the bytes came from
	data      []byte
}

// PacketAt and KeyframeAtOrBefore make a landed run the decode engine's
// packet source. from is a keyframe, so a seek never leaves the run.
func (r *landedRun) PacketAt(j int) ([]byte, error) {
	return r.head.PacketFromChunk(r.data, r.from, j)
}

func (r *landedRun) KeyframeAtOrBefore(i int) (int, error) {
	return r.head.KeyframeAtOrBefore(i)
}

// openChunked plans the progressive startup from the manifest alone: the
// project arrives as its chunks, and the video head is parsed from the
// leading video chunks (cut exactly at the head/data boundary). Every video
// rung in the manifest becomes a fetchable tier, the ABR picker is sized
// from the ladder, and the start segment comes from the picker's cold-start
// rung — the cheapest — and is the picker's first throughput sample.
func (c *Client) openChunked(base string, man *gamepack.Manifest, cache *PackageCache, st *Stats) (*RemoteGame, error) {
	vsec := man.Section(gamepack.SectionVideo)
	psec := man.Section(gamepack.SectionProject)
	if vsec == nil || psec == nil || len(vsec.Chunks) == 0 {
		return nil, errors.New("netstream: manifest lacks project or video section")
	}
	projJSON, err := psec.AssembleSection(func(h blobstore.Hash) ([]byte, error) {
		i := chunkIndex(psec.Chunks, h)
		return c.getChunk(base, psec.Chunks[i], cache, st)
	})
	if err != nil {
		return nil, err
	}
	proj, err := core.UnmarshalProject(projJSON)
	if err != nil {
		return nil, err
	}
	g := &RemoteGame{
		Project:   proj,
		client:    c,
		base:      base,
		rungs:     map[string]*tierRung{},
		cache:     cache,
		landed:    map[int]*landedRun{},
		tierBytes: map[string]int64{},
		seek:      playback.NewSeeker(),
		own:       &raster.Frame{},
	}
	for _, tier := range man.VideoTiers() {
		sc := man.VideoSection(tier)
		g.rungs[tier] = &tierRung{
			chunks: sc.Chunks,
			offs:   chunkOffsets(sc.Chunks),
			size:   sc.PayloadSize(),
		}
	}
	// Canonical video head: grown chunk by chunk until it parses (one
	// chunk in the common case). Other rungs' heads are grown lazily on
	// first fetch from that tier.
	if g.head, err = g.rungHead("", g.rungs[""], st); err != nil {
		return nil, err
	}
	if g.abr, err = g.ladderPicker(); err != nil {
		return nil, err
	}
	start := proj.ScenarioByID(proj.StartScenario)
	if start == nil {
		return nil, fmt.Errorf("netstream: start scenario %q missing", proj.StartScenario)
	}
	seg, err := g.FetchSegmentTier(start.Segment, g.abr.CurrentTier())
	st.Add(seg)
	if err != nil {
		return nil, err
	}
	g.abr.Observe(seg.BytesFetched, seg.Elapsed)
	return g, nil
}

// chunkOffsets returns each chunk's start offset within its payload.
func chunkOffsets(chunks []gamepack.ChunkRef) []int {
	offs := make([]int, len(chunks))
	pos := 0
	for i, c := range chunks {
		offs[i] = pos
		pos += c.Size
	}
	return offs
}

// chunkIndex locates a hash in a chunk list (small lists; linear is fine).
func chunkIndex(chunks []gamepack.ChunkRef, h blobstore.Hash) int {
	for i := range chunks {
		if chunks[i].Hash == h {
			return i
		}
	}
	return 0
}

// HasSegment reports whether a segment's packets are locally available.
func (g *RemoteGame) HasSegment(name string) bool { return g.landedFor(name) != nil }

// landedFor returns the fetched run covering a whole segment, or nil.
func (g *RemoteGame) landedFor(name string) *landedRun {
	ch, ok := g.head.ChapterByName(name)
	if !ok {
		return nil
	}
	k, err := g.head.KeyframeAtOrBefore(ch.Start)
	if err != nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.landed[k]; r != nil && r.end >= ch.End {
		return r
	}
	return nil
}

// Chapters exposes the video's segment table.
func (g *RemoteGame) Chapters() []container.Chapter { return g.head.Chapters() }

// Meta exposes the video metadata.
func (g *RemoteGame) Meta() container.Meta { return g.head.Meta() }

// FrameAt decodes frame i, which must lie inside a fetched segment, against
// the head of whichever quality tier that segment landed at. The game keeps
// one decoder across calls: reading the frame after the last one costs one
// decode; a backward seek or a jump restarts from the nearest keyframe at or
// before i inside the landed run; and a frame from a different run — another
// segment, or the same one re-fetched wider or at another tier — restarts
// from a keyframe of that run. Sequential reads allocate nothing.
//
// The returned frame is owned by the game and recycled by the next FrameAt
// call; Clone it to retain pixels across calls. Calls may come from several
// goroutines (they serialise on the decode cursor), but those goroutines
// share that one frame: each must be done with it, or have cloned it, before
// any of them calls FrameAt again.
func (g *RemoteGame) FrameAt(i int) (*raster.Frame, error) {
	if err := g.frameAtInto(g.own, i); err != nil {
		return nil, err
	}
	return g.own, nil
}

// frameAtInto is FrameAt decoding into a caller-provided frame.
func (g *RemoteGame) frameAtInto(dst *raster.Frame, i int) error {
	r, err := g.runFor(i)
	if err != nil {
		return err
	}
	g.curMu.Lock()
	defer g.curMu.Unlock()
	if r != g.cur {
		g.seek.Reset()
		g.cur = r
	}
	return g.seek.FrameInto(dst, r, i)
}

// runFor locates the landed run to decode frame i from. A run starts at the
// keyframe before its segment, so it overlaps the tail of the segment before
// when cuts are not GOP-aligned; of the runs containing i the earliest is
// the one fetched for i's own segment — the tier SegmentTier reports. Runs
// end in the order they start, so the walk stops at the first that ends
// before i.
func (g *RemoteGame) runFor(i int) (*landedRun, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var run *landedRun
	for j := sort.SearchInts(g.starts, i+1) - 1; j >= 0; j-- {
		r := g.landed[g.starts[j]]
		if i >= r.end {
			break
		}
		run = r
	}
	if run == nil {
		return nil, fmt.Errorf("netstream: frame %d not fetched", i)
	}
	return run, nil
}

// FetchResource GETs a popup web resource (scripts' `open` verb).
func (c *Client) FetchResource(url string) (string, Stats, error) {
	var st Stats
	began := time.Now()
	body, _, _, err := c.get(url, "", anyBodyCap, &st)
	if err != nil {
		return "", st, err
	}
	st.Elapsed = time.Since(began)
	return string(body), st, nil
}
