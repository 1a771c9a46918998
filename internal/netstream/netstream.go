// Package netstream delivers game packages over HTTP — the paper's
// web-based deployment ("students can easily access these resources via
// network", §2) and the substitution for its "web page" resources.
//
// Since PR 4 the delivery path is content-addressed: the Server resolves
// a package name to its chunk manifest and serves every payload byte out
// of a blobstore.Store (deduplicated across courses, hot chunks in an LRU
// tier) instead of holding whole blobs resident. Three routes expose the
// store:
//
//   - /pkg/<name>       — the classic byte-identical package (ranges,
//     ETag/304), assembled on the fly from chunks.
//   - /manifest/<name>  — the chunk manifest (ordered hashes + sizes).
//   - /chunk/<hex>      — one immutable chunk by content address.
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

// extent is one run of package bytes: either framing bytes kept inline
// (section headers, CRCs, the small manifest section) or a reference into
// the chunk store.
type extent struct {
	off    int64
	size   int
	hash   blobstore.Hash
	inline []byte // nil → chunk
}

// pkgEntry is one published package: its manifest, its byte layout and
// its validator. The payload bytes live in the chunk store; what remains
// resident per package is a few hundred bytes of framing.
type pkgEntry struct {
	manifest []byte // encoded manifest, served at /manifest/<name>
	extents  []extent
	size     int64
	etag     string
}

// Server publishes game packages under /pkg/<name> with range support, a
// package listing under /list, chunk-level access under /manifest/<name>
// and /chunk/<hash>, and popup web resources under /res/<name>.
// Additional subsystems (the telemetry service, health checks) mount their
// handlers with Mount. All methods are safe for concurrent use; a classroom
// fleet hammers one Server from hundreds of goroutines.
type Server struct {
	mu        sync.RWMutex
	packages  map[string]*pkgEntry
	resources map[string]string
	mounts    map[string]http.Handler // path (or prefix ending in "/") → handler
	started   time.Time
	store     *blobstore.Store
	// chunkRefs counts extent references per chunk across all published
	// packages, so replacing a package can release the chunks only its
	// old version used instead of leaking a generation per course update.
	chunkRefs map[blobstore.Hash]int
	// chunkTier attributes each published video chunk to its quality
	// tier label (TierLabel form), so the /chunk/ route can account
	// bytes served per tier; tierBytes holds the counters, registered
	// lazily on reg as tiers appear.
	chunkTier map[blobstore.Hash]string
	tierBytes map[string]*atomic.Int64
	reg       *obs.Registry

	// Delivery counters for the built-in routes (mounted subsystems keep
	// their own). All monotonic.
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
		mounts:    map[string]http.Handler{},
		started:   time.Now(),
		store:     store,
		chunkRefs: map[blobstore.Hash]int{},
		chunkTier: map[blobstore.Hash]string{},
		tierBytes: map[string]*atomic.Int64{},
	}
}

// StoreStats snapshots the chunk store's counters.
func (s *Server) StoreStats() blobstore.Stats { return s.store.Stats() }

// AddPackage publishes a package blob under a name. The blob is split
// into the content-addressed chunks its embedded manifest lists
// (deduplicated against everything already published); the blob itself is
// not retained, and a blob without a manifest is refused with
// gamepack.ErrNoManifest. Re-adding a name replaces the package —
// delta-syncing clients then transfer only changed chunks, and chunks
// referenced only by the replaced version are removed from the store (an
// in-flight transfer of the old version may then fail; its client
// re-syncs and gets the new one).
//
// Ingest and registration share one critical section so a concurrent
// replace of another package cannot release a shared chunk between this
// package's deposit and its refcount registration.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, err := s.ingest(man, blob)
	if err != nil {
		return err
	}
	old := s.packages[name]
	s.packages[name] = ent
	for _, ext := range ent.extents {
		if ext.inline == nil {
			s.chunkRefs[ext.hash]++
		}
	}
	// Attribute video chunks to their tier for per-tier bytes-served
	// accounting. Sections run extras-first, canonical last, so a chunk
	// byte-identical across rungs lands on the canonical label — the
	// same preference a deduplicating client cache exhibits.
	for _, sc := range man.Sections {
		tier, ok := gamepack.VideoSectionTier(sc.Name)
		if !ok {
			continue
		}
		label := TierLabel(tier)
		s.tierCounterLocked(label) // surface the series even before traffic
		for _, c := range sc.Chunks {
			s.chunkTier[c.Hash] = label
		}
	}
	if old != nil {
		for _, ext := range old.extents {
			if ext.inline != nil {
				continue
			}
			if s.chunkRefs[ext.hash]--; s.chunkRefs[ext.hash] <= 0 {
				delete(s.chunkRefs, ext.hash)
				delete(s.chunkTier, ext.hash)
				s.store.Remove(ext.hash)
			}
		}
	}
	return nil
}

// tierCounter is tierCounterLocked behind the server lock.
func (s *Server) tierCounter(label string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tierCounterLocked(label)
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

// ingest verifies that the manifest tiles the blob, stores every chunk
// and builds the serving extents. s.mu must be held. A rejection rolls
// back the chunks this call newly deposited (a failed publish must not
// grow the store), sparing any that a published package also references.
func (s *Server) ingest(man *gamepack.Manifest, blob []byte) (*pkgEntry, error) {
	secs, err := gamepack.Sections(blob)
	if err != nil {
		return nil, fmt.Errorf("netstream: %w", err)
	}
	if len(man.Sections) != len(secs) {
		return nil, fmt.Errorf("netstream: manifest lists %d sections, package has %d", len(man.Sections), len(secs))
	}
	ent := &pkgEntry{size: int64(len(blob))}
	sum := sha256.Sum256(blob)
	ent.etag = fmt.Sprintf(`"%x"`, sum[:16])
	pos := 0
	var added []blobstore.Hash // chunks this call deposited that were new
	fail := func(err error) (*pkgEntry, error) {
		for _, h := range added {
			if s.chunkRefs[h] == 0 {
				s.store.Remove(h)
			}
		}
		return nil, err
	}
	addInline := func(data []byte) {
		ent.extents = append(ent.extents, extent{
			off: int64(pos), size: len(data), inline: append([]byte(nil), data...),
		})
		pos += len(data)
	}
	for _, sc := range man.Sections {
		loc, ok := secs[sc.Name]
		if !ok {
			return fail(fmt.Errorf("netstream: manifest names missing section %q", sc.Name))
		}
		if loc[0] < pos {
			return fail(fmt.Errorf("netstream: manifest section %q out of order", sc.Name))
		}
		addInline(blob[pos:loc[0]]) // framing before the payload
		if sc.Name == gamepack.SectionManifest && len(sc.Chunks) == 0 {
			ent.manifest = append([]byte(nil), blob[loc[0]:loc[0]+loc[1]]...)
			addInline(ent.manifest)
			continue
		}
		if sc.PayloadSize() != loc[1] {
			return fail(fmt.Errorf("netstream: manifest section %q sums to %d bytes, payload is %d",
				sc.Name, sc.PayloadSize(), loc[1]))
		}
		for _, c := range sc.Chunks {
			data := blob[pos : pos+c.Size]
			if blobstore.Sum(data) != c.Hash {
				return fail(fmt.Errorf("netstream: manifest chunk hash mismatch in section %q", sc.Name))
			}
			if _, isNew, err := s.store.Put(data); err != nil {
				return fail(fmt.Errorf("netstream: %w", err))
			} else if isNew {
				added = append(added, c.Hash)
			}
			ent.extents = append(ent.extents, extent{off: int64(pos), size: c.Size, hash: c.Hash})
			pos += c.Size
		}
	}
	return ent, nil
}

// Mount attaches a handler at a path. A pattern ending in "/" matches the
// whole subtree ("/telemetry/" serves /telemetry/ingest and
// /telemetry/stats); otherwise the match is exact ("/healthz"). Mounts take
// precedence over the built-in routes, so a pattern that would capture any
// /pkg/, /manifest/, /chunk/, /res/ or /list request is rejected.
func (s *Server) Mount(pattern string, h http.Handler) error {
	if pattern == "" || pattern[0] != '/' {
		return fmt.Errorf("netstream: mount pattern %q must start with /", pattern)
	}
	subtree := strings.HasSuffix(pattern, "/")
	for _, reserved := range []string{"/pkg/", "/manifest/", "/chunk/", "/res/", "/list"} {
		shadows := pattern == reserved ||
			// A mount inside a reserved subtree captures those requests
			// ("/pkg/x" or "/pkg/x/" shadow package fetches)...
			(strings.HasSuffix(reserved, "/") && strings.HasPrefix(pattern, reserved)) ||
			// ...and a subtree mount above a reserved route captures it
			// ("/" shadows everything). "/listing" shadows nothing.
			(subtree && strings.HasPrefix(reserved, pattern))
		if shadows {
			return fmt.Errorf("netstream: pattern %q shadows built-in route %q", pattern, reserved)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mounts[pattern] = h
	return nil
}

// mountFor resolves a mounted handler for a request path, preferring the
// longest pattern.
func (s *Server) mountFor(path string) http.Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best string
	var h http.Handler
	for pat, handler := range s.mounts {
		ok := pat == path || (strings.HasSuffix(pat, "/") && strings.HasPrefix(path, pat))
		if ok && len(pat) > len(best) {
			best, h = pat, handler
		}
	}
	return h
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
// requests/bytes/not_modified count only the built-in routes — mounted
// subsystems (telemetry, the play service) register their own families.
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
	if h := s.mountFor(r.URL.Path); h != nil {
		h.ServeHTTP(w, r)
		return
	}
	s.requests.Add(1)
	w = &countingWriter{ResponseWriter: w, srv: s}
	switch {
	case r.URL.Path == "/list":
		for _, n := range s.Names() {
			fmt.Fprintln(w, n)
		}
	case strings.HasPrefix(r.URL.Path, "/pkg/"):
		name := strings.TrimPrefix(r.URL.Path, "/pkg/")
		ent := s.pkg(name)
		if ent == nil {
			http.NotFound(w, r)
			return
		}
		// With the ETag header set, ServeContent answers If-None-Match with
		// 304 (and still implements Range/If-Modified-Since for us) — repeat
		// fleet fetches of an unchanged package cost a handshake, not
		// megabytes. The reader assembles the requested ranges from the
		// chunk store on the fly; popular chunks ride the hot tier.
		w.Header().Set("ETag", ent.etag)
		http.ServeContent(w, r, name+".tkg", s.started, &extentReader{ent: ent, store: s.store})
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
		label, tiered := s.chunkTier[h]
		s.mu.RUnlock()
		if tiered {
			// Attribute the payload (what the client's per-tier ledger
			// counts) rather than wire bytes, so the two reconcile.
			s.tierCounter(label).Add(int64(len(data)))
		}
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

// extentReader adapts a package's extent table to io.ReadSeeker for
// http.ServeContent, resolving chunk extents through the store. Each
// reader is request-scoped; the store it reads from is shared.
type extentReader struct {
	ent   *pkgEntry
	store *blobstore.Store
	pos   int64
}

func (r *extentReader) Read(p []byte) (int, error) {
	if r.pos >= r.ent.size {
		return 0, io.EOF
	}
	// Find the extent containing pos (extents are sorted and tile the blob).
	exts := r.ent.extents
	i := sort.Search(len(exts), func(i int) bool {
		return exts[i].off+int64(exts[i].size) > r.pos
	})
	if i == len(exts) {
		return 0, io.EOF
	}
	ext := &exts[i]
	src := ext.inline
	if src == nil {
		data, err := r.store.Get(ext.hash)
		if err != nil {
			return 0, fmt.Errorf("netstream: resolving extent at %d: %w", ext.off, err)
		}
		src = data
	}
	n := copy(p, src[r.pos-ext.off:])
	r.pos += int64(n)
	return n, nil
}

func (r *extentReader) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.pos
	case io.SeekEnd:
		base = r.ent.size
	default:
		return 0, errors.New("netstream: bad whence")
	}
	if base+offset < 0 {
		return 0, errors.New("netstream: negative seek")
	}
	r.pos = base + offset
	return r.pos, nil
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
// status is terminal. There is no per-attempt deadline: a whole-package
// degrade GET on a throttled link legitimately outlasts any fixed bound.
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

// anyBodyCap is the starting capacity for a body of unknown size (the
// manifest, a whole package, a resource): io.ReadAll's.
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

// DefaultCacheBudget bounds a PackageCache's assembled-package tier.
const DefaultCacheBudget = 256 << 20

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

// NewPackageCache creates a cache with default budgets.
func NewPackageCache() *PackageCache {
	return NewPackageCacheBudget(DefaultCacheBudget, blobstore.DefaultCacheBytes)
}

// NewPackageCacheBudget creates a cache with explicit byte budgets for
// the assembled-package tier and the chunk tier (non-positive budgets
// fall back to the defaults).
func NewPackageCacheBudget(pkgBytes, chunkBytes int64) *PackageCache {
	if pkgBytes <= 0 {
		pkgBytes = DefaultCacheBudget
	}
	if chunkBytes <= 0 {
		chunkBytes = blobstore.DefaultCacheBytes
	}
	return &PackageCache{
		budget:  pkgBytes,
		entries: map[string]*list.Element{},
		lru:     list.New(),
		chunks:  blobstore.NewCache(chunkBytes),
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
	el := pc.lru.PushFront(&pkgCacheEntry{url: url, etag: etag, blob: blob})
	pc.entries[url] = el
	pc.used += int64(len(blob))
	// Evict past the budget, sparing the entry just inserted.
	for pc.used > pc.budget {
		back := pc.lru.Back()
		if back == nil || back == el {
			break
		}
		pc.drop(back)
		pc.evicted++
	}
}

// downloadWhole is the conditional whole-package GET, DownloadDelta's
// degrade step. When the cache holds a copy, the request carries
// If-None-Match and a 304 answer reuses the cached bytes — st then gains
// one request, zero bytes and one NotModified.
func (c *Client) downloadWhole(url string, cache *PackageCache, st *Stats) ([]byte, error) {
	var etag string
	cached, have := cache.get(url)
	if have {
		etag = cached.etag
	}
	blob, respETag, notModified, err := c.get(url, etag, anyBodyCap, st)
	if err != nil {
		return nil, err
	}
	if notModified {
		return cached.blob, nil
	}
	cache.put(url, respETag, blob)
	return blob, nil
}

// splitPkgURL resolves a /pkg/ URL into its server base and package name.
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

// fetchManifest GETs and parses a package's manifest, with the cached
// validator attached when the cache already holds the URL. A nil manifest
// with ok=true means 304 — the cached package is current.
func (c *Client) fetchManifest(url, etag string, st *Stats) (man *gamepack.Manifest, respETag string, notModified bool, err error) {
	data, respETag, notModified, err := c.get(url, etag, anyBodyCap, st)
	if err != nil {
		return nil, "", false, err
	}
	if notModified {
		return nil, etag, true, nil
	}
	man, err = gamepack.ParseManifest(data)
	if err != nil {
		return nil, "", false, err
	}
	return man, respETag, false, nil
}

// errValidatorMismatch rejects a package whose verified chunks reassemble
// to bytes the server's whole-package validator does not name.
var errValidatorMismatch = errors.New("netstream: reassembled package does not match server validator")

// DownloadDelta fetches a package by manifest diff: only chunks absent
// from the cache's chunk tier cross the wire (each hash-verified on
// receipt), and the package is reassembled locally — on a course update
// that edited one segment, the transfer is that segment plus the
// manifest. When the diff cannot complete for a transport or availability
// reason — no /manifest/ route, chunk fetches that keep failing after their
// own retries on a lossy or partitioned link, a mid-update server — the
// sync degrades to one conditional whole-package GET (a lossy link must
// slow a sync down, not kill it); a validator mismatch is an integrity
// rejection and fails. The returned blob must be treated as read-only.
func (c *Client) DownloadDelta(url string, cache *PackageCache) (blob []byte, st Stats, err error) {
	began := time.Now()
	blob, err = c.syncManifest(url, cache, &st)
	if err != nil && !errors.Is(err, errValidatorMismatch) {
		blob, err = c.downloadWhole(url, cache, &st)
	}
	st.Elapsed = time.Since(began)
	if c.Metrics != nil {
		c.Metrics.DeltaSeconds.ObserveSince(began)
		c.Metrics.DeltaBytes.Observe(int64(st.BytesFetched))
	}
	return blob, st, err
}

// syncManifest is the manifest-diff sync proper: conditional manifest GET,
// missing chunks, reassembly, end-to-end validation.
func (c *Client) syncManifest(url string, cache *PackageCache, st *Stats) ([]byte, error) {
	base, name, ok := splitPkgURL(url)
	if !ok {
		return nil, fmt.Errorf("netstream: %q is not a /pkg/ URL", url)
	}
	var etag string
	if cached, have := cache.get(url); have {
		etag = cached.etag
	}
	man, respETag, notModified, err := c.fetchManifest(base+"/manifest/"+name, etag, st)
	if err != nil {
		return nil, err
	}
	if notModified {
		if cached, have := cache.get(url); have {
			return cached.blob, nil
		}
		// Entry evicted between the conditional request and now; refetch.
		man, respETag, _, err = c.fetchManifest(base+"/manifest/"+name, "", st)
		if err != nil {
			return nil, err
		}
	}
	blob, err := c.materialize(base, man, cache, st)
	if err != nil {
		return nil, err
	}
	// End-to-end integrity: the reassembled blob must match the server's
	// whole-package validator (same construction as Server.AddPackage).
	if respETag != "" {
		sum := sha256.Sum256(blob)
		if want := fmt.Sprintf(`"%x"`, sum[:16]); respETag != want {
			return nil, errValidatorMismatch
		}
	}
	cache.put(url, respETag, blob)
	return blob, nil
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
		st.Add(stats[i])
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
// rung — the cheapest.
func (c *Client) openChunked(base string, man *gamepack.Manifest, cache *PackageCache, cfg ABRConfig, st *Stats) (*RemoteGame, error) {
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
	if g.abr, err = g.ladderPicker(cfg); err != nil {
		return nil, err
	}
	start := proj.ScenarioByID(proj.StartScenario)
	if start == nil {
		return nil, fmt.Errorf("netstream: start scenario %q missing", proj.StartScenario)
	}
	return g, g.ensureSegmentTier(start.Segment, g.abr.CurrentTier(), st)
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
