// The cluster gateway: one play service spread over N backend nodes.
//
// Gateway is a thin HTTP router in front of stock play-service nodes. It
// speaks the exact /play/* and /room/* protocol, so clients (and the whole
// learner fleet) point at it unchanged. Session ids — a room's too, since
// a room is the session its driver's create opens — are minted by their
// clients and routed by consistent hashing, so each session has one owner
// node and adding or removing a node moves only ~1/N of the id space.
// Room requests name their room in the query and are relayed untouched.
//
// Durability is what makes the routing safe to change: all nodes share
// one snapshot directory. When a node is removed gracefully the gateway
// drains it (every hosted session freezes into the directory); when
// ownership moves — a drain, a node
// addition, or a crash — the next request for a stray session triggers a
// rescue: the gateway asks the other nodes to hand the session off
// (freeze it), then retries the new owner, which thaws the snapshot and
// carries on. A well-behaved client never notices; at worst a crashed
// node loses the acts since its last checkpoint.
package playsvc

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// vnodes is how many ring points each node gets; more points spread the
// id space more evenly at the cost of a larger (still tiny) ring.
const vnodes = 256

// maxProxyBody bounds a relayed response (the largest is a raw RGB frame).
const maxProxyBody = 64 << 20

// hopTimeout bounds one gateway→node request: a stalled node must not
// hold a routed call (and its client) hostage.
const hopTimeout = 10 * time.Second

// deadNodeLimit is how many consecutive transport failures the node's
// breaker must count before the gateway removes it from the ring
// outright. Short failure runs open the breaker (traffic routes around
// it, probes keep checking), and an open breaker counts only its failed
// probes, one per cooldown: past the 5 that trip it, 27 failed probes
// 500 ms apart, so only a node down for over 13 s is dropped — never one
// behind a brief partition, however many requests failed against it.
const deadNodeLimit = 32

// gwNode is one backend node the gateway routes to.
type gwNode struct {
	name string
	url  string // base URL, e.g. http://127.0.0.1:43211
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash uint32
	node int // index into Gateway.nodes
}

// Gateway fans the play-service protocol out across backend nodes. All
// methods are safe for concurrent use.
type Gateway struct {
	httpc   *http.Client
	control faultnet.RetryPolicy // control sends: controlAttempts, see send

	mu    sync.RWMutex
	nodes []gwNode
	ring  []ringPoint
	// draining nodes are out of the ring (no new routes) but still
	// serving while their sessions freeze; the rescue path must be able
	// to reach them or acts for their sessions would 404 mid-drain.
	draining []gwNode

	// breakers holds one circuit breaker per node name. An open breaker
	// diverts routing to the ring's next node; Allow() past the cooldown
	// admits the routed request itself as the half-open probe.
	brMu     sync.Mutex
	breakers map[string]*faultnet.Breaker

	// reg is the gateway's own registry, the definition of every scalar
	// it reports (see Register).
	reg         *obs.Registry
	creates     atomic.Int64 // sessions created through the gateway
	rescues     atomic.Int64 // stray sessions handed off and re-owned
	recoveries  atomic.Int64 // sessions revived from a crash checkpoint
	retries     atomic.Int64 // requests replayed onto another node
	deadRemoved atomic.Int64 // nodes dropped after transport failures

	// hops counts how many backend requests one routed call took (1 =
	// clean hit; more = rescue/retry healing); rescueNs times successful
	// rescue sweeps. spans records one span per routed call, so a trace
	// shows the gateway hop above the node spans it caused.
	hops     *obs.Histogram
	rescueNs *obs.Histogram
	spans    *obs.SpanRing

	handlerOnce sync.Once
	handler     http.Handler
}

// gatewayFanIn sizes the default backend connection pool. A gateway
// funnels every client in the deployment into a handful of node hosts,
// so the per-host idle pool must match the gateway's concurrency, not
// Go's default of 2 — with the default, all but two of the relayed
// requests re-dial TCP to the same node, and on a small cluster that
// dial churn dominates the relay cost.
const gatewayFanIn = 128

// NewGateway returns an empty gateway; add nodes with AddNode. A nil
// client uses a pooled transport sized for gateway fan-in (real
// timeouts — never the timeout-free http.DefaultClient).
func NewGateway(client *http.Client) *Gateway {
	if client == nil {
		client = &http.Client{
			Transport: faultnet.NewHTTPTransport(gatewayFanIn),
			Timeout:   30 * time.Second,
		}
	}
	g := &Gateway{
		httpc:    client,
		control:  faultnet.RetryPolicy{Attempts: controlAttempts},
		reg:      obs.NewRegistry(""),
		breakers: map[string]*faultnet.Breaker{},
		hops:     obs.NewHistogram(obs.CountBounds),
		rescueNs: obs.NewHistogram(obs.LatencyBounds),
		spans:    obs.NewSpanRing("gateway", 0),
	}
	g.Register(g.reg)
	return g
}

// Ring exposes the gateway's span ring (mounted at /debug/traces).
func (g *Gateway) Ring() *obs.SpanRing { return g.spans }

// Register exposes the gateway's routing counters and histograms on a
// metrics registry, and is the one place their families are named:
// NewGateway runs it on the gateway's own registry, callers on the
// registry behind /metrics. All *_total families are monotonic. The
// gateway keeps no session set: which sessions exist is the nodes'
// sessions_live, summed in the /play/stats cluster view.
func (g *Gateway) Register(reg *obs.Registry) {
	breakers := func(read func(b *faultnet.Breaker) int64) func() int64 {
		return func() (n int64) {
			g.brMu.Lock()
			defer g.brMu.Unlock()
			for _, b := range g.breakers {
				n += read(b)
			}
			return n
		}
	}
	reg.CounterFunc("gateway_creates_total", "sessions created through the gateway", g.creates.Load)
	reg.CounterFunc("gateway_rescues_total", "stray sessions handed off and re-owned", g.rescues.Load)
	reg.CounterFunc("gateway_recoveries_total", "sessions revived from a crash checkpoint", g.recoveries.Load)
	reg.CounterFunc("gateway_retries_total", "requests replayed onto another node", g.retries.Load)
	reg.CounterFunc("gateway_dead_nodes_removed_total", "nodes dropped after transport failures", g.deadRemoved.Load)
	reg.CounterFunc("gateway_breaker_trips_total", "circuit breaker opens across all nodes", breakers((*faultnet.Breaker).Trips))
	reg.GaugeFunc("gateway_breakers_open", "node breakers currently open or probing", breakers(func(b *faultnet.Breaker) int64 {
		if b.Open() {
			return 1
		}
		return 0
	}))
	reg.RegisterHistogram("gateway_hops", "backend requests per routed call", "", g.hops)
	reg.RegisterHistogram("gateway_rescue_seconds", "successful rescue sweep duration", "seconds", g.rescueNs)
}

// breakerFor returns (creating on first use) the node's circuit breaker.
func (g *Gateway) breakerFor(name string) *faultnet.Breaker {
	g.brMu.Lock()
	defer g.brMu.Unlock()
	b := g.breakers[name]
	if b == nil {
		b = &faultnet.Breaker{}
		g.breakers[name] = b
	}
	return b
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// rebuildRing recomputes the ring from g.nodes; g.mu must be held.
func (g *Gateway) rebuildRing() {
	g.ring = g.ring[:0]
	for i, n := range g.nodes {
		for v := 0; v < vnodes; v++ {
			g.ring = append(g.ring, ringPoint{hash32(fmt.Sprintf("%s#%d", n.name, v)), i})
		}
	}
	sort.Slice(g.ring, func(a, b int) bool { return g.ring[a].hash < g.ring[b].hash })
}

// AddNode registers a backend. Sessions whose owner moves onto the new
// node are migrated lazily: their next request 404s on the new owner, the
// gateway rescues them off the old one, and the new owner thaws them.
func (g *Gateway) AddNode(name, url string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range g.nodes {
		if n.name == name {
			return fmt.Errorf("playsvc: gateway already has a node %q", name)
		}
	}
	g.nodes = append(g.nodes, gwNode{name: name, url: strings.TrimSuffix(url, "/")})
	g.rebuildRing()
	return nil
}

// RemoveNode takes a backend out of the ring. With drain set it then
// freezes every session the node still hosts into the shared directory
// (graceful removal — zero loss); without, the node is presumed dead and
// its sessions thaw from their last checkpoint.
func (g *Gateway) RemoveNode(name string, drain bool) error {
	g.mu.Lock()
	var node *gwNode
	kept := g.nodes[:0]
	for i := range g.nodes {
		if g.nodes[i].name == name {
			n := g.nodes[i]
			node = &n
			continue
		}
		kept = append(kept, g.nodes[i])
	}
	g.nodes = kept
	g.rebuildRing()
	if node != nil && drain {
		// Stay reachable for rescues until every session is in the directory.
		g.draining = append(g.draining, *node)
	}
	g.mu.Unlock()
	if node == nil {
		return fmt.Errorf("playsvc: gateway has no node %q", name)
	}
	if !drain {
		return nil
	}
	p, err := g.send(obs.TraceContext{}, nil, *node, http.MethodPost, DrainPath, "", nil)
	g.mu.Lock()
	for i := range g.draining {
		if g.draining[i] == *node {
			g.draining = append(g.draining[:i], g.draining[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	// The pool may hold a connection to the node that was dialed for a
	// request another connection served first. The node's Shutdown counts
	// one that never carried a request as busy for 5 s, so let it go now.
	g.httpc.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("playsvc: draining %s: %w", name, err)
	}
	if p.status != http.StatusOK {
		return fmt.Errorf("playsvc: draining %s: status %d", name, p.status)
	}
	return nil
}

// dropDead removes a node the gateway failed to reach. It only drops the
// exact (name, url) pair it tried, so a racing remove+re-add of the same
// name is not clobbered.
func (g *Gateway) dropDead(node gwNode) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.nodes {
		if g.nodes[i] == node {
			g.nodes = append(g.nodes[:i], g.nodes[i+1:]...)
			g.rebuildRing()
			g.deadRemoved.Add(1)
			return
		}
	}
}

// NodeNames lists the current backends in ring order of addition.
func (g *Gateway) NodeNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.name
	}
	return out
}

// ownerOf resolves a session id to its owning node: the first of its
// preference order.
func (g *Gateway) ownerOf(session string) (gwNode, error) {
	order, err := g.preference(session)
	if err != nil {
		return gwNode{}, err
	}
	return order[0], nil
}

// preference walks the ring from the id's point: the distinct nodes in
// ring order from the owner onward — the same order every gateway
// computes for this id.
func (g *Gateway) preference(session string) ([]gwNode, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.ring) == 0 {
		return nil, fmt.Errorf("playsvc: gateway has no nodes")
	}
	h := hash32(session)
	i := sort.Search(len(g.ring), func(i int) bool { return g.ring[i].hash >= h })
	order := make([]gwNode, 0, len(g.nodes))
	seen := make(map[int]bool, len(g.nodes))
	for k := 0; k < len(g.ring) && len(order) < len(g.nodes); k++ {
		pt := g.ring[(i+k)%len(g.ring)]
		if !seen[pt.node] {
			seen[pt.node] = true
			order = append(order, g.nodes[pt.node])
		}
	}
	return order, nil
}

// routeFor resolves the node to try for a session: the ring owner,
// unless its breaker (or an exclusion from an earlier failed hop of the
// same routed call) says otherwise, in which case the walk continues to
// the ring's next distinct node. When every candidate is refused the
// primary owner is returned anyway — a request must go somewhere, and on
// an all-open ring it doubles as the probe.
func (g *Gateway) routeFor(session string, exclude map[string]bool) (gwNode, error) {
	order, err := g.preference(session)
	if err != nil {
		return gwNode{}, err
	}
	for _, n := range order {
		if exclude[n.name] {
			continue
		}
		if g.breakerFor(n.name).Allow() {
			return n, nil
		}
	}
	return order[0], nil
}

// otherNodes returns every backend except the named one — including
// nodes mid-drain, whose sessions may not have reached the directory yet.
func (g *Gateway) otherNodes(except string) []gwNode {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]gwNode, 0, len(g.nodes)+len(g.draining))
	for _, n := range g.nodes {
		if n.name != except {
			out = append(out, n)
		}
	}
	for _, n := range g.draining {
		if n.name != except {
			out = append(out, n)
		}
	}
	return out
}

// proxied is a fully-buffered backend response (replies are small and
// frames are bounded, so buffering keeps the retry logic trivial).
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// controlAttempts is the retry budget of a control send (handoff, recover).
const controlAttempts = 3

// send performs one request against one node under hopTimeout, fully
// buffering the answer; the node's spans hang off a fresh child of tc, so
// they share the gateway's trace id. A routed request passes a nil policy:
// one attempt, whatever status comes back is the caller's to heal or
// relay. A control send (handoff/recover — both idempotent) passes
// g.control, which also retries transient statuses (an injected or
// load-shed 503 never came from the manager). Control sends decide whether
// the gateway believes a live session exists, so a single dropped packet
// or fault-synthesized 503 on a lossy link must not read as "node does not
// hold it" — that misread would thaw a stale duplicate next to a live
// session.
func (g *Gateway) send(tc obs.TraceContext, policy *faultnet.RetryPolicy, node gwNode, method, path, rawQuery string, body []byte) (p *proxied, err error) {
	req := &faultnet.Request{Method: method, URL: node.url + path, ContentType: "application/json", Body: body, Trace: tc, Timeout: hopTimeout}
	if rawQuery != "" {
		req.URL += "?" + rawQuery
	}
	if path == ActV2Path {
		req.ContentType = FrameContentType
	}
	err = faultnet.Exchange(g.httpc, policy, req, func(resp *http.Response) (error, bool) {
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err != nil {
			return err, true
		}
		p = &proxied{status: resp.StatusCode, header: resp.Header, body: b}
		if policy != nil && faultnet.RetryableStatus(resp.StatusCode) {
			return fmt.Errorf("playsvc: %s %s: %s", method, req.URL, resp.Status), true
		}
		return nil, false
	})
	return p, err
}

// rescue asks every node except the current owner to freeze the session
// into the shared directory; it reports whether any of them had it (live — a
// handoff — or already frozen). A successful sweep's duration lands in
// the rescue histogram.
func (g *Gateway) rescue(tc obs.TraceContext, session, ownerName string) bool {
	t0 := time.Now()
	for _, n := range g.otherNodes(ownerName) {
		body, _ := json.Marshal(&HandoffRequest{Session: session})
		p, err := g.send(tc, &g.control, n, http.MethodPost, HandoffPath, "", body)
		if err == nil && p.status == http.StatusOK {
			g.rescueNs.ObserveSince(t0)
			return true
		}
	}
	return false
}

// recover asks the owner to thaw the session from its last checkpoint —
// the final fallback once no node admits to holding it, meaning its
// owner crashed without draining.
func (g *Gateway) recover(tc obs.TraceContext, session string, owner gwNode) bool {
	body, _ := json.Marshal(&HandoffRequest{Session: session})
	p, err := g.send(tc, &g.control, owner, http.MethodPost, RecoverPath, "", body)
	return err == nil && p.status == http.StatusOK
}

// route sends one session- or room-scoped request to the id's owner,
// healing the ways a request can go astray:
//
//   - transport failure → record it on the node's breaker and retry the
//     SAME node: on a lossy link one dropped packet usually means
//     nothing, and diverting to another node would thaw a stale
//     duplicate next to a live session. Only once the breaker opens
//     (consecutive failures — the node really looks dead) is it excluded
//     for the rest of this call so the retry lands on the ring's next
//     node, which rescues or thaws the session. A node dead long enough
//     (deadNodeLimit failures counted by its breaker) is dropped from the
//     ring outright;
//   - 503 (node draining, or cap reached) → retry only if re-resolution
//     finds a different node;
//   - 404 → the one thing sessions and rooms disagree on, so it is the
//     heal404 argument. For a session the id lives elsewhere (the ring
//     changed): broadcast a handoff so the old owner freezes it, then
//     retry the owner once; failing that, ask the contacted node to
//     recover the last crash checkpoint. A 404 marked Unknown (the shared
//     directory has no entry: no node holds the session) relays as-is
//     after the one hop, and so does a room's 404. Rooms
//     hash by room id — which IS the driven session's id, so the driver's
//     acts and every watcher's polls land on the same node — but they are
//     live-only, and a rescue sweep here would freeze the driver's LIVE
//     session out from under the classroom.
//
// The routed call is one gateway span ("gw /play/act"); every backend
// request under it is a child of tc, so the node-side spans chain onto
// this hop. The hop count (1 = clean hit) lands in the hops histogram.
func (g *Gateway) route(tc obs.TraceContext, method, path, rawQuery string, body []byte, id string, heal404 bool) (p *proxied, err error) {
	hops := 0
	defer func(t0 time.Time) {
		g.hops.Observe(int64(hops))
		g.spans.Record(tc, "gw "+path, t0, err)
	}(time.Now())
	attempts := 4
	if heal404 {
		attempts++ // the retry after a rescue or recover
	}
	rescued := false
	var last *proxied
	var failed map[string]bool
	for ; attempts > 0; attempts-- {
		node, err := g.routeFor(id, failed)
		if err != nil {
			return nil, err
		}
		hops++
		p, err := g.send(tc, nil, node, method, path, rawQuery, body)
		if err != nil {
			br := g.breakerFor(node.name)
			br.Failure()
			if br.ConsecutiveFailures() >= deadNodeLimit {
				g.dropDead(node)
			}
			if br.Open() {
				// The node looks dead (not just a lost packet): divert
				// the rest of this call around it.
				if failed == nil {
					failed = map[string]bool{}
				}
				failed[node.name] = true
			}
			g.retries.Add(1)
			continue
		}
		g.breakerFor(node.name).Success()
		last = p
		switch {
		case p.status == http.StatusNotFound && heal404 && !rescued && p.header.Get(UnknownSessionHeader) == "":
			rescued = true
			if g.rescue(tc, id, node.name) {
				g.rescues.Add(1)
			} else if g.recover(tc, id, node) {
				// No node holds it live: its owner crashed. Revive from
				// the last periodic checkpoint.
				g.recoveries.Add(1)
			} else {
				return p, nil // genuinely unknown everywhere
			}
			g.retries.Add(1)
		case p.status == http.StatusServiceUnavailable:
			if next, err := g.routeFor(id, failed); err != nil || next == node {
				return p, nil
			}
			g.retries.Add(1)
		default:
			return p, nil
		}
	}
	if last != nil {
		return last, nil
	}
	return nil, fmt.Errorf("playsvc: no reachable node for %q", id)
}

// newSessionID mints a session, room or watcher id: the prefix (a course
// name, for debuggability) plus random hex, so ids minted by different
// clients, nodes or restarted gateways cannot collide.
func newSessionID(course string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("playsvc: session id entropy: " + err.Error())
	}
	return course + "-" + hex.EncodeToString(b[:])
}

// relay writes a buffered backend response to the client.
func relay(w http.ResponseWriter, p *proxied) {
	for _, k := range []string{"Content-Type", UnknownSessionHeader, "X-Frame-Width", "X-Frame-Height", "X-Frame-Tick"} {
		if v := p.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(p.status)
	w.Write(p.body)
}

// Handler returns the gateway's HTTP surface — the same /play/* and
// /room/* routes a single node serves, so clients need no cluster
// awareness.
func (g *Gateway) Handler() http.Handler {
	g.handlerOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc(ActV2Path, g.handleActV2)
		mux.HandleFunc(ActPath, g.handleAct)
		mux.HandleFunc(FramePath, g.handleFrame)
		mux.HandleFunc(StatsPath, g.handleStats)
		for _, path := range []string{RoomAnswerPath, RoomWatchPath, RoomStatsPath} {
			mux.HandleFunc(path, g.handleRoom)
		}
		g.handler = mux
	})
	return g.handler
}

// traceOf extracts the request's trace context, minting a fresh root
// when the client sent none — the gateway is where cluster traces begin.
func traceOf(r *http.Request) obs.TraceContext {
	if tc := obs.TraceFromRequest(r); tc.Valid() {
		return tc
	}
	return obs.NewTrace()
}

// handleActV2 forwards a binary act frame opaquely: routing needs only
// the frame's routing prefix — the session id, then its create or resume
// and its leave records (parseFrameRoute reads just those: no CRC, no full
// decode) — so the gateway never re-encodes framed bodies.
func (g *Gateway) handleActV2(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt, err := parseFrameRoute(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	g.routeSession(w, r, ActV2Path, body, rt)
}

// handleAct routes the JSON adapter: its body names the session and the
// same ops a frame's routing prefix does.
func (g *Gateway) handleAct(w http.ResponseWriter, r *http.Request) {
	var req ActRequest
	if !decodeBody(w, r, &req) {
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	g.routeSession(w, r, ActPath, body, frameRoute{session: req.Session, create: req.Course, resume: req.Resume})
}

// routeSession relays one session batch — a frame, or the JSON adapter's
// body — to its session's owner. A resume may thaw a checkpoint entry on
// its owner, so it first sweeps any live copy off the other nodes (a no-op
// unless the ring changed under a dormant client). A retried create needs no rescue
// of its own: the node that minted the session checkpointed it, so the new
// owner of a moved id finds the entry and answers 404 instead of minting
// it again, and route's healing rescues the live copy
// (TestLostFirstFrameAcrossRingMove). Healing is status-driven: act-level
// errors ride inside 200 replies the gateway does not inspect. A 200 to a
// create counts the create; the gateway keeps no record of which sessions
// exist.
func (g *Gateway) routeSession(w http.ResponseWriter, r *http.Request, path string, body []byte, rt frameRoute) {
	if rt.session == "" {
		http.Error(w, "playsvc: request names no session", http.StatusBadRequest)
		return
	}
	tc := traceOf(r)
	if rt.resume {
		if owner, err := g.ownerOf(rt.session); err == nil {
			g.rescue(tc, rt.session, owner.name)
		}
	}
	p, err := g.route(tc, http.MethodPost, path, "", body, rt.session, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if p.status == http.StatusOK && rt.create != "" {
		g.creates.Add(1)
	}
	relay(w, p)
}

// handleFrame proxies the frame GET route by the session query parameter.
func (g *Gateway) handleFrame(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	if session == "" {
		http.Error(w, "playsvc: missing session", http.StatusBadRequest)
		return
	}
	p, err := g.route(traceOf(r), http.MethodGet, FramePath, r.URL.RawQuery, nil, session, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	relay(w, p)
}

// handleRoom relays every room request to the room's owner untouched —
// method, query and body — routed by the ?room= query every room route
// carries: the room id is the driven session's id, so watchers land on the
// driver's node. A watch reply is one bounded body held at most
// maxWatchWait, under hopTimeout, so it rides the ordinary buffered hop.
// Rooms are live-only, so a 404 from the owner is the truth and relays
// as-is: a rescue sweep would freeze the driver's live session out from
// under the classroom.
func (g *Gateway) handleRoom(w http.ResponseWriter, r *http.Request) {
	room := r.URL.Query().Get("room")
	if room == "" {
		http.Error(w, "playsvc: missing room", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		body = nil
	}
	p, err := g.route(traceOf(r), r.Method, r.URL.Path, r.URL.RawQuery, body, room, false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	relay(w, p)
}

// GatewayNodeStats is one backend's health in a GatewayStats snapshot.
type GatewayNodeStats struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Error string `json:"error,omitempty"`
	// Stats is the node's flat scalar view (nil when the node was
	// unreachable), so /play/stats reports per-node counters alongside
	// the cluster aggregate.
	Stats map[string]int64 `json:"stats,omitempty"`
}

// GatewayStats is the gateway's /play/stats payload: its own registry's
// flat scalar view, per-node health, and the cluster view — the reachable
// nodes' views added key by key (counters sum to cluster totals, gauges
// to the cluster's current value).
type GatewayStats struct {
	Gateway      map[string]int64   `json:"gateway"`
	Nodes        []GatewayNodeStats `json:"nodes"`
	Cluster      map[string]int64   `json:"cluster"`
	NodesQueried int                `json:"nodes_queried"`
}

// Stats polls every node and assembles the cluster view.
func (g *Gateway) Stats() GatewayStats {
	g.mu.RLock()
	nodes := append([]gwNode(nil), g.nodes...)
	g.mu.RUnlock()
	st := GatewayStats{Gateway: g.reg.Flat("gateway"), Cluster: map[string]int64{}}
	for _, n := range nodes {
		ns := GatewayNodeStats{Name: n.name, URL: n.url}
		p, err := g.send(obs.TraceContext{}, nil, n, http.MethodGet, StatsPath, "", nil)
		if err == nil && p.status != http.StatusOK {
			err = fmt.Errorf("status %d", p.status)
		}
		if err == nil {
			ns.Stats, err = decodeFlat(p.body)
		}
		if err != nil {
			ns.Error = err.Error()
		} else {
			st.NodesQueried++
			for k, v := range ns.Stats {
				st.Cluster[k] += v
			}
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// decodeFlat reads the integer-valued top-level keys of a node's
// /play/stats body — the flat scalar view; the course list is skipped.
func decodeFlat(body []byte) (map[string]int64, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, err
	}
	flat := make(map[string]int64, len(raw))
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			flat[k] = n
		}
	}
	return flat, nil
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeStats(w, g.Stats())
}
