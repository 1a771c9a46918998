// Package playsvc hosts live game sessions server-side — the play service.
//
// The paper's interactive lessons are *played*, not just streamed: learners
// click objects, answer quizzes and branch between scenarios. netstream
// ships the package to the client; playsvc is the other deployment shape,
// where the runtime.Session itself lives on the server and thin clients
// drive it over HTTP: framed act batches (create or resume, acts, leave)
// and frames. The session manager hosts thousands of concurrent sessions —
// one map under one mutex, held for a lookup and never across an act; the
// per-session lock carries the work — evicts idle ones after a TTL, and
// reports its counters at /play/stats and /metrics. Frame responses ride
// the allocation-free decode path (Decoder.DecodeInto via
// Session.FrameInto), so steady-state play allocates nothing per frame
// request.
//
// Client implements the same surface as a local session (sim.Game), so the
// simulator's policies — and the whole learner fleet — drive a remote
// session unchanged.
package playsvc

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Options tunes a Manager.
type Options struct {
	// TTL bounds memory held for abandoned sessions: a session with no
	// request for this long is evicted.
	// Default 10 minutes; negative disables eviction.
	TTL time.Duration
	// MaxSessions caps live sessions (creates beyond it answer 503). 0 means
	// the default of 16384; negative disables the cap.
	MaxSessions int
	// Dir is the snapshot directory every hosted session is durable in:
	// the TTL janitor snapshots-then-evicts, evicted and handed-off
	// sessions thaw transparently on their next request, and a resume
	// frame reattaches a fresh client. A cluster shares one Dir across all
	// nodes. nil means a private MemDir.
	Dir SnapshotDir
	// CheckpointEvery periodically snapshots every active session so a
	// crash loses at most one interval of progress. 0 disables periodic
	// checkpoints (sessions are still snapshotted on eviction and drain).
	CheckpointEvery time.Duration
	// Node names this manager in recorded trace spans — "node-3" in a
	// cluster, empty for a standalone service (spans then say "play").
	Node string
}

func (o *Options) defaults() {
	if o.TTL == 0 {
		o.TTL = 10 * time.Minute
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 16384
	}
	if o.Dir == nil {
		o.Dir = NewMemDir()
	}
}

// maxTicks bounds a single tick act (and a frame GET's advance) so one
// request cannot spin the server arbitrarily long.
const maxTicks = 1000

// hosted is one server-side live session. Every session access happens
// under mu — one learner drives one session, so the lock is uncontended;
// it exists so stats, eviction and a misbehaving client cannot race the
// runtime. hosted implements runtime.Observer: each session event lands in
// its log, from which replies serve the client's unseen tail.
type hosted struct {
	id     string
	course *course

	mu   sync.Mutex
	sess *runtime.Session
	// events holds the not-yet-acknowledged tail of the session's event
	// log; eventBase is the absolute index of events[0]. The single
	// driving client acknowledges a prefix with every request
	// (seen_events), and reply trims it, so a long-lived session holds
	// O(unacked) events rather than its whole history.
	events    []runtime.Event
	eventBase int
	// enc encodes the state every reply names into buffers it reuses.
	enc stateEncoder
	// room is the broadcast hub when this session is driven as a shared
	// classroom (nil otherwise). Guarded by mu; the act and frame paths
	// publish into it after every state change.
	room *Room

	// gone marks a session that has been released (left, evicted or
	// frozen for handoff) after a concurrent request already resolved it;
	// request paths re-check it under mu and answer 404 so the caller
	// retries into the thaw path instead of acting on a zombie.
	gone bool

	// Batch deduplication state (guarded by mu): the identity of the most
	// recent sequenced act batch and the per-act result bits it produced.
	// A network-level retry of a batch whose reply was lost re-sends the
	// same (base, len) and the server REBUILDS the reply from live state
	// plus these stored results instead of re-applying — exactly-once act
	// semantics over an at-least-once transport. Rebuilding (rather than
	// caching the reply wholesale) is what makes the retry honest about
	// the client's CURRENT seen-counts: if a resume delivered the tail in
	// between, the rebuilt reply serves nothing twice, and if nothing was
	// delivered, the unacked tail is still retained (compaction only
	// happens on acknowledgment) so nothing is lost. A single JSON act is
	// a batch of one. This state rides the snapshot envelope, so thawed
	// and handed-off sessions keep their retry protection.
	lastBase int64  // BaseSeq of the last applied batch (0 = none)
	lastLen  int    // acts in that batch, including a failed one
	lastBits []byte // result bits of the applied prefix (frame.go res* bits)
	lastErr  *Error // act-level error that stopped the batch, nil if none

	// lastSeen (unix nanos) is atomic so the janitor can scan the session
	// map without taking every session lock.
	lastSeen atomic.Int64
	// checkpointed is the lastSeen value the periodic checkpointer last
	// persisted; sessions idle since then are skipped.
	checkpointed atomic.Int64
}

// Record implements runtime.Observer (called with mu held — all session
// methods that emit events run under it).
func (h *hosted) Record(e runtime.Event) { h.events = append(h.events, e) }

func (h *hosted) touch() { h.lastSeen.Store(time.Now().UnixNano()) }

// course is one published package, opened once and shared read-only by
// every session hosted on it — parsed container, compiled scripts and
// decoded presentation frames included (gamepack.Package).
type course struct {
	name      string
	pkg       *gamepack.Package
	videoKey  blobstore.Hash // content hash of the interned video buffer
	w, h, fps int
}

// tombstone preserves the reply to the batch that ended a session, for
// the retry window: if that reply dies in transit, the retried batch (same
// base seq) is served the SAME reply — its act results and the event and
// message tail the lost reply carried — instead of an empty confirmation
// that would lose them forever. Most such replies say nothing but their
// counts, and every finished session leaves a tombstone behind for a TTL,
// so the counts are fields and anything more is kept encoded. Pruned by
// the janitor alongside idle sessions.
type tombstone struct {
	id   string
	next *tombstone // the tombstone saved after this one (Manager.tombHead)
	seq  int64
	at   int64 // unix nanos, for pruning

	// int32 like the snapshot format, which bounds the same three counts;
	// acts is how many acts applied, the leave included.
	tick, eventCount, messageCount, acts int32
	// tail is nil when the reply said no more than the counts above: a
	// thin client has seen everything by the time it leaves.
	tail *tombTail
}

// tombTail is a final reply that said more than its counts — an event or
// message tail the client had not acknowledged, a quiz it left
// unanswered, a take or quiz result — kept whole as the reply frame that
// carried it: a third of the heap its events and strings take decoded.
type tombTail struct{ frame string }

// reply rebuilds the reply the tombstone was saved from.
func (t *tombstone) reply() (*BatchReply, error) {
	if t.tail != nil {
		return ParseReplyFrame([]byte(t.tail.frame))
	}
	return &BatchReply{
		Reply: &Reply{
			Session:      t.id,
			Tick:         int(t.tick),
			EventCount:   int(t.eventCount),
			MessageCount: int(t.messageCount),
		},
		Results: make([]ActResult, t.acts),
	}, nil
}

// tombCap bounds tombstones per manager when no janitor runs (TTL<0) or
// sessions finish faster than the TTL ages them out: the oldest are dropped
// first, which only narrows the retry window for the longest-finished
// sessions.
const tombCap = 131072

// tailCap bounds how many tombstones keep a final tail. A tail is what a
// thick client's last batch emitted — on the ruler's guided sessions six
// events and two messages, a ~300 B frame — and every finished mirror
// session leaves one, where its counts alone cost ~128 B. Kept for the
// tombstone's whole TTL, tails grew the ruler's play server's peak RSS
// 1.6× in one 15 s window, so only the 1 024 newest stay (~0.35 MB). A
// lost reply is retried within milliseconds of a reset or a drop; one lost
// to the 10 s attempt deadline can outlive its tail on a node finishing
// more than ~100 sessions a second, and its retry is then answered 410 —
// never with a final view that silently lacks events.
const tailCap = 1024

// tailDropped marks a tombstone whose final tail was dropped at tailCap.
var tailDropped = &tombTail{}

// Manager is the session host behind the play service HTTP surface. All
// methods are safe for concurrent use.
type Manager struct {
	opts Options

	// Observability: reg is the manager's own registry, the definition of
	// every scalar it reports (see Register). The request-latency and
	// lifecycle-duration histograms record always; ring is the bounded
	// span ring behind /debug/traces. Histogram values are nanoseconds;
	// the registry exports them as seconds.
	reg       *obs.Registry
	actNs     *obs.Histogram
	frameNs   *obs.Histogram
	freezeNs  *obs.Histogram
	thawNs    *obs.Histogram
	restoreNs *obs.Histogram
	// fanoutNs is publish→delivery latency per fan-out frame; skipHist is
	// the per-delivery skip delta (how many frames a watcher bypassed to
	// reach the one it got — 0 for a watcher keeping up).
	fanoutNs *obs.Histogram
	skipHist *obs.Histogram
	ring     *obs.SpanRing

	coursesMu sync.RWMutex
	courses   map[string]*course
	// videos interns video payloads by content hash: N courses sharing
	// footage (or differing only in their project document) decode from
	// one buffer instead of N.
	videos map[blobstore.Hash][]byte
	dir    SnapshotDir

	checkpoints atomic.Int64 // sessions persisted by the periodic checkpointer
	// draining is set by DrainAll (node decommission): no new session may
	// be created or thawed here, so an in-flight request racing the drain
	// cannot resurrect a just-frozen session onto a node that is leaving.
	draining atomic.Bool

	// rooms indexes live broadcast hubs by room id (= driven session id).
	// roomsMu is a leaf lock: it is never held while taking a session or
	// room lock except in read-only sweeps (gauge scans, the janitor).
	roomsMu sync.Mutex
	rooms   map[string]*Room
	// Room fan-out counters (monotonic, cluster-mergeable).
	roomRenders   atomic.Int64
	roomDelivered atomic.Int64
	roomSkipped   atomic.Int64
	roomAnswers   atomic.Int64
	watcherJoins  atomic.Int64

	// mu guards the session map and the tombstones. It is held for a map
	// operation, never while a session lock is taken or an act runs, so
	// requests for different sessions meet here for tens of nanoseconds
	// (EXPERIMENTS.md E28: 32 stripes of it measured no faster).
	mu       sync.Mutex
	sessions map[string]*hosted
	// tombs indexes the leave tombstones by session; tombHead…tombTail
	// chains the same tombstones in the order they were saved, which is
	// their age order, so the cap and the janitor both drop from the head.
	tombs              map[string]*tombstone
	tombHead, tombTail *tombstone
	// tails rings the tombstones that were saved with a final tail;
	// tailNext is the oldest slot, the next to be overwritten (tailCap).
	tails    [tailCap]*tombstone
	tailNext int

	created atomic.Int64
	closed  atomic.Int64 // sessions released by a leave act
	evicted atomic.Int64 // sessions reclaimed by the janitor (or Close)
	frozen  atomic.Int64 // sessions snapshotted to the directory on release
	resumed atomic.Int64 // sessions thawed from a snapshot
	acts    atomic.Int64
	frames  atomic.Int64
	// liveCount mirrors the session map's size; a create reserves a slot
	// on it atomically so a create flood cannot overshoot MaxSessions
	// between a count and an insert.
	liveCount atomic.Int64

	handlerOnce sync.Once
	handler     http.Handler

	closeOnce      sync.Once
	stopJanitor    chan struct{}
	janitorDone    chan struct{}
	checkpointDone chan struct{}
}

// NewManager builds a manager and starts its eviction janitor.
func NewManager(o Options) *Manager {
	o.defaults()
	node := o.Node
	if node == "" {
		node = "play"
	}
	m := &Manager{
		opts:           o,
		reg:            obs.NewRegistry(""),
		actNs:          obs.NewHistogram(obs.LatencyBounds),
		frameNs:        obs.NewHistogram(obs.LatencyBounds),
		freezeNs:       obs.NewHistogram(obs.LatencyBounds),
		thawNs:         obs.NewHistogram(obs.LatencyBounds),
		restoreNs:      obs.NewHistogram(obs.LatencyBounds),
		fanoutNs:       obs.NewHistogram(obs.LatencyBounds),
		skipHist:       obs.NewHistogram(obs.CountBounds),
		ring:           obs.NewSpanRing(node, 0),
		rooms:          map[string]*Room{},
		courses:        map[string]*course{},
		videos:         map[blobstore.Hash][]byte{},
		dir:            o.Dir,
		sessions:       map[string]*hosted{},
		tombs:          map[string]*tombstone{},
		stopJanitor:    make(chan struct{}),
		janitorDone:    make(chan struct{}),
		checkpointDone: make(chan struct{}),
	}
	m.Register(m.reg)
	if o.TTL > 0 {
		go m.runJanitor(o.TTL)
	} else {
		close(m.janitorDone)
	}
	if o.CheckpointEvery > 0 {
		go m.runCheckpointer(o.CheckpointEvery)
	} else {
		close(m.checkpointDone)
	}
	return m
}

// runCheckpointer periodically persists active sessions (see Checkpoint).
func (m *Manager) runCheckpointer(every time.Duration) {
	defer close(m.checkpointDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Checkpoint()
		case <-m.stopJanitor:
			return
		}
	}
}

func (m *Manager) runJanitor(ttl time.Duration) {
	defer close(m.janitorDone)
	every := ttl / 4
	if every < time.Second {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.ExpireIdle(time.Now().Add(-ttl))
		case <-m.stopJanitor:
			return
		}
	}
}

// AddCourse publishes a package for hosting. The blob is verified and its
// video payload interned by content hash: all sessions on the course share
// one opened package read-only, courses sharing footage share one video
// buffer, and the caller's blob is not retained. Video buffers no longer
// referenced by any course — e.g. the previous footage of a just-replaced
// course — are released.
func (m *Manager) AddCourse(name string, pkgBlob []byte) error {
	if name == "" {
		return fmt.Errorf("playsvc: empty course name")
	}
	opened, err := gamepack.Open(pkgBlob)
	if err != nil {
		return fmt.Errorf("playsvc: course %s: %w", name, err)
	}
	key := blobstore.Sum(opened.Video)
	m.coursesMu.Lock()
	defer m.coursesMu.Unlock()
	interned, ok := m.videos[key]
	if !ok {
		interned = append([]byte(nil), opened.Video...)
	}
	// The package every session will share is built over the interned
	// buffer before anything derives from it: the probe's is the one parse
	// and checksum of this footage, and what it builds never points into
	// the caller's blob.
	pkg := &gamepack.Package{Project: opened.Project, Video: interned}
	// Probe one session so a package that cannot start (missing start
	// scenario, bad scripts) is rejected at publish time, not per create.
	probe, err := runtime.NewSessionFromPackage(pkg, runtime.Options{})
	if err != nil {
		return fmt.Errorf("playsvc: course %s: %w", name, err)
	}
	w, h, fps := probe.VideoMeta()
	m.videos[key] = interned
	m.courses[name] = &course{name: name, pkg: pkg, videoKey: key, w: w, h: h, fps: fps}
	used := map[blobstore.Hash]bool{}
	for _, c := range m.courses {
		used[c.videoKey] = true
	}
	for k := range m.videos {
		if !used[k] {
			delete(m.videos, k)
		}
	}
	return nil
}

// published resolves a published course by name (nil when absent).
func (m *Manager) published(name string) *course {
	m.coursesMu.RLock()
	defer m.coursesMu.RUnlock()
	return m.courses[name]
}

// Courses lists published course names (unordered).
func (m *Manager) Courses() []string {
	m.coursesMu.RLock()
	defer m.coursesMu.RUnlock()
	out := make([]string, 0, len(m.courses))
	for n := range m.courses {
		out = append(out, n)
	}
	return out
}

// lookup resolves a live session.
func (m *Manager) lookup(session string) (*hosted, error) {
	m.mu.Lock()
	h := m.sessions[session]
	m.mu.Unlock()
	if h == nil {
		return nil, errf(http.StatusNotFound, "playsvc: no session %q", session)
	}
	return h, nil
}

// snapshotSessions copies the live sessions out from under the map lock,
// for the sweeps that then lock each one.
func (m *Manager) snapshotSessions() []*hosted {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*hosted, 0, len(m.sessions))
	for _, h := range m.sessions {
		out = append(out, h)
	}
	return out
}

// Live counts hosted sessions (including slots reserved by in-flight
// creates).
func (m *Manager) Live() int { return int(m.liveCount.Load()) }

// LiveSessions lists the ids of the sessions this node currently hosts —
// an introspection hook for operators (and cluster tests) chasing where a
// session physically lives.
func (m *Manager) LiveSessions() []string {
	live := m.snapshotSessions()
	ids := make([]string, len(live))
	for i, h := range live {
		ids[i] = h.id
	}
	return ids
}

// mint opens a new hosted session on a published course and inserts it
// into the session map already locked, so no other request can act on it
// before the batch that created it has applied. When a concurrent request
// put the id in the map first, that session is returned instead, unlocked.
func (m *Manager) mint(id, courseName string) (h *hosted, locked bool, err error) {
	if m.draining.Load() {
		return nil, false, errf(http.StatusServiceUnavailable, "playsvc: node is draining")
	}
	c := m.published(courseName)
	if c == nil {
		return nil, false, errf(http.StatusNotFound, "playsvc: no course %q", courseName)
	}
	// Reserve the slot before building the session: concurrent creates
	// racing a nearly-full cap must not all pass a read-then-insert check.
	if n := m.liveCount.Add(1); m.opts.MaxSessions > 0 && n > int64(m.opts.MaxSessions) {
		m.liveCount.Add(-1)
		return nil, false, errf(http.StatusServiceUnavailable, "playsvc: session cap (%d) reached", m.opts.MaxSessions)
	}
	h = &hosted{id: id, course: c}
	h.touch()
	sess, err := runtime.NewSessionFromPackage(c.pkg, runtime.Options{Observer: h})
	if err != nil {
		m.liveCount.Add(-1)
		return nil, false, err
	}
	h.sess = sess
	// Locked before it is visible; the map lock is taken under a session
	// lock (as saveTomb does), never the other way round.
	h.mu.Lock()
	m.mu.Lock()
	if prev := m.sessions[id]; prev != nil {
		m.mu.Unlock()
		h.mu.Unlock()
		m.liveCount.Add(-1)
		return prev, false, nil
	}
	m.sessions[id] = h
	m.mu.Unlock()
	m.created.Add(1)
	return h, true, nil
}

// ack releases the event-log prefix the client acknowledges; h.mu must be
// held. Compaction happens HERE — on the next request's acknowledged
// seen-count — and never when a tail is merely serialized into a reply:
// a reply can die in transit, and the retried request must still find the
// events it carried. Every batch (create, resume, acts, leave) acks before
// doing anything else; reply() below is read-only.
func (h *hosted) ack(seenEvents int) {
	n := seenEvents - h.eventBase
	if n <= 0 {
		return
	}
	if n > len(h.events) {
		// Acknowledging more than exists (a client bug or a hostile
		// frame): release everything retained, never go negative.
		n = len(h.events)
	}
	h.events = append(h.events[:0], h.events[n:]...)
	h.eventBase += n
}

// reply assembles the client view: the tails, the state's tag and — when
// the client does not hold that state (heldTag) — the state's bytes, copied
// out of the session's encode buffer so the reply owns them. h.mu must be
// held.
func (h *hosted) reply(seenEvents, seenMessages int, heldTag uint64) *Reply {
	r := h.tail(seenEvents, seenMessages)
	b := h.enc.encode(h.sess.State())
	if r.StateTag = stateTag(b); r.StateTag != heldTag {
		r.state = append([]byte(nil), b...)
	}
	return r
}

// tail assembles a reply's event and message tails beyond the client's
// seen-counts, without the state snapshot. It does NOT compact the event
// log (see ack); serving a tail twice — a retried request whose seen-count
// is behind the retained base — is safe because replies are
// self-contained. h.mu must be held.
func (h *hosted) tail(seenEvents, seenMessages int) *Reply {
	r := &Reply{
		Session:      h.id,
		Tick:         h.sess.Ticks(),
		EventCount:   h.eventBase + len(h.events),
		MessageCount: h.sess.MessageCount(),
		Messages:     h.sess.MessagesFrom(seenMessages),
	}
	from := seenEvents - h.eventBase
	if from < 0 {
		// The client claims less than what it already acknowledged (a
		// retried or reset client); serve everything still retained.
		from = 0
	}
	if from < len(h.events) {
		r.Events = append([]runtime.Event(nil), h.events[from:]...)
	}
	if q, ok := h.sess.PendingQuiz(); ok {
		r.Quiz = q.ID
	}
	return r
}

// Act applies one interaction to a hosted session and returns the updated
// view: the JSON-shaped adapter over ActBatch. A leave, or a batch of one —
// either way the act is admitted, timed and traced in ActBatch, so JSON and
// framed acts are identical by construction.
func (m *Manager) Act(req *ActRequest) (*Reply, error) {
	out, err := m.ActBatch(req.batch())
	if err != nil {
		return nil, err
	}
	return out.single()
}

// batch wraps a JSON request as the batch every route hands to ActBatch:
// its create or resume, and its act unless Kind is empty.
func (a *ActRequest) batch() *BatchRequest {
	b := &BatchRequest{
		Session:      a.Session,
		Create:       a.Course,
		Room:         a.Room,
		Resume:       a.Resume,
		BaseSeq:      a.Seq,
		SeenEvents:   a.SeenEvents,
		SeenMessages: a.SeenMessages,
		Trace:        a.Trace,
	}
	if a.Kind != "" {
		b.Acts = []ActRequest{*a}
	}
	return b
}

// single folds a batch-of-one reply into the JSON shape: the act-level
// error becomes the call's error, the result bits become Correct/Took, and
// the state's bytes become State.
func (out *BatchReply) single() (*Reply, error) {
	if out.ActErr != nil {
		return nil, out.ActErr
	}
	r := out.Reply
	if r.State == nil && r.state != nil {
		st, err := decodeState(r.state)
		if err != nil {
			return nil, err
		}
		r.State = st
	}
	if len(out.Results) == 1 {
		res := out.Results[0]
		if res.HasCorrect {
			r.Correct = &res.Correct
		}
		if res.HasTook {
			r.Took = &res.Took
		}
	}
	return r, nil
}

// saveTomb records the reply to a batch that ended its session, for the
// retry window, dropping the oldest tombstone at the cap.
func (m *Manager) saveTomb(session string, seq int64, out *BatchReply) {
	r := out.Reply
	t := &tombstone{
		id: session, seq: seq,
		tick: int32(r.Tick), eventCount: int32(r.EventCount), messageCount: int32(r.MessageCount),
		acts: int32(len(out.Results)),
	}
	said := r.Quiz != "" || len(r.Events) > 0 || len(r.Messages) > 0
	for _, res := range out.Results {
		said = said || res.bits() != 0
	}
	if said {
		t.tail = &tombTail{frame: string(EncodeReplyFrame(out))}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.tombs[session]; old != nil {
		// The id has left before (only a client that reuses ids can do
		// this): the new view takes the old one's place in the chain, and
		// its age, so the chain and the index stay one to one.
		t.next, t.at = old.next, old.at
		*old = *t
		t = old
	} else {
		if len(m.tombs) >= tombCap {
			m.dropOldestTomb()
		}
		// Stamped under the lock, so chain order is age order.
		t.at = time.Now().UnixNano()
		if m.tombTail != nil {
			m.tombTail.next = t
		} else {
			m.tombHead = t
		}
		m.tombTail = t
		m.tombs[session] = t
	}
	if t.tail != nil {
		if old := m.tails[m.tailNext]; old != nil && old.tail != nil {
			old.tail = tailDropped
		}
		m.tails[m.tailNext] = t
		m.tailNext = (m.tailNext + 1) % tailCap
	}
}

// dropOldestTomb unchains and unindexes the oldest tombstone; m.mu must be
// held and the chain non-empty.
func (m *Manager) dropOldestTomb() {
	t := m.tombHead
	if m.tombHead = t.next; m.tombHead == nil {
		m.tombTail = nil
	}
	delete(m.tombs, t.id)
}

// takeTomb serves a tombstoned reply for a matching retried batch, or
// 410 when its final tail was dropped (tailCap). The tombstone stays
// (further retries of the same lost reply must see the same answer); the
// janitor prunes it.
func (m *Manager) takeTomb(session string, seq int64) (*BatchReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tombs[session]
	switch {
	case t == nil || t.seq != seq:
		return nil, nil
	case t.tail == tailDropped:
		return nil, errf(http.StatusGone, "playsvc: session %q has left and the final tail of its last batch is no longer kept", session)
	}
	return t.reply()
}

// ActBatch is the one act path: every route (the framed /play/actv2, the
// JSON /play/act adapter, in-process callers of Act) lands here,
// and only here are the act histogram and the "play.act" span
// recorded (a batch that is only a create records "play.create", only a
// resume "play.resume"). A batch's create or resume, acts and leave apply
// under one session-lock hold and share one coalesced reply. Session-level
// failures (gone, draining) surface as HTTP-level errors; an
// act-level error stops the batch and rides inside the reply (ActErr). A session this node does
// not host is thawed from the snapshot directory first, so eviction and
// cluster handoff are invisible to the client.
func (m *Manager) ActBatch(req *BatchRequest) (*BatchReply, error) {
	t0 := time.Now()
	out, err := m.actBatch(req)
	m.actNs.ObserveSince(t0)
	span := "play.act"
	if len(req.Acts) == 0 {
		span = "play.create"
		if req.Resume {
			span = "play.resume"
		}
	}
	m.ring.Record(req.Trace, span, t0, err)
	return out, err
}

// actBatch resolves the batch's session — live here, or by the ladder in
// actAbsent — and applies the batch to it.
func (m *Manager) actBatch(req *BatchRequest) (*BatchReply, error) {
	switch {
	case req.Session == "":
		return nil, errf(http.StatusBadRequest, "playsvc: batch names no session")
	case req.Create != "" && req.Resume:
		return nil, errf(http.StatusBadRequest, "playsvc: a batch may create or resume its session, not both")
	case req.Room && req.Create == "":
		return nil, errf(http.StatusBadRequest, "playsvc: a room opens with its session's create")
	case len(req.Acts) == 0 && req.Create == "" && !req.Resume:
		return nil, errf(http.StatusBadRequest, "playsvc: empty act batch")
	}
	if len(req.Acts) > maxFrameActs {
		return nil, errf(http.StatusBadRequest, "playsvc: %d acts exceeds the per-batch bound (%d)", len(req.Acts), maxFrameActs)
	}
	for i := 0; i < len(req.Acts)-1; i++ {
		if req.Acts[i].Kind == ActLeave {
			return nil, errf(http.StatusBadRequest, "playsvc: a leave must be a batch's last act")
		}
	}
	h, err := m.lookup(req.Session)
	if err != nil {
		return m.actAbsent(req)
	}
	h.touch()
	h.mu.Lock()
	defer h.mu.Unlock()
	return m.applyLocked(h, req)
}

// actAbsent serves a batch for a session this node does not host. The
// ladder, in order: a retried batch that ended the session is served its
// tombstoned reply; an entry in the snapshot directory thaws (a released
// snapshot may hold an event tail no reply ever delivered, and a leave
// hands it to the client with the final view instead of deleting it
// unseen; a checkpoint entry means the session still exists — typically
// live on the node that owned it before a ring move — so it answers 404,
// and the gateway's rescue freezes that copy and the retry lands where the
// session really is — unless the batch is a resume, whose client asserts
// the session's node is gone, so the checkpoint thaws too; a gateway
// sweeps live copies off the other nodes before it relays a resume); a
// create mints the session; a sequenced leave is a retry of one that
// already applied, and is confirmed instead of sending the client into a
// rescue spiral for a session that is correctly gone. Anything else has no
// directory entry, so no node holds it: an Unknown 404, with no thaw tried.
func (m *Manager) actAbsent(req *BatchRequest) (*BatchReply, error) {
	leaves := req.leaves()
	if leaves && req.BaseSeq > 0 {
		out, err := m.takeTomb(req.Session, req.BaseSeq)
		if err != nil {
			return nil, err
		}
		if out != nil {
			if c := m.published(req.Create); c != nil {
				c.describe(out.Reply)
			}
			return out, nil
		}
	}
	_, held := m.dir.Lookup(req.Session)
	switch {
	case held:
		h, err := m.thaw(req.Trace, req.Session, req.Resume)
		if err != nil {
			return nil, err
		}
		h.touch()
		h.mu.Lock()
		defer h.mu.Unlock()
		return m.applyLocked(h, req)
	case req.Create != "":
		h, minted, err := m.mint(req.Session, req.Create)
		if err != nil {
			return nil, err
		}
		if !minted {
			h.touch()
			h.mu.Lock()
		} else {
			// Checkpoint the newborn session before the client learns its
			// id: a node crash right after this reply would otherwise
			// strand a session the client holds a confirmed id for but no
			// snapshot exists of — the one loss the chaos soak's "zero
			// lost sessions" bound forbids. The entry is also what keeps
			// a retried create off a new owner after a ring move.
			m.dir.Save(h.id, SnapshotRef{Envelope: h.envelopeLocked(), Checkpoint: true})
			if len(req.Acts) == 0 {
				// Clean until its next request; acts after the newborn
				// state leave it for the periodic checkpointer.
				h.checkpointed.Store(h.lastSeen.Load())
			}
		}
		defer h.mu.Unlock()
		return m.applyLocked(h, req)
	case leaves && req.BaseSeq > 0:
		return &BatchReply{Reply: &Reply{Session: req.Session}}, nil
	}
	return nil, errUnknown(req.Session)
}

// applyLocked applies a batch to a held session: its room first, then ack,
// dedup on (BaseSeq, len), the acts in order and, when they all applied,
// the leave. A batch that carries a create or a resume is answered with
// the course metadata too, and a resume's reply is marked Resumed. h.mu
// must be held.
func (m *Manager) applyLocked(h *hosted, req *BatchRequest) (*BatchReply, error) {
	m.acts.Add(int64(len(req.Acts)))
	if h.gone {
		// Frozen or released between lookup and lock; the caller retries
		// and lands in the thaw path.
		return nil, errf(http.StatusNotFound, "playsvc: no session %q", req.Session)
	}
	if req.Create != "" && req.Create != h.course.name {
		return nil, errf(http.StatusConflict, "playsvc: session %q already exists", req.Session)
	}
	if req.Room {
		m.openRoomLocked(h)
	}
	// The request's seen-counts acknowledge the previous reply; compact
	// BEFORE applying (or rebuilding) anything, so the served tail always
	// starts at the client's truth.
	h.ack(req.SeenEvents)
	var out *BatchReply
	if req.BaseSeq != 0 && req.BaseSeq == h.lastBase && len(req.Acts) == h.lastLen {
		// Retry of an already-applied batch (its reply was lost): rebuild
		// the reply from live state and the stored result bits instead of
		// double-applying. The unacked tail is still retained, so the
		// rebuilt reply carries everything the lost one did. (A batch whose
		// leave applied is answered from its tombstone instead.)
		out = h.batchReplyLocked(req, h.lastBits, h.lastErr)
	} else {
		out = m.runLocked(h, req)
	}
	if req.Create != "" || req.Resume {
		h.course.describe(out.Reply)
		out.Reply.Resumed = req.Resume
	}
	return out, nil
}

// runLocked runs a batch's acts and then, when they all applied, its
// leave; h.mu must be held.
func (m *Manager) runLocked(h *hosted, req *BatchRequest) *BatchReply {
	acts := req.Acts
	leaves := req.leaves()
	if leaves {
		acts = acts[:len(acts)-1]
	}
	bits := make([]byte, 0, len(req.Acts))
	var actErr *Error
	for i := range acts {
		b, aerr := m.applyOne(h, &acts[i])
		if aerr != nil {
			actErr = aerr
			break
		}
		bits = append(bits, b)
	}
	// Broadcast after applying, before the reply: one render per
	// state-changing batch, no matter how many watchers subscribe. The
	// dedup-retry path returns without re-applying and without
	// re-publishing, so the render count tracks real state changes exactly.
	if h.room != nil && len(acts) > 0 && (len(bits) > 0 || actErr == nil) {
		h.room.publish()
	}
	if leaves && actErr == nil {
		return m.leaveLocked(h, req, append(bits, 0))
	}
	if req.BaseSeq != 0 {
		h.lastBase, h.lastLen, h.lastErr = req.BaseSeq, len(req.Acts), actErr
		h.lastBits = append(h.lastBits[:0], bits...)
	}
	return h.batchReplyLocked(req, bits, actErr)
}

// leaveLocked releases a held session once its batch's acts have applied
// and answers with the final view: the results and the tails, no state — a
// leave changes none, and the client holds the state its last act reply
// carried (on a thin client, encoding/json over a State cost the leave
// more than a whole framed act). A sequenced batch tombstones that reply,
// so a retry whose reply was lost is served the same final tail. h.mu must
// be held.
func (m *Manager) leaveLocked(h *hosted, req *BatchRequest, bits []byte) *BatchReply {
	h.gone = true
	m.mu.Lock()
	if m.sessions[h.id] == h {
		delete(m.sessions, h.id)
	}
	m.mu.Unlock()
	m.closed.Add(1)
	m.liveCount.Add(-1)
	m.closeRoomLocked(h)
	// A left session must not resurrect from an old snapshot, and its one
	// directory entry is everything it ever saved. Under h.mu, like every
	// directory write for a held session.
	m.dir.Delete(h.id)
	out := &BatchReply{Reply: h.tail(req.SeenEvents, req.SeenMessages), Results: make([]ActResult, len(bits))}
	for i, b := range bits {
		out.Results[i] = resultFromBits(b)
	}
	if req.BaseSeq > 0 {
		m.saveTomb(h.id, req.BaseSeq, out)
	}
	return out
}

// describe fills a reply's course metadata.
func (c *course) describe(r *Reply) {
	r.Course = c.name
	r.Width, r.Height, r.FPS = c.w, c.h, c.fps
}

// batchReplyLocked assembles the coalesced reply to req; h.mu must be held.
func (h *hosted) batchReplyLocked(req *BatchRequest, bits []byte, actErr *Error) *BatchReply {
	out := &BatchReply{Reply: h.reply(req.SeenEvents, req.SeenMessages, req.StateTag), ActErr: actErr}
	if len(bits) > 0 {
		out.Results = make([]ActResult, len(bits))
		for i, b := range bits {
			out.Results[i] = resultFromBits(b)
		}
	}
	return out
}

// applyOne applies one non-leave act to a locked session, returning its
// result bits or the act-level error that refused it.
func (m *Manager) applyOne(h *hosted, a *ActRequest) (byte, *Error) {
	switch a.Kind {
	case ActClick:
		h.sess.Click(a.X, a.Y)
	case ActExamine:
		h.sess.Examine(a.Object)
	case ActTalk:
		h.sess.Talk(a.Object)
	case ActTake:
		bits := byte(resHasTook)
		if h.sess.Take(a.Object) {
			bits |= resTook
		}
		return bits, nil
	case ActUse:
		h.sess.UseItemOn(a.Item, a.Object)
	case ActSelect:
		if err := h.sess.SelectItem(a.Item); err != nil {
			return 0, errf(http.StatusBadRequest, "%v", err)
		}
	case ActClear:
		h.sess.ClearSelection()
	case ActQuiz:
		ok, err := h.sess.AnswerQuiz(a.Quiz, a.Choice)
		if err != nil {
			return 0, errf(http.StatusBadRequest, "%v", err)
		}
		bits := byte(resHasCorrect)
		if ok {
			bits |= resCorrect
		}
		return bits, nil
	case ActGoto:
		if err := h.sess.GotoScenario(a.Object); err != nil {
			return 0, errf(http.StatusBadRequest, "%v", err)
		}
	case ActTick:
		n := a.Ticks
		if n <= 0 {
			n = 1
		}
		if n > maxTicks {
			return 0, errf(http.StatusBadRequest, "playsvc: %d ticks exceeds the per-act bound (%d)", n, maxTicks)
		}
		if err := h.sess.Advance(n); err != nil {
			return 0, errf(http.StatusInternalServerError, "%v", err)
		}
	default:
		return 0, errf(http.StatusBadRequest, "playsvc: unknown action kind %q", a.Kind)
	}
	return 0, nil
}

// WithFrame advances the session's playback and renders its presentation
// frame into a pooled buffer, passing it to fn under the
// session lock — the frame must not be retained past fn. This is the
// service's allocation-free frame path: advance + DecodeInto +
// cached-sprite composition allocate nothing in steady state.
func (m *Manager) WithFrame(session string, advance int, fn func(f *raster.Frame, tick int) error) error {
	return m.withFrame(obs.TraceContext{}, session, advance, fn)
}

func (m *Manager) withFrame(tc obs.TraceContext, session string, advance int, fn func(f *raster.Frame, tick int) error) error {
	t0 := time.Now()
	err := m.withFrameInner(tc, session, advance, fn)
	m.frameNs.ObserveSince(t0)
	m.ring.Record(tc, "play.frame", t0, err)
	return err
}

func (m *Manager) withFrameInner(tc obs.TraceContext, session string, advance int, fn func(f *raster.Frame, tick int) error) error {
	// Refused first: a request that does nothing thaws, counts, touches nothing.
	if advance > maxTicks {
		return errf(http.StatusBadRequest, "playsvc: advance %d exceeds the per-act bound (%d)", advance, maxTicks)
	}
	h, err := m.lookupOrThaw(tc, session)
	if err != nil {
		return err
	}
	m.frames.Add(1)
	h.touch()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gone {
		return errf(http.StatusNotFound, "playsvc: no session %q", session)
	}
	if advance > 0 {
		if err := h.sess.Advance(advance); err != nil {
			return err
		}
	}
	f := renderBufs.Get().(*raster.Frame)
	defer renderBufs.Put(f)
	if err := h.sess.FrameInto(f); err != nil {
		return err
	}
	// A driver pulling frames with ?advance also moves the shared session;
	// watchers see that through the same once-per-change publication.
	if advance > 0 && h.room != nil {
		h.room.publish()
	}
	return fn(f, h.sess.Ticks())
}

// renderBufs lends the frame path its render buffers: a request holds one
// only while it runs, so a live session keeps none between frames.
var renderBufs = sync.Pool{New: func() any { return new(raster.Frame) }}

// ExpireIdle freezes every session idle since before the cutoff and
// reports how many it reclaimed: the session's progress survives in the
// directory and its next request (or an explicit resume) thaws it. The
// janitor calls this with now-TTL; tests call it directly.
func (m *Manager) ExpireIdle(cutoff time.Time) int {
	n := 0
	cut := cutoff.UnixNano()
	var victims []*hosted
	m.mu.Lock()
	for _, h := range m.sessions {
		if h.lastSeen.Load() < cut {
			victims = append(victims, h)
		}
	}
	// Leave tombstones age out on the same TTL: past it, a retried leave is
	// answered by the no-host fallback (empty confirmation).
	for m.tombHead != nil && m.tombHead.at < cut {
		m.dropOldestTomb()
	}
	m.mu.Unlock()
	for _, h := range victims {
		if m.freezeOut(h) {
			m.evicted.Add(1)
			n++
		}
	}
	// Rooms ride the same sweep: watchers that stopped polling without a
	// leave are pruned, and hubs whose driven session is gone are dropped.
	for _, r := range m.roomList() {
		r.pruneWatchers(cut)
		if r.isClosed() {
			m.dropRoom(r.id)
		}
	}
	return n
}

// Close stops the background goroutines and releases every remaining
// session gracefully: live sessions are frozen (via ExpireIdle), so a
// restart over the same directory resumes them.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stopJanitor)
		<-m.janitorDone
		<-m.checkpointDone
		m.ExpireIdle(time.Now().Add(24 * time.Hour))
	})
}

// Halt releases everything WITHOUT snapshotting — the crash simulation.
// Sessions keep only whatever the last periodic checkpoint persisted,
// which is exactly the loss bound -checkpoint-every promises. Tests and
// the churn experiment use it; production code wants Close.
func (m *Manager) Halt() {
	m.closeOnce.Do(func() {
		close(m.stopJanitor)
		<-m.janitorDone
		<-m.checkpointDone
		for _, h := range m.snapshotSessions() {
			if m.evictOut(h) {
				m.evicted.Add(1)
			}
		}
	})
}

// Ring exposes the manager's span ring (mounted at /debug/traces).
func (m *Manager) Ring() *obs.SpanRing { return m.ring }

// Register exposes the manager's counters and histograms on a metrics
// registry, and is the one place their families are named: NewManager
// runs it on the manager's own registry (so a Manager nobody wired still
// reports), callers on the registry behind /metrics. The *_total families
// are monotonic counters; the rest are gauges.
func (m *Manager) Register(reg *obs.Registry) {
	// videos reads the interned video buffers; frameCaches sweeps the
	// published packages' decoded-frame caches once, keeping the one field
	// pick names.
	videos := func(read func(v []byte) int64) func() int64 {
		return func() (n int64) {
			m.coursesMu.RLock()
			defer m.coursesMu.RUnlock()
			for _, v := range m.videos {
				n += read(v)
			}
			return n
		}
	}
	frameCaches := func(pick func(hits, misses, evictions, frames, bytes int64) int64) func() int64 {
		return func() (n int64) {
			m.coursesMu.RLock()
			defer m.coursesMu.RUnlock()
			for _, c := range m.courses {
				n += pick(c.pkg.Frames().Stats())
			}
			return n
		}
	}
	openRooms := func(read func(r *Room) int64) func() int64 {
		return func() (n int64) {
			for _, r := range m.roomList() {
				if !r.isClosed() {
					n += read(r)
				}
			}
			return n
		}
	}
	reg.GaugeFunc("playsvc_sessions_live", "hosted sessions right now", m.liveCount.Load)
	reg.CounterFunc("playsvc_sessions_created_total", "sessions opened", m.created.Load)
	reg.CounterFunc("playsvc_sessions_closed_total", "sessions released by a leave act", m.closed.Load)
	reg.CounterFunc("playsvc_sessions_evicted_total", "sessions reclaimed by the janitor", m.evicted.Load)
	reg.CounterFunc("playsvc_sessions_frozen_total", "sessions snapshotted on release", m.frozen.Load)
	reg.CounterFunc("playsvc_sessions_resumed_total", "sessions thawed from a snapshot", m.resumed.Load)
	reg.CounterFunc("playsvc_acts_total", "interactions applied", m.acts.Load)
	reg.CounterFunc("playsvc_frames_total", "frames rendered", m.frames.Load)
	reg.CounterFunc("playsvc_checkpoints_total", "periodic checkpoint persists", m.checkpoints.Load)
	reg.GaugeFunc("playsvc_video_buffers", "distinct video payloads resident (shared across courses)", videos(func([]byte) int64 { return 1 }))
	reg.GaugeFunc("playsvc_video_bytes", "resident video payload bytes", videos(func(v []byte) int64 { return int64(len(v)) }))
	reg.GaugeFunc("playsvc_rooms", "live broadcast rooms", openRooms(func(*Room) int64 { return 1 }))
	reg.GaugeFunc("playsvc_watchers", "room subscriptions right now", openRooms(func(r *Room) int64 { return int64(r.watcherCount()) }))
	reg.CounterFunc("playsvc_watcher_joins_total", "room subscriptions opened", m.watcherJoins.Load)
	reg.CounterFunc("playsvc_room_renders_total", "room publications (one render each)", m.roomRenders.Load)
	reg.CounterFunc("playsvc_room_frames_delivered_total", "fan-out frames handed to watchers", m.roomDelivered.Load)
	reg.CounterFunc("playsvc_room_frames_skipped_total", "fan-out frames dropped for slow watchers", m.roomSkipped.Load)
	reg.CounterFunc("playsvc_room_answers_total", "cohort quiz answers recorded", m.roomAnswers.Load)
	reg.CounterFunc("playsvc_framecache_hits_total", "decoded-frame cache hits", frameCaches(func(h, _, _, _, _ int64) int64 { return h }))
	reg.CounterFunc("playsvc_framecache_misses_total", "decoded-frame cache misses", frameCaches(func(_, mi, _, _, _ int64) int64 { return mi }))
	reg.CounterFunc("playsvc_framecache_evictions_total", "decoded frames evicted by the byte budget", frameCaches(func(_, _, e, _, _ int64) int64 { return e }))
	reg.GaugeFunc("playsvc_framecache_bytes", "decoded pixels resident in the courses' frame caches", frameCaches(func(_, _, _, _, b int64) int64 { return b }))
	reg.RegisterHistogram("playsvc_act_seconds", "act request latency", "seconds", m.actNs)
	reg.RegisterHistogram("playsvc_frame_seconds", "frame request latency", "seconds", m.frameNs)
	reg.RegisterHistogram("playsvc_freeze_seconds", "session freeze duration", "seconds", m.freezeNs)
	reg.RegisterHistogram("playsvc_thaw_seconds", "session thaw duration (restore included)", "seconds", m.thawNs)
	reg.RegisterHistogram("playsvc_restore_seconds", "runtime snapshot restore duration", "seconds", m.restoreNs)
	reg.RegisterHistogram("playsvc_fanout_seconds", "room publish-to-delivery latency", "seconds", m.fanoutNs)
	reg.RegisterHistogram("playsvc_fanout_skipped", "frames bypassed per fan-out delivery", "frames", m.skipHist)
}

// Snapshot reads the manager's scalars: its registry's flat view
// (obs.Registry.Flat), which /play/stats serves beside the course
// list and a cluster gateway sums key by key.
func (m *Manager) Snapshot() map[string]int64 { return m.reg.Flat("playsvc") }
