// Durable hosted sessions: freeze, thaw and checkpoint.
//
// A hosted session is frozen into ONE record, its envelope: the session id,
// its course, the unacknowledged event tail and batch-dedup state a client
// retry may still need, and — nested whole — the runtime snapshot
// (runtime.Session.Snapshot). The envelope lives in ONE place, the
// SnapshotDir entry under the session's id: a save overwrites it and a leave
// deletes it, so nothing a session ever saved can outlive it and there is
// nothing to sweep. The manager holds no chunk store: courses arrive as
// package blobs (AddCourse).
//
// Thawing is the reverse and is wired into session lookup: an act, state
// or frame request for a session this manager does not host falls through
// to the directory, restores the snapshot, and proceeds — TTL eviction and
// node handoff are invisible to a well-behaved client.
package playsvc

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tagrec"
)

// SnapshotRef is one directory entry: a session's latest envelope, and
// whether it is a released state or crash insurance.
type SnapshotRef struct {
	// Envelope is the encoded envelope. Immutable by contract: a directory
	// hands the same slice to every Lookup, and a thawed session decodes
	// out of it.
	Envelope []byte
	// Checkpoint marks a periodic-checkpoint entry: the session was still
	// live on its node when this was persisted, so the snapshot may lag
	// the truth. A released entry (freeze/drain/handoff/eviction) is the
	// exact final state and is always safe to thaw; a checkpoint entry
	// must only be thawed once the owning node is known to be gone (the
	// gateway's recover step), or the stale copy would fork the session.
	Checkpoint bool
}

// SnapshotDir maps live session ids to their latest envelope. Every node
// of a cluster shares one directory: it is the whole coordination surface
// session handoff needs. Implementations must be safe for concurrent use,
// and Lookup must return an entry's bytes and flag as one Save wrote them.
type SnapshotDir interface {
	Save(session string, ref SnapshotRef)
	Lookup(session string) (SnapshotRef, bool)
	Delete(session string)
}

// MemDir is the in-process SnapshotDir: a mutex-guarded map. It backs
// single-node durability (TTL eviction → resume) and in-process clusters;
// a multi-host deployment would implement SnapshotDir over its own
// metadata service.
type MemDir struct {
	mu sync.RWMutex
	m  map[string]SnapshotRef
}

// NewMemDir returns an empty directory.
func NewMemDir() *MemDir { return &MemDir{m: map[string]SnapshotRef{}} }

// Save implements SnapshotDir.
func (d *MemDir) Save(session string, ref SnapshotRef) {
	d.mu.Lock()
	d.m[session] = ref
	d.mu.Unlock()
}

// Lookup implements SnapshotDir.
func (d *MemDir) Lookup(session string) (SnapshotRef, bool) {
	d.mu.RLock()
	ref, ok := d.m[session]
	d.mu.RUnlock()
	return ref, ok
}

// Delete implements SnapshotDir.
func (d *MemDir) Delete(session string) {
	d.mu.Lock()
	delete(d.m, session)
	d.mu.Unlock()
}

// Len reports how many sessions currently have a snapshot on file.
func (d *MemDir) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m)
}

// envelope is the play-service wrapper around a runtime snapshot.
type envelope struct {
	Session   string
	Course    string
	EventBase int
	Events    []runtime.Event
	Snapshot  []byte // the runtime snapshot (a VSNP container), nested whole
	// Batch-dedup state: a thawed session must keep recognizing a retry of
	// the last applied batch, or a freeze between the apply and the retry
	// would turn a lost reply into a double-apply.
	LastBase int64
	LastLen  int
	LastBits []byte
	LastErr  *Error
}

// Envelope wire format: a tagrec container whose event and act-error
// records are the reply frame's (frame.go). An envelope never outlives the
// process that wrote it — the directory is in memory — so only the current
// version decodes.
const (
	envMagic   = "VSNE"
	envVersion = 3

	envTagSession   = 1
	envTagCourse    = 2
	envTagEventBase = 3
	envTagEvent     = 4 // repeated, one per retained event, log order
	envTagSnapshot  = 5 // the runtime snapshot's bytes
	envTagLastBase  = 6 // uvarint BaseSeq of the last applied batch
	envTagLastLen   = 7 // uvarint act count of that batch
	envTagLastBits  = 8 // raw result bits of the applied prefix
	envTagLastErr   = 9 // the act error that stopped it

	maxEnvelopeField = 16 << 20
)

func (e *envelope) encode() []byte {
	b := tagrec.Begin(make([]byte, 0, 128+len(e.Snapshot)), envMagic, envVersion)
	b = tagrec.Append(b, envTagSession, e.Session)
	b = tagrec.Append(b, envTagCourse, e.Course)
	b = tagrec.AppendUint(b, envTagEventBase, uint64(e.EventBase))
	for i := range e.Events {
		b = runtime.AppendEvent(b, envTagEvent, &e.Events[i])
	}
	b = tagrec.Append(b, envTagSnapshot, e.Snapshot)
	if e.LastBase != 0 {
		b = tagrec.AppendUint(b, envTagLastBase, uint64(e.LastBase))
		b = tagrec.AppendUint(b, envTagLastLen, uint64(e.LastLen))
		if len(e.LastBits) > 0 {
			b = tagrec.Append(b, envTagLastBits, e.LastBits)
		}
		if e.LastErr != nil {
			b = appendActError(b, envTagLastErr, e.LastErr)
		}
	}
	return tagrec.Finish(b, 0)
}

func envBadf(format string, args ...any) error {
	return fmt.Errorf("%w: envelope: %s", runtime.ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// decodeEnvelope parses envelope bytes; every rejection wraps
// runtime.ErrBadSnapshot. The decoded Snapshot aliases data.
func decodeEnvelope(data []byte) (*envelope, error) {
	e := &envelope{}
	var hasSession, hasCourse bool
	sc := tagrec.Open(data, envMagic, envVersion, envVersion, maxEnvelopeField)
	for sc.Next() {
		payload := sc.Payload
		var v uint64
		var err error
		switch sc.Tag {
		case envTagSession:
			e.Session, hasSession = string(payload), true
		case envTagCourse:
			e.Course, hasCourse = string(payload), true
		case envTagEventBase:
			v, err = tagrec.Uint(payload, math.MaxInt32)
			e.EventBase = int(v)
		case envTagEvent:
			var ev runtime.Event
			ev, err = runtime.ReadEvent(payload)
			e.Events = append(e.Events, ev)
		case envTagSnapshot:
			e.Snapshot = payload
		case envTagLastBase:
			v, err = tagrec.Uint(payload, math.MaxInt64)
			e.LastBase = int64(v)
		case envTagLastLen:
			v, err = tagrec.Uint(payload, maxFrameActs)
			e.LastLen = int(v)
		case envTagLastBits:
			if len(payload) > maxFrameActs {
				return nil, envBadf("last batch bits claim %d acts", len(payload))
			}
			// Copied: the live session appends to it in place.
			e.LastBits = append([]byte(nil), payload...)
		case envTagLastErr:
			e.LastErr, err = readActError(payload)
		default:
			// Additive extension from a newer writer; skip.
		}
		if err != nil {
			return nil, envBadf("record %d: %v", sc.Tag, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, envBadf("%v", err)
	}
	if !hasSession || !hasCourse || e.Snapshot == nil {
		return nil, envBadf("missing required fields")
	}
	return e, nil
}

// freezeOut freezes one live session: publish the released directory
// entry, mark gone, close its room, and only THEN remove it from the
// session map. The ordering is load-bearing: at every instant the session
// is either live in the map or has a released snapshot on file, so a
// concurrent request (or a gateway rescue) can never observe a gap and
// fall back to a stale checkpoint. removed reports whether this call did
// the removal (false when another path — leave, another freeze — released
// the session first).
func (m *Manager) freezeOut(h *hosted) (removed bool) {
	t0 := time.Now()
	h.mu.Lock()
	if h.gone {
		h.mu.Unlock()
		return false
	}
	m.dir.Save(h.id, SnapshotRef{Envelope: h.envelopeLocked()})
	h.gone = true
	m.closeRoomLocked(h)
	h.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, h.id)
	m.mu.Unlock()
	m.liveCount.Add(-1)
	m.frozen.Add(1)
	m.freezeNs.ObserveSince(t0)
	return true
}

// evictOut discards one live session without snapshotting — the crash
// (Halt). Same map ordering as freezeOut.
func (m *Manager) evictOut(h *hosted) (removed bool) {
	h.mu.Lock()
	if h.gone {
		h.mu.Unlock()
		return false
	}
	h.gone = true
	m.closeRoomLocked(h)
	h.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, h.id)
	m.mu.Unlock()
	m.liveCount.Add(-1)
	return true
}

// envelopeLocked encodes h's current state — runtime snapshot, retained
// tail, dedup state — as the envelope a directory entry holds; h.mu must be
// held.
func (h *hosted) envelopeLocked() []byte {
	return (&envelope{
		Session:   h.id,
		Course:    h.course.name,
		EventBase: h.eventBase,
		Events:    h.events,
		Snapshot:  h.sess.Snapshot(),
		LastBase:  h.lastBase,
		LastLen:   h.lastLen,
		LastBits:  h.lastBits,
		LastErr:   h.lastErr,
	}).encode()
}

// Freeze snapshots one live session into the shared directory and releases
// it — the handoff primitive a cluster gateway calls on the old owner before
// the new owner restores. Freezing an already-frozen session is a no-op;
// a session this node neither hosts nor has a snapshot for is an error.
func (m *Manager) Freeze(session string) error {
	h, err := m.lookup(session)
	if err != nil {
		// Only a RELEASED entry means "already frozen"; a checkpoint entry
		// is stale insurance for a session this node does not hold.
		if ref, ok := m.dir.Lookup(session); ok && !ref.Checkpoint {
			return nil
		}
		return err
	}
	m.freezeOut(h)
	return nil
}

// DrainAll freezes every hosted session (graceful shutdown / node
// removal) and reports how many it processed. Draining is one-way: the
// node stops creating and thawing sessions, so a request racing the drain
// cannot strand a fresh session on a node that is about to disappear.
func (m *Manager) DrainAll() int {
	m.draining.Store(true)
	n := 0
	for _, h := range m.snapshotSessions() {
		if m.freezeOut(h) {
			n++
		}
	}
	return n
}

// Checkpoint snapshots every session with activity since its last
// checkpoint, bounding what a crash can lose to one checkpoint interval.
// Sessions are persisted without being released: each save overwrites the
// session's one directory entry. Returns how many sessions were persisted.
func (m *Manager) Checkpoint() int {
	n := 0
	for _, h := range m.snapshotSessions() {
		seen := h.lastSeen.Load()
		if seen <= h.checkpointed.Load() {
			continue // idle since the last checkpoint
		}
		h.mu.Lock()
		if h.gone {
			h.mu.Unlock()
			continue
		}
		// Under h.mu, like every dir write for a held session: a concurrent
		// leave (which deletes the entry under the same lock) must not be
		// overwritten by a checkpoint of the state it just retired.
		m.dir.Save(h.id, SnapshotRef{Envelope: h.envelopeLocked(), Checkpoint: true})
		h.checkpointed.Store(seen)
		h.mu.Unlock()
		n++
	}
	m.checkpoints.Add(int64(n))
	return n
}

// thaw restores a frozen session from the shared directory, inserts it into
// the session map and returns it — the lookup fallback that makes eviction
// and handoff invisible. Checkpoint entries are refused unless
// allowCheckpoint is set: a checkpoint means the session may still be
// live on another node, and thawing it would fork the session and roll
// its progress back; the gateway first rescues the live copy and only
// recovers from a checkpoint once no node has it. Concurrent thaws of one
// session race benignly: the first insert wins and the loser's restore is
// discarded. A valid tc records the restore as a "play.thaw" child span,
// so a handed-off act shows its thaw cost under the same trace id.
func (m *Manager) thaw(tc obs.TraceContext, session string, allowCheckpoint bool) (h *hosted, err error) {
	defer func(t0 time.Time) {
		if err == nil {
			m.thawNs.ObserveSince(t0)
		}
		m.ring.Record(tc.Child(), "play.thaw", t0, err)
	}(time.Now())
	if m.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, "playsvc: node is draining")
	}
	ref, ok := m.dir.Lookup(session)
	if !ok || (ref.Checkpoint && !allowCheckpoint) {
		return nil, errf(http.StatusNotFound, "playsvc: no session %q", session)
	}
	env, err := decodeEnvelope(ref.Envelope)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "playsvc: session %q: %v", session, err)
	}
	if env.Session != session {
		return nil, errf(http.StatusInternalServerError, "playsvc: envelope names session %q, wanted %q", env.Session, session)
	}
	c := m.published(env.Course)
	if c == nil {
		return nil, errf(http.StatusNotFound, "playsvc: session %q course %q is no longer published", session, env.Course)
	}
	// Thawing re-occupies a live slot; the cap applies exactly as on create.
	if n := m.liveCount.Add(1); m.opts.MaxSessions > 0 && n > int64(m.opts.MaxSessions) {
		m.liveCount.Add(-1)
		return nil, errf(http.StatusServiceUnavailable, "playsvc: session cap (%d) reached", m.opts.MaxSessions)
	}
	h = &hosted{
		id: session, course: c,
		events: env.Events, eventBase: env.EventBase,
		lastBase: env.LastBase, lastLen: env.LastLen,
		lastBits: env.LastBits, lastErr: env.LastErr,
	}
	h.touch()
	restoreStart := time.Now()
	sess, err := runtime.RestoreSessionFromPackage(c.pkg, env.Snapshot, runtime.Options{Observer: h})
	if err != nil {
		m.liveCount.Add(-1)
		return nil, errf(http.StatusInternalServerError, "playsvc: restore %q: %v", session, err)
	}
	m.restoreNs.ObserveSince(restoreStart)
	h.sess = sess
	h.checkpointed.Store(h.lastSeen.Load())
	// The released entry is about to be consumed: this node now owns the
	// live truth, and the entry degrades to crash insurance. Leaving it
	// marked released would let a later ring change thaw the stale bytes
	// into a second live copy. The downgrade happens BEFORE the session
	// becomes visible in the session map: once it is held, every directory
	// write for it happens under h.mu (freeze, checkpoint, leave-delete),
	// and a late write here could clobber a concurrent leave's delete.
	m.dir.Save(session, SnapshotRef{Envelope: ref.Envelope, Checkpoint: true})
	m.mu.Lock()
	if cur := m.sessions[session]; cur != nil {
		m.mu.Unlock()
		m.liveCount.Add(-1)
		return cur, nil
	}
	m.sessions[session] = h
	m.mu.Unlock()
	m.resumed.Add(1)
	return h, nil
}

// lookupOrThaw resolves a session, restoring it from the snapshot
// directory when it is not live on this node. Only released snapshots
// thaw implicitly; checkpoint entries need Recover.
func (m *Manager) lookupOrThaw(tc obs.TraceContext, session string) (*hosted, error) {
	if h, err := m.lookup(session); err == nil {
		return h, nil
	}
	return m.thaw(tc, session, false)
}

// Recover thaws a session even from a checkpoint entry — the crash path.
// The caller (a cluster gateway, or an operator on a single node) asserts
// that no node still hosts the live session; what the last checkpoint
// captured is all that is left of it. Recovering an already-live or
// released session degrades to the normal lookup.
func (m *Manager) Recover(session string) error {
	h, err := m.lookup(session)
	if err == nil {
		h.touch()
		return nil
	}
	_, err = m.thaw(obs.TraceContext{}, session, true)
	return err
}
