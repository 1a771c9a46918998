// Durable hosted sessions: freeze, thaw and checkpoint.
//
// A hosted session is frozen by snapshotting its runtime state
// (runtime.Session.Snapshot) plus the play-service envelope around it —
// the session id, its course, and the unacknowledged event tail a client
// retry may still need. Both blobs land in the content-addressed chunk
// store: the runtime snapshot carries no identity, so two sessions in the
// same logical state (and repeated checkpoints of an idle session) dedup
// to one stored blob; the tiny envelope references it by hash. A
// SnapshotDir maps session ids to their latest envelope so eviction,
// crash-recovery and cluster handoff can find them again.
//
// Thawing is the reverse and is wired into session lookup: an act, state
// or frame request for a session this manager does not host falls through
// to the directory, restores the snapshot, and proceeds — TTL eviction and
// node handoff are invisible to a well-behaved client.
package playsvc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// SnapshotRef is one directory entry: where a session's latest snapshot
// lives, and whether it is a released state or crash insurance.
type SnapshotRef struct {
	Envelope blobstore.Hash
	// Checkpoint marks a periodic-checkpoint entry: the session was still
	// live on its node when this was persisted, so the snapshot may lag
	// the truth. A released entry (freeze/drain/handoff/eviction) is the
	// exact final state and is always safe to thaw; a checkpoint entry
	// must only be thawed once the owning node is known to be gone (the
	// gateway's recover step), or the stale copy would fork the session.
	Checkpoint bool
}

// SnapshotDir maps live session ids to their latest snapshot in the
// shared chunk store. Every node of a cluster shares one directory (and
// one store): that pair is the whole coordination surface session handoff
// needs. Implementations must be safe for concurrent use.
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
	Snapshot  blobstore.Hash
	// Batch-dedup state (v2): a thawed session must keep recognizing a
	// retry of the last applied batch, or a freeze between the apply and
	// the retry would turn a lost reply into a double-apply.
	LastBase int64
	LastLen  int
	LastBits []byte
	LastErr  *Error
}

// Envelope wire format mirrors the runtime snapshot's: magic, version,
// tagged records, CRC32. v2 adds the batch-dedup records (6-9); v1
// envelopes still decode (their dedup state is simply empty).
const (
	envMagic   = "VSNE"
	envVersion = 2

	envTagSession   = 1
	envTagCourse    = 2
	envTagEventBase = 3
	envTagEvents    = 4 // JSON []runtime.Event
	envTagSnapshot  = 5 // 32-byte hash of the runtime snapshot blob
	envTagLastBase  = 6 // uvarint BaseSeq of the last applied batch
	envTagLastLen   = 7 // uvarint act count of that batch
	envTagLastBits  = 8 // raw result bits of the applied prefix
	envTagLastErr   = 9 // uvarint status, uvarint retry-after, message bytes

	maxEnvelopeField = 16 << 20
)

func envAppend(b []byte, tag uint64, payload []byte) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func (e *envelope) encode() []byte {
	b := make([]byte, 0, 256)
	b = append(b, envMagic...)
	b = binary.AppendUvarint(b, envVersion)
	b = envAppend(b, envTagSession, []byte(e.Session))
	b = envAppend(b, envTagCourse, []byte(e.Course))
	b = envAppend(b, envTagEventBase, binary.AppendUvarint(nil, uint64(e.EventBase)))
	if len(e.Events) > 0 {
		evs, err := json.Marshal(e.Events)
		if err != nil {
			panic("playsvc: event tail marshal: " + err.Error())
		}
		b = envAppend(b, envTagEvents, evs)
	}
	b = envAppend(b, envTagSnapshot, e.Snapshot[:])
	if e.LastBase != 0 {
		b = envAppend(b, envTagLastBase, binary.AppendUvarint(nil, uint64(e.LastBase)))
		b = envAppend(b, envTagLastLen, binary.AppendUvarint(nil, uint64(e.LastLen)))
		if len(e.LastBits) > 0 {
			b = envAppend(b, envTagLastBits, e.LastBits)
		}
		if e.LastErr != nil {
			p := binary.AppendUvarint(nil, uint64(e.LastErr.Status))
			p = binary.AppendUvarint(p, uint64(e.LastErr.RetryAfter))
			p = append(p, e.LastErr.Msg...)
			b = envAppend(b, envTagLastErr, p)
		}
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func envBadf(format string, args ...any) error {
	return fmt.Errorf("%w: envelope: %s", runtime.ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// decodeEnvelope parses envelope bytes; every rejection wraps
// runtime.ErrBadSnapshot.
func decodeEnvelope(data []byte) (*envelope, error) {
	if len(data) < len(envMagic)+1+4 {
		return nil, envBadf("truncated (%d bytes)", len(data))
	}
	if string(data[:len(envMagic)]) != envMagic {
		return nil, envBadf("bad magic")
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, envBadf("checksum mismatch")
	}
	rest := body[len(envMagic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, envBadf("malformed version")
	}
	if version == 0 || version > envVersion {
		return nil, envBadf("unsupported version %d", version)
	}
	rest = rest[n:]
	e := &envelope{}
	var hasSession, hasCourse, hasSnapshot bool
	for len(rest) > 0 {
		tag, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, envBadf("malformed record tag")
		}
		rest = rest[n:]
		size, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, envBadf("malformed record length")
		}
		rest = rest[n:]
		if size > maxEnvelopeField || size > uint64(len(rest)) {
			return nil, envBadf("record %d claims %d bytes, %d remain", tag, size, len(rest))
		}
		payload := rest[:size]
		rest = rest[size:]
		switch tag {
		case envTagSession:
			e.Session, hasSession = string(payload), true
		case envTagCourse:
			e.Course, hasCourse = string(payload), true
		case envTagEventBase:
			v, n := binary.Uvarint(payload)
			if n <= 0 || n != len(payload) || v > math.MaxInt32 {
				return nil, envBadf("malformed event base")
			}
			e.EventBase = int(v)
		case envTagEvents:
			if err := json.Unmarshal(payload, &e.Events); err != nil {
				return nil, envBadf("event tail: %v", err)
			}
		case envTagSnapshot:
			if len(payload) != len(e.Snapshot) {
				return nil, envBadf("snapshot hash is %d bytes", len(payload))
			}
			copy(e.Snapshot[:], payload)
			hasSnapshot = true
		case envTagLastBase:
			v, n := binary.Uvarint(payload)
			if n <= 0 || n != len(payload) || v > math.MaxInt64 {
				return nil, envBadf("malformed last batch base")
			}
			e.LastBase = int64(v)
		case envTagLastLen:
			v, n := binary.Uvarint(payload)
			if n <= 0 || n != len(payload) || v > maxFrameActs {
				return nil, envBadf("malformed last batch length")
			}
			e.LastLen = int(v)
		case envTagLastBits:
			if len(payload) > maxFrameActs {
				return nil, envBadf("last batch bits claim %d acts", len(payload))
			}
			e.LastBits = append([]byte(nil), payload...)
		case envTagLastErr:
			status, n := binary.Uvarint(payload)
			if n <= 0 || status > 599 {
				return nil, envBadf("malformed last batch error status")
			}
			payload = payload[n:]
			retry, n := binary.Uvarint(payload)
			if n <= 0 || retry > math.MaxInt32 {
				return nil, envBadf("malformed last batch error retry")
			}
			payload = payload[n:]
			e.LastErr = &Error{Status: int(status), RetryAfter: int(retry), Msg: string(payload)}
		default:
			// Additive extension from a newer writer; skip.
		}
	}
	if !hasSession || !hasCourse || !hasSnapshot {
		return nil, envBadf("missing required fields")
	}
	return e, nil
}

// canSnapshot reports whether this manager has somewhere to freeze to.
func (m *Manager) canSnapshot() bool { return m.store != nil && m.dir != nil }

// freezeOut freezes one live session: persist to the store, publish the
// released directory entry, mark gone, close its room, and only THEN remove it from the session map. The ordering is load-bearing: at
// every instant the session is either live in the map or has a released
// snapshot on file, so a concurrent request (or a gateway rescue) can
// never observe a gap and fall back to a stale checkpoint. removed
// reports whether this call did the removal (false when another path —
// leave, another freeze — released the session first).
func (m *Manager) freezeOut(h *hosted) (removed bool, err error) {
	t0 := time.Now()
	h.mu.Lock()
	if h.gone {
		h.mu.Unlock()
		return false, nil
	}
	env, err := m.persistLocked(h)
	if err != nil {
		h.mu.Unlock()
		return false, err // session stays live; better held than lost
	}
	m.dir.Save(h.id, SnapshotRef{Envelope: env})
	h.gone = true
	m.closeRoomLocked(h)
	h.mu.Unlock()
	m.mu.Lock()
	delete(m.sessions, h.id)
	m.mu.Unlock()
	m.liveCount.Add(-1)
	m.frozen.Add(1)
	m.freezeNs.ObserveSince(t0)
	return true, nil
}

// evictOut discards one live session without snapshotting (no store, or
// the store failed). Same map ordering as freezeOut.
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

// persistLocked writes h's current state (runtime snapshot + envelope)
// into the store and returns the envelope hash; h.mu must be held.
func (m *Manager) persistLocked(h *hosted) (blobstore.Hash, error) {
	snap := h.sess.Snapshot()
	snapHash, _, err := m.store.Put(snap)
	if err != nil {
		return blobstore.Hash{}, errf(http.StatusInternalServerError, "playsvc: persist snapshot: %v", err)
	}
	env := &envelope{
		Session:   h.id,
		Course:    h.course.name,
		EventBase: h.eventBase,
		Events:    h.events,
		Snapshot:  snapHash,
		LastBase:  h.lastBase,
		LastLen:   h.lastLen,
		LastBits:  h.lastBits,
		LastErr:   h.lastErr,
	}
	envHash, _, err := m.store.Put(env.encode())
	if err != nil {
		return blobstore.Hash{}, errf(http.StatusInternalServerError, "playsvc: persist envelope: %v", err)
	}
	return envHash, nil
}

// Freeze snapshots one live session to the shared store and releases it —
// the handoff primitive a cluster gateway calls on the old owner before
// the new owner restores. Freezing an already-frozen session is a no-op;
// a session this node neither hosts nor has a snapshot for is an error.
func (m *Manager) Freeze(session string) error {
	if !m.canSnapshot() {
		return errf(http.StatusNotImplemented, "playsvc: no snapshot store configured")
	}
	h, err := m.lookup(session)
	if err != nil {
		// Only a RELEASED entry means "already frozen"; a checkpoint entry
		// is stale insurance for a session this node does not hold.
		if ref, ok := m.dir.Lookup(session); ok && !ref.Checkpoint {
			return nil
		}
		return err
	}
	_, err = m.freezeOut(h)
	return err
}

// DrainAll freezes every hosted session (graceful shutdown / node
// removal) and reports how many it processed. Without a snapshot store it
// degrades to plain eviction. Draining is one-way: the node stops
// creating and thawing sessions, so a request racing the drain cannot
// strand a fresh session on a node that is about to disappear.
func (m *Manager) DrainAll() int {
	m.draining.Store(true)
	n := 0
	for _, h := range m.snapshotSessions() {
		if m.canSnapshot() {
			if removed, err := m.freezeOut(h); err == nil {
				if removed {
					n++
				}
				continue
			}
		}
		if m.evictOut(h) {
			m.evicted.Add(1)
			n++
		}
	}
	return n
}

// Checkpoint snapshots every session with activity since its last
// checkpoint, bounding what a crash can lose to one checkpoint interval.
// Sessions are persisted without being released; identical consecutive
// states dedup in the content-addressed store. Returns how many sessions
// were persisted.
func (m *Manager) Checkpoint() int {
	if !m.canSnapshot() {
		return 0
	}
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
		env, err := m.persistLocked(h)
		if err == nil {
			// Under h.mu, like every dir write for a held session: a
			// concurrent leave (which deletes the entry under the same
			// lock) must not be overwritten by a checkpoint of the state
			// it just retired.
			m.dir.Save(h.id, SnapshotRef{Envelope: env, Checkpoint: true})
			h.checkpointed.Store(seen)
		}
		h.mu.Unlock()
		if err != nil {
			continue // transient store failure; next pass retries
		}
		n++
	}
	m.checkpoints.Add(int64(n))
	return n
}

// thaw restores a frozen session from the shared store, inserts it into
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
	notFound := errf(http.StatusNotFound, "playsvc: no session %q", session)
	if !m.canSnapshot() {
		return nil, notFound
	}
	if m.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, "playsvc: node is draining")
	}
	ref, ok := m.dir.Lookup(session)
	if !ok {
		return nil, notFound
	}
	if ref.Checkpoint && !allowCheckpoint {
		return nil, notFound
	}
	envBytes, err := m.store.Get(ref.Envelope)
	if err != nil {
		return nil, errf(http.StatusNotFound, "playsvc: session %q envelope: %v", session, err)
	}
	env, err := decodeEnvelope(envBytes)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "playsvc: session %q: %v", session, err)
	}
	if env.Session != session {
		return nil, errf(http.StatusInternalServerError, "playsvc: envelope names session %q, wanted %q", env.Session, session)
	}
	m.coursesMu.RLock()
	c := m.courses[env.Course]
	m.coursesMu.RUnlock()
	if c == nil {
		return nil, errf(http.StatusNotFound, "playsvc: session %q course %q is no longer published", session, env.Course)
	}
	snap, err := m.store.Get(env.Snapshot)
	if err != nil {
		return nil, errf(http.StatusNotFound, "playsvc: session %q snapshot: %v", session, err)
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
	sess, err := runtime.RestoreSessionFromPackage(c.pkg, snap, runtime.Options{Observer: h})
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
