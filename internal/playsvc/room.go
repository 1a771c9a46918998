// Live classroom fan-out: one driven session, many watchers.
//
// A Room wraps one hosted runtime.Session with a driver seat and N watcher
// subscriptions. The driver is an ordinary play-service client — instructor
// or policy — acting through the existing act path (JSON or binary); every
// state change renders the presentation frame ONCE into an immutable,
// sequence-numbered publication, and that same payload fans out to every
// subscriber. Each watcher holds one pending publication: a newer one
// replaces it undelivered (a counter keeps the honest tally of skips), so
// a slow or stalled watcher gets the freshest frame on its next poll and
// never holds the driver — or any other watcher — back. Frames are
// skippable; events and messages are not: they are served as coalesced
// tails keyed by per-watcher seen-counts, the same ack idiom the act path
// uses, so a watcher that missed frames still reconstructs the full
// classroom transcript. Watchers also answer the
// pending quiz (POST /room/answer); the room tallies answers per question
// for the instructor's cohort view.
//
// Lock order: hosted.mu → Room.mu → watcher.mu, always. The publish path
// runs under the driven session's lock (it renders from live state); the
// watcher-facing paths (watch, answer, stats) take only Room.mu and the
// watcher's own lock, so a thousand pollers never contend with the driver
// beyond the fan-out loop itself.
package playsvc

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/media/raster"
	"repro/internal/runtime"
)

const (
	// roomLogCap bounds the retained event and message tails. Watchers
	// further behind than this see the base advance past their seen-count
	// (a join-late gap, visible in the chunk's base field), never a stall.
	roomLogCap = 4096
	// roomWatcherCap bounds subscriptions per room (joins beyond it 503).
	roomWatcherCap = 8192
	// maxWatchWait bounds one long-poll hold; it must stay comfortably
	// under the gateway's hopTimeout so a relayed poll never times out
	// at the hop while the node is still holding it.
	maxWatchWait = 8 * time.Second
)

// pub is one immutable publication: the frame rendered once per state
// change, shared by reference with every watcher. Nothing in a pub is
// mutated after publish — that is the read-only sharing contract that
// makes zero-copy fan-out safe (see Session.FrameInto).
type pub struct {
	seq  int64
	tick int
	at   int64 // publish time, unix nanos (fan-out latency measurement)
	w, h int
	pix  []byte // 24-bit RGB, immutable
}

// tally accumulates one quiz question's cohort answers.
type tally struct {
	correct int            // correct-choice index (from the course quiz)
	votes   []int          // count per choice
	byID    map[string]int // last answer per watcher (re-answer moves the vote)
}

// watcher is one subscription: one pending publication plus a wake
// channel. The slot holds a pointer to a shared pub, so N watchers cost N
// pointers, not N frame copies.
type watcher struct {
	id string

	mu       sync.Mutex
	pending  *pub  // newest undelivered publication, nil once taken
	skipped  int64 // cumulative publications replaced undelivered
	reported int64 // skipped value at the last delivery (for per-poll deltas)
	gone     bool

	notify   chan struct{} // cap 1; nudged on push and on room close
	lastSeen atomic.Int64  // unix nanos, for idle pruning
}

// push makes p the pending publication; one it replaces was never
// delivered and counts as skipped. Called with Room.mu held; takes only
// the watcher's own lock, so one stalled watcher cannot slow the fan-out
// loop.
func (w *watcher) push(p *pub) (dropped bool) {
	w.mu.Lock()
	if w.gone {
		w.mu.Unlock()
		return false
	}
	dropped = w.pending != nil
	if dropped {
		w.skipped++
	}
	w.pending = p
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return dropped
}

// pop takes the pending publication, the newest one. skipTotal is the
// watcher's cumulative skip count after the pop; skipDelta is how much of
// it accrued since the previous delivery.
func (w *watcher) pop() (p *pub, skipTotal, skipDelta int64, gone bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gone {
		return nil, w.skipped, 0, true
	}
	if w.pending == nil {
		return nil, w.skipped, 0, false
	}
	p, w.pending = w.pending, nil
	skipDelta = w.skipped - w.reported
	w.reported = w.skipped
	return p, w.skipped, skipDelta, false
}

// wake nudges a blocked poll (push path and room close).
func (w *watcher) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// Room is the broadcast hub for one shared session. All methods are safe
// for concurrent use.
type Room struct {
	id string
	m  *Manager
	h  *hosted // the driven session

	mu     sync.Mutex
	closed bool
	seq    int64
	cur    *pub
	// events/messages are the retained broadcast tails; eventBase/msgBase
	// are the absolute indices of element 0, matching the driven session's
	// own numbering — so watcher seen-counts and driver seen-counts speak
	// the same coordinates.
	events    []runtime.Event
	eventBase int
	messages  []string
	msgBase   int
	// lastEvents/lastMsgs are the absolute totals already copied out of
	// the driven session (publish copies only the delta).
	lastEvents int
	lastMsgs   int
	quiz       string            // pending quiz id at the last publish
	tallies    map[string]*tally // by quiz id, for every quiz ever pending
	watchers   map[string]*watcher

	renders   atomic.Int64 // publications (exactly one render each)
	delivered atomic.Int64 // frames handed to watchers
	skipped   atomic.Int64 // publications replaced undelivered
	answers   atomic.Int64 // distinct quiz answers recorded
}

func newRoom(m *Manager, id string, h *hosted) *Room {
	return &Room{
		id:       id,
		m:        m,
		h:        h,
		tallies:  map[string]*tally{},
		watchers: map[string]*watcher{},
	}
}

// publish renders the driven session once and fans the publication out to
// every watcher. Called with r.h.mu held (the act and frame paths own
// the session lock when state changes); the render happens exactly once no
// matter how many watchers subscribe — that is the O(1)-per-tick contract.
func (r *Room) publish() {
	var fr raster.Frame
	if err := r.h.sess.FrameInto(&fr); err != nil {
		return // an undecodable frame publishes nothing; the next act retries
	}
	now := time.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.seq++
	r.renders.Add(1)
	r.m.roomRenders.Add(1)
	p := &pub{seq: r.seq, tick: r.h.sess.Ticks(), at: now.UnixNano(), w: fr.W, h: fr.H, pix: fr.Pix}
	r.cur = p

	// Copy the event delta. The events are still retained on the hosted
	// session: ack-driven compaction only trims prefixes the driver saw in
	// a reply, and every reply is assembled after this publish — so the
	// window [lastEvents, total) is always present in h.events.
	if total := r.h.eventBase + len(r.h.events); total > r.lastEvents {
		from := r.lastEvents - r.h.eventBase
		if from < 0 {
			from = 0
		}
		r.events = append(r.events, r.h.events[from:]...)
		r.lastEvents = total
		if over := len(r.events) - roomLogCap; over > 0 {
			r.events = append(r.events[:0], r.events[over:]...)
			r.eventBase += over
		}
	}
	if mc := r.h.sess.MessageCount(); mc > r.lastMsgs {
		r.messages = append(r.messages, r.h.sess.MessagesFrom(r.lastMsgs)...)
		r.lastMsgs = mc
		if over := len(r.messages) - roomLogCap; over > 0 {
			r.messages = append(r.messages[:0], r.messages[over:]...)
			r.msgBase += over
		}
	}
	if q, ok := r.h.sess.PendingQuiz(); ok {
		r.quiz = q.ID
		if r.tallies[q.ID] == nil {
			r.tallies[q.ID] = &tally{correct: q.Answer, votes: make([]int, len(q.Choices)), byID: map[string]int{}}
		}
	} else {
		r.quiz = ""
	}

	var droppedHere int64
	for _, w := range r.watchers {
		if w.push(p) {
			droppedHere++
		}
	}
	r.mu.Unlock()
	if droppedHere > 0 {
		r.skipped.Add(droppedHere)
		r.m.roomSkipped.Add(droppedHere)
	}
}

// close marks the room dead and wakes every blocked poll. Called when the
// driven session leaves, is evicted, or freezes for handoff (rooms are
// live-only: the driver session survives in the snapshot directory, the
// watcher fan-out state does not).
func (r *Room) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	ws := make([]*watcher, 0, len(r.watchers))
	for _, w := range r.watchers {
		ws = append(ws, w)
	}
	r.watchers = map[string]*watcher{}
	r.mu.Unlock()
	for _, w := range ws {
		w.mu.Lock()
		w.gone = true
		w.mu.Unlock()
		w.wake()
	}
}

// join registers a watcher (idempotent per id: a retried join reattaches).
func (r *Room) join(watcherID string) (*watcher, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errf(http.StatusNotFound, "playsvc: no room %q", r.id)
	}
	if w := r.watchers[watcherID]; w != nil {
		w.lastSeen.Store(time.Now().UnixNano())
		return w, nil
	}
	if len(r.watchers) >= roomWatcherCap {
		return nil, errf(http.StatusServiceUnavailable, "playsvc: room %q watcher cap (%d) reached", r.id, roomWatcherCap)
	}
	w := &watcher{id: watcherID, notify: make(chan struct{}, 1)}
	w.lastSeen.Store(time.Now().UnixNano())
	if r.cur != nil {
		// The newest publication seeds the slot so a joiner's first poll
		// returns immediately instead of waiting out a quiet classroom.
		w.push(r.cur)
	}
	r.watchers[watcherID] = w
	r.m.watcherJoins.Add(1)
	return w, nil
}

// leave unsubscribes a watcher (idempotent).
func (r *Room) leave(watcherID string) {
	r.mu.Lock()
	w := r.watchers[watcherID]
	delete(r.watchers, watcherID)
	r.mu.Unlock()
	if w != nil {
		w.mu.Lock()
		w.gone = true
		w.mu.Unlock()
		w.wake()
	}
}

// lookupWatcher resolves a live subscription.
func (r *Room) lookupWatcher(watcherID string) (*watcher, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errf(http.StatusNotFound, "playsvc: no room %q", r.id)
	}
	w := r.watchers[watcherID]
	if w == nil {
		return nil, errf(http.StatusNotFound, "playsvc: room %q has no watcher %q", r.id, watcherID)
	}
	return w, nil
}

// WatchNext blocks until a publication is pending for the watcher (or wait
// elapses) and encodes it as one watch chunk: the length-prefixed header —
// sequence, tick, geometry, skip count, and the event/message tails beyond
// the caller's seen-counts — appended into dst, plus the shared immutable
// pixel payload, returned separately so the caller concatenates the two
// writes without copying the frame. A publication is always the newest:
// the ones it replaced count in the chunk's skip total.
//
// A nil header with a nil error means the wait timed out with nothing new
// (the HTTP layer answers 204). dst is reused across calls — steady-state
// delivery allocates nothing per watcher. ackEvents/ackMessages are the
// absolute event/message totals the chunk carries — the seen-counts the
// next call should present.
func (r *Room) WatchNext(watcherID string, seenEvents, seenMessages int, wait time.Duration, dst []byte) (header, pix []byte, ackEvents, ackMessages int, err error) {
	w, err := r.lookupWatcher(watcherID)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	now := time.Now()
	w.lastSeen.Store(now.UnixNano())
	p, skips, delta, gone := w.pop()
	if p == nil && !gone && wait > 0 {
		if wait > maxWatchWait {
			wait = maxWatchWait
		}
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
		for p == nil && !gone {
			select {
			case <-w.notify:
				p, skips, delta, gone = w.pop()
			case <-deadline.C:
				p, skips, delta, gone = w.pop()
				if p == nil {
					gone = true // stop waiting; distinguished below
				}
			}
		}
		if p == nil {
			// Re-check liveness: a timeout on a live subscription is a
			// clean 204; a closed room is a 404.
			if _, err := r.lookupWatcher(watcherID); err != nil {
				return nil, nil, 0, 0, err
			}
			return nil, nil, seenEvents, seenMessages, nil
		}
	}
	if p == nil {
		if gone {
			return nil, nil, 0, 0, errf(http.StatusNotFound, "playsvc: room %q has no watcher %q", r.id, watcherID)
		}
		return nil, nil, seenEvents, seenMessages, nil
	}
	r.delivered.Add(1)
	r.m.roomDelivered.Add(1)
	r.m.fanoutNs.Observe(time.Now().UnixNano() - p.at)
	r.m.skipHist.Observe(delta)

	r.mu.Lock()
	tails := watchTails{
		eventBase:    r.eventBase,
		events:       r.events,
		eventCount:   r.eventBase + len(r.events),
		msgBase:      r.msgBase,
		messages:     r.messages,
		messageCount: r.msgBase + len(r.messages),
		quiz:         r.quiz,
	}
	header = appendWatchChunk(dst, p, skips, tails, seenEvents, seenMessages)
	r.mu.Unlock()
	return header, p.pix, tails.eventCount, tails.messageCount, nil
}

// answer records one watcher's quiz answer. Re-answering moves the vote
// (last answer wins); only the first answer counts toward the answer
// totals. The driven session is untouched — cohort answers are assessment
// data, not game acts; the driver answers the session's quiz through the
// act path as usual.
func (r *Room) answer(watcherID, quizID string, choice int) (*RoomAnswerReply, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errf(http.StatusNotFound, "playsvc: no room %q", r.id)
	}
	w := r.watchers[watcherID]
	if w == nil {
		return nil, errf(http.StatusNotFound, "playsvc: room %q has no watcher %q", r.id, watcherID)
	}
	w.lastSeen.Store(time.Now().UnixNano())
	t := r.tallies[quizID]
	if t == nil {
		return nil, errf(http.StatusNotFound, "playsvc: room %q has no quiz %q", r.id, quizID)
	}
	if choice < 0 || choice >= len(t.votes) {
		return nil, errf(http.StatusBadRequest, "playsvc: quiz %q has no choice %d", quizID, choice)
	}
	if prev, ok := t.byID[watcherID]; ok {
		t.votes[prev]--
	} else {
		r.answers.Add(1)
		r.m.roomAnswers.Add(1)
	}
	t.byID[watcherID] = choice
	t.votes[choice]++
	return &RoomAnswerReply{
		Room:    r.id,
		Quiz:    quizID,
		Correct: choice == t.correct,
		Answers: len(t.byID),
		Votes:   append([]int(nil), t.votes...),
	}, nil
}

// isClosed reports whether the room's driven session is gone.
func (r *Room) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// watcherCount is the current subscription count.
func (r *Room) watcherCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.watchers)
}

// pruneWatchers drops subscriptions idle since before the cutoff (a
// watcher that stopped polling without a leave). Returns how many fell.
func (r *Room) pruneWatchers(cutoff int64) int {
	r.mu.Lock()
	var victims []*watcher
	for id, w := range r.watchers {
		if w.lastSeen.Load() < cutoff {
			victims = append(victims, w)
			delete(r.watchers, id)
		}
	}
	r.mu.Unlock()
	for _, w := range victims {
		w.mu.Lock()
		w.gone = true
		w.mu.Unlock()
		w.wake()
	}
	return len(victims)
}

// stats snapshots the room's counters and cohort tallies.
func (r *Room) stats() RoomStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RoomStats{
		Room:      r.id,
		Watchers:  len(r.watchers),
		Seq:       r.seq,
		Renders:   r.renders.Load(),
		Delivered: r.delivered.Load(),
		Skipped:   r.skipped.Load(),
		Answers:   r.answers.Load(),
		Quiz:      r.quiz,
	}
	if r.cur != nil {
		st.Tick = r.cur.tick
	}
	for id, t := range r.tallies {
		qt := RoomQuizTally{Quiz: id, Answers: len(t.byID), Votes: append([]int(nil), t.votes...)}
		if t.correct >= 0 && t.correct < len(t.votes) {
			qt.Correct = t.votes[t.correct]
		}
		st.Quizzes = append(st.Quizzes, qt)
	}
	return st
}
