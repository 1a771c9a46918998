// Live classroom fan-out: one driven session, many watchers.
//
// A Room wraps one hosted runtime.Session with a driver seat. The driver is
// an ordinary play-service client — instructor or policy — acting through
// the existing act path; every state change renders the presentation frame
// ONCE into an immutable, sequence-numbered publication, the room's
// current one. A watcher is a read: each watch names the publication it
// holds (its seq) and the event and message totals it has seen, and is
// answered with the current publication as soon as that is newer. The
// room keeps no watcher — no subscription, slot or channel — so a
// publish does the same work for one watcher or ten thousand, and a
// watcher that walks away costs nothing. A watcher that fell behind gets
// the freshest frame on its next poll; the publications it never saw are
// the gap between the two seqs, counted as skipped at delivery. Frames are
// skippable; events and messages are not: they are served as coalesced
// tails keyed by the presented seen-counts, the same ack idiom the act
// path uses, so a watcher that missed frames still reconstructs the full
// classroom transcript. Watchers also answer the pending quiz
// (POST /room/answer); the room tallies answers per question for the
// instructor's cohort view.
//
// Lock order: hosted.mu → Room.mu. The publish path runs under the driven
// session's lock (it renders from live state); the watcher-facing paths
// (watch, answer, stats) take only Room.mu, so pollers never contend with
// the driver beyond a publish's own O(1) critical section.
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
	// roomWatcherCap bounds the distinct voters one quiz's tally admits (a
	// new voter beyond it is answered 503): a tally's vote map is the one
	// per-watcher record a room keeps, and only for watchers who answer.
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

// WatchPos is what a watcher holds and presents with each watch: the seq
// of the publication it last received (0 before the first) and the event
// and message totals it has seen.
type WatchPos struct {
	Seq      int64
	Events   int
	Messages int
}

// tally accumulates one quiz question's cohort answers.
type tally struct {
	correct int            // correct-choice index (from the course quiz)
	votes   []int          // count per choice
	byID    map[string]int // last answer per watcher (re-answer moves the vote)
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
	// next is closed, and replaced, by each publish, and closed by close:
	// a watch with nothing newer to read waits on it.
	next chan struct{}
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

	renders   atomic.Int64 // publications (exactly one render each)
	delivered atomic.Int64 // frames handed to watchers
	skipped   atomic.Int64 // publications watchers never received (seq gaps)
	answers   atomic.Int64 // distinct quiz answers recorded
}

func newRoom(m *Manager, id string, h *hosted) *Room {
	return &Room{
		id:      id,
		m:       m,
		h:       h,
		next:    make(chan struct{}),
		tallies: map[string]*tally{},
	}
}

// publish renders the driven session once and makes it the room's current
// publication. Called with r.h.mu held (the act path owns the session lock
// when state changes); the render happens exactly once and the rest is
// O(1) no matter how many watchers follow: one close wakes every waiting
// watch.
func (r *Room) publish() {
	var fr raster.Frame
	if err := r.h.sess.FrameInto(&fr); err != nil {
		return // an undecodable frame publishes nothing; the next act retries
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.seq++
	r.renders.Add(1)
	r.m.roomRenders.Add(1)
	r.cur = &pub{seq: r.seq, tick: r.h.sess.Ticks(), at: now.UnixNano(), w: fr.W, h: fr.H, pix: fr.Pix}

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
	close(r.next)
	r.next = make(chan struct{})
}

// close marks the room dead and wakes every waiting watch. Called when the
// driven session leaves, is evicted, or freezes for handoff (rooms are
// live-only: the driver session survives in the snapshot directory, the
// fan-out state does not).
func (r *Room) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.next)
	}
}

// WatchNext answers one watch from a watcher at position at: at once with
// the current publication when it is newer than at.Seq, otherwise after
// waiting up to wait for the next publish. A seq past the room's (a
// watcher of an earlier room under the same id) is served as a first
// poll. The reply is one watch chunk: the length-prefixed header —
// sequence, tick, geometry, and the event/message tails beyond the
// presented seen-counts — appended into dst, plus the shared immutable
// pixel payload, returned separately so the caller concatenates the two
// writes without copying the frame. next is the position the chunk brings
// the watcher to, the one its next watch presents.
//
// A nil header with a nil error means the wait ran out with nothing new
// (the HTTP layer answers 204), and next is at. dst is reused across calls
// — steady-state delivery allocates nothing per watcher.
func (r *Room) WatchNext(at WatchPos, wait time.Duration, dst []byte) (header, pix []byte, next WatchPos, err error) {
	r.mu.Lock()
	if at.Seq > r.seq {
		at.Seq = 0
	}
	if r.holds(at.Seq) && wait > 0 {
		timer := time.NewTimer(min(wait, maxWatchWait))
		defer timer.Stop()
		for expired := false; r.holds(at.Seq) && !expired; {
			ch := r.next
			r.mu.Unlock()
			select {
			case <-ch:
			case <-timer.C:
				expired = true
			}
			r.mu.Lock()
		}
	}
	if r.closed {
		r.mu.Unlock()
		return nil, nil, at, errf(http.StatusNotFound, "playsvc: no room %q", r.id)
	}
	if r.holds(at.Seq) {
		r.mu.Unlock()
		return nil, nil, at, nil
	}
	p := r.cur
	tails := watchTails{
		eventBase:    r.eventBase,
		events:       r.events,
		eventCount:   r.eventBase + len(r.events),
		msgBase:      r.msgBase,
		messages:     r.messages,
		messageCount: r.msgBase + len(r.messages),
		quiz:         r.quiz,
	}
	header = appendWatchChunk(dst, p, tails, at.Events, at.Messages)
	r.mu.Unlock()

	var gap int64
	if at.Seq > 0 {
		gap = p.seq - at.Seq - 1
	}
	r.delivered.Add(1)
	r.m.roomDelivered.Add(1)
	if gap > 0 {
		r.skipped.Add(gap)
		r.m.roomSkipped.Add(gap)
	}
	r.m.fanoutNs.Observe(time.Now().UnixNano() - p.at)
	r.m.skipHist.Observe(gap)
	return header, p.pix, WatchPos{Seq: p.seq, Events: tails.eventCount, Messages: tails.messageCount}, nil
}

// holds reports whether a watcher holding seq has nothing newer to read
// in a live room. r.mu must be held.
func (r *Room) holds(seq int64) bool {
	return !r.closed && (r.cur == nil || r.cur.seq <= seq)
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
		if len(t.byID) >= roomWatcherCap {
			return nil, errf(http.StatusServiceUnavailable, "playsvc: quiz %q voter cap (%d) reached", quizID, roomWatcherCap)
		}
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

// stats snapshots the room's counters and cohort tallies.
func (r *Room) stats() RoomStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RoomStats{
		Room:      r.id,
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
