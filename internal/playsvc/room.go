// Live classroom fan-out: one driven session, many watchers.
//
// A Room wraps one hosted runtime.Session with a driver seat. The driver is
// an ordinary play-service client — instructor or policy — acting through
// the existing act path. A watcher is a replica: it holds the opened course
// package, builds its own session from it, and replays the driver's acts.
// The room logs every act the driven session applies (a refused act changes
// nothing and stays out), each encoded once as the act record a VACT frame
// carries, and marks the end of each driver batch with the state tag it
// leaves. A watch names the seq it holds — how many logged acts its replica
// has applied, 0 before its first reply — and is answered with an act
// frame: the room id as session, BaseSeq = seq+1, the logged acts from
// there (at most maxFrameActs, ending on a batch boundary), a state-tag
// record naming the state the last of them leaves, and at seq 0 a create
// record naming the course. Replaying a reply on a replica at that seq
// rebuilds the driver's session — frame, events, messages, pending quiz —
// so the server renders nothing for a room, and a reply costs the bytes of
// its acts, not of a frame's pixels. A watcher that fell behind catches up
// in one reply per maxFrameActs acts; no act is skipped, so the replica's
// transcript is the driver's from the create.
//
// The room keeps no watcher — no subscription, slot or channel — so a
// publish does the same O(1) work for one watcher or ten thousand: an
// append to the log and one close that wakes every waiting watch. Watchers
// also answer the pending quiz (POST /room/answer); the room tallies
// answers per question for the instructor's cohort view.
//
// Limits. The log holds at most roomActCap acts; the batch that would pass
// it closes the room as a leave does, and the driven session plays on. A
// watcher must hold the package version its driver runs: a replica of
// another project fails on the first state tag, but one that differs only
// in footage would render other pixels unnoticed. A client without the
// package reads the room's frame with GET /play/frame?session=<room> (a
// read of the driven session: one render per request).
//
// Lock order: hosted.mu → Room.mu. The publish path runs under the driven
// session's lock (it reads the state the batch left); the watcher-facing
// paths (watch, answer, stats) take only Room.mu, so pollers never contend
// with the driver beyond a publish's own O(1) critical section.
package playsvc

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tagrec"
)

const (
	// roomActCap bounds a room's act log: 1<<20 acts is 29 hours of class
	// at 10 acts a second. A batch that would pass it closes the room.
	roomActCap = 1 << 20
	// roomWatcherCap bounds the distinct voters one quiz's tally admits (a
	// new voter beyond it is answered 503): a tally's vote map is the one
	// per-watcher record a room keeps, and only for watchers who answer.
	roomWatcherCap = 8192
	// maxWatchWait bounds one long-poll hold; it must stay comfortably
	// under the gateway's hopTimeout so a relayed poll never times out
	// at the hop while the node is still holding it.
	maxWatchWait = 8 * time.Second
)

// batchEnd marks where one driver batch ends in the log: the seq of its
// last act (0 for the create), the state tag that act leaves, and when it
// was published (unix nanos, for the fan-out latency).
type batchEnd struct {
	seq int64
	tag uint64
	at  int64
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
	id     string
	course string
	m      *Manager

	mu     sync.Mutex
	closed bool
	// log holds the applied acts' records back to back; start[i] is the
	// offset of the record of act i+1 (act seqs count from 1, so the room's
	// seq is len(start)).
	log   []byte
	start []int
	// ends holds one entry per published batch, ends[0] the create.
	ends []batchEnd
	// next is closed, and replaced, by each publish, and closed by close:
	// a watch with nothing newer to read waits on it.
	next    chan struct{}
	quiz    string            // pending quiz id at the last publish
	tallies map[string]*tally // by quiz id, for every quiz ever pending

	delivered atomic.Int64 // watch replies handed to watchers
	answers   atomic.Int64 // distinct quiz answers recorded
}

func newRoom(m *Manager, h *hosted) *Room {
	return &Room{
		id:      h.id,
		course:  h.course.name,
		m:       m,
		next:    make(chan struct{}),
		tallies: map[string]*tally{},
	}
}

// publish logs the acts a driver batch applied and marks the batch's end
// with the state tag they leave; with no acts it marks the create, seq 0.
// Called with h.mu held, after the acts applied. It renders nothing, and
// the rest is O(1) however many watchers follow: one close wakes every
// waiting watch. It reports false, logging nothing, when the acts would
// pass roomActCap; the caller then closes the room.
func (r *Room) publish(h *hosted, acts []ActRequest) bool {
	tag := stateTag(h.enc.Encode(h.sess.State()))
	q, pending := h.sess.PendingQuiz()
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return true
	}
	if len(r.start)+len(acts) > roomActCap {
		return false
	}
	r.logBatch(acts, tag, now)
	r.quiz = ""
	if pending {
		r.quiz = q.ID
		if r.tallies[q.ID] == nil {
			r.tallies[q.ID] = &tally{correct: q.Answer, votes: make([]int, len(q.Choices)), byID: map[string]int{}}
		}
	}
	close(r.next)
	r.next = make(chan struct{})
	return true
}

// logBatch appends one batch's act records to the log and marks its end
// with the state tag it leaves. r.mu must be held.
func (r *Room) logBatch(acts []ActRequest, tag uint64, at int64) {
	for i := range acts {
		r.start = append(r.start, len(r.log))
		r.log = appendAct(r.log, &acts[i])
	}
	r.ends = append(r.ends, batchEnd{seq: r.seq(), tag: tag, at: at})
}

// close marks the room dead and wakes every waiting watch. Called when the
// driven session leaves, is evicted, or freezes for handoff (rooms are
// live-only: the driver session survives in the snapshot directory, the
// fan-out state does not), and when the log is full.
func (r *Room) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.next)
	}
}

// WatchNext answers one watch from a watcher holding seq: at once when the
// room has logged an act past seq, otherwise after waiting up to wait for
// the next publish. A seq past the room's (a watcher of an earlier room
// under the same id) is served as seq 0, and a watch at seq 0 whose wait
// runs out with nothing logged is answered with the create alone. The
// reply is one act frame (see appendWatch) appended into dst, which is
// reused across calls: steady-state delivery allocates nothing per
// watcher. next is the seq the reply brings the watcher to, the one its
// next watch presents.
//
// A nil reply with a nil error means the wait ran out with nothing new
// (the HTTP layer answers 204), and next is seq.
func (r *Room) WatchNext(seq int64, wait time.Duration, dst []byte) (reply []byte, next int64, err error) {
	r.mu.Lock()
	if seq > r.seq() {
		seq = 0
	}
	if r.holds(seq) && wait > 0 {
		timer := time.NewTimer(min(wait, maxWatchWait))
		defer timer.Stop()
		for expired := false; r.holds(seq) && !expired; {
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
		return nil, seq, errf(http.StatusNotFound, "playsvc: no room %q", r.id)
	}
	if r.holds(seq) && seq > 0 {
		r.mu.Unlock()
		return nil, seq, nil
	}
	e := r.reach(seq)
	reply = r.appendWatch(dst, seq, e)
	r.mu.Unlock()

	r.delivered.Add(1)
	r.m.roomDelivered.Add(1)
	if e.seq > seq {
		r.m.fanoutNs.Observe(time.Now().UnixNano() - e.at)
	}
	return reply, e.seq, nil
}

// seq is how many acts the room has logged. r.mu must be held.
func (r *Room) seq() int64 { return int64(len(r.start)) }

// holds reports whether a watcher holding seq has nothing newer to read
// in a live room. r.mu must be held.
func (r *Room) holds(seq int64) bool {
	return !r.closed && r.seq() <= seq
}

// reach picks the batch end a reply to a watcher at seq runs to: the last
// one at most maxFrameActs acts and maxBody bytes of act records past seq,
// or the first one past seq when that batch alone is larger. A batch is at
// most maxFrameActs acts and came in one request of at most maxBody bytes,
// so a reply stays within about one request's size however large the
// driver's acts; from seq 0 with nothing logged it is the create. r.mu
// must be held.
func (r *Room) reach(seq int64) batchEnd {
	limit := r.offset(seq) + maxBody
	i := sort.Search(len(r.ends), func(i int) bool {
		e := r.ends[i].seq
		return e > seq && (e > seq+maxFrameActs || r.offset(e) > limit)
	})
	if i < len(r.ends) && r.ends[i-1].seq <= seq {
		return r.ends[i]
	}
	return r.ends[i-1]
}

// appendWatch encodes the reply that brings a watcher from seq to e: the
// room id as the session, at seq 0 a create naming the course, the state
// tag e leaves, BaseSeq = seq+1 and the logged acts' records copied as
// they are. r.mu must be held.
func (r *Room) appendWatch(dst []byte, seq int64, e batchEnd) []byte {
	b := tagrec.Begin(dst[:0], actMagic, frameVersion)
	b = tagrec.Append(b, atagSession, r.id)
	if seq == 0 {
		b = tagrec.Append(b, atagCreate, r.course)
	}
	b = tagrec.AppendUint(b, atagStateTag, e.tag)
	b = tagrec.AppendUint(b, atagBaseSeq, uint64(seq+1))
	b = append(b, r.log[r.offset(seq):r.offset(e.seq)]...)
	return tagrec.Finish(b, 0)
}

// offset is where the record of act seq+1 starts in the log (its end, when
// seq is the last act). r.mu must be held.
func (r *Room) offset(seq int64) int {
	if seq == r.seq() {
		return len(r.log)
	}
	return r.start[seq]
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
		Seq:       r.seq(),
		StateTag:  r.ends[len(r.ends)-1].tag,
		Delivered: r.delivered.Load(),
		Answers:   r.answers.Load(),
		Quiz:      r.quiz,
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
