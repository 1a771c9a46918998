// Package telemetry ingests learner-session events at classroom and campus
// scale. The paper deploys VGBL courseware over the network (§2); once many
// learners play concurrently, lecturers need the aggregate view — how many
// sessions ran, what knowledge was delivered, how long learners persisted —
// without any single process holding every raw event log.
//
// The package has three layers:
//
//   - Store: an event store keyed by session ID. Live sessions accumulate raw runtime.Event logs; a finished session is
//     digested through the analytics package and folded into its course's
//     rolling aggregate, after which the raw log is released and a small
//     mark absorbs replayed deliveries for the idle window.
//   - Service: the HTTP ingest API (/telemetry/ingest, /telemetry/stats,
//     /healthz); a batch is applied in the request that carries it, and a
//     bound on requests in flight sheds overload with 429.
//   - Client: a batching runtime.Observer that posts event batches,
//     flushing on size and on interval, retrying when the service sheds
//     load.
package telemetry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/runtime"
)

// Batch is one ingest POST (EncodeBatch is its wire form): a slice of one
// session's event stream, in session order. Done marks the final batch; the
// store then digests the whole session and folds it into the course
// aggregate.
//
// Seq is the 1-based batch index within the session. Delivery is
// at-least-once (a client must retry when the ack is lost in transit), so
// the store uses Seq to drop duplicate deliveries; a batch with Seq 0 is
// accepted without dedup (hand-posted batches).
type Batch struct {
	Course  string
	Session string
	Start   string // start scenario, for digesting
	Seq     int
	Events  []runtime.Event
	Done    bool
}

// Validate checks the fields a well-formed batch must carry.
func (b *Batch) Validate() error {
	if b.Course == "" {
		return fmt.Errorf("telemetry: batch without course")
	}
	if b.Session == "" {
		return fmt.Errorf("telemetry: batch without session")
	}
	if b.Seq < 0 {
		return fmt.Errorf("telemetry: batch seq %d is negative", b.Seq)
	}
	return nil
}

// tickBuckets are the upper bounds of the session-length histogram
// (last tick ≤ bound); the final implicit bucket is unbounded.
var tickBuckets = []int{25, 50, 100, 200, 400, 800, 1600}

// TickBuckets returns the histogram bucket bounds (shared with reporting).
func TickBuckets() []int {
	return append([]int(nil), tickBuckets...)
}

// CourseStats is the aggregate view of one course, as served by
// /telemetry/stats. Counter fields are exact sums over the folded
// per-session analytics reports.
type CourseStats struct {
	Course          string `json:"course"`
	SessionsStarted int    `json:"sessions_started"`
	SessionsEnded   int    `json:"sessions_ended"` // ended by a Done batch (excludes expired)
	LiveSessions    int    `json:"live_sessions"`
	Completed       int    `json:"completed"` // reached an "end" event
	Events          int    `json:"events"`
	Decisions       int    `json:"decisions"`
	Knowledge       int    `json:"knowledge"`        // total deliveries
	UniqueKnowledge int    `json:"unique_knowledge"` // sum of per-session distinct units
	Rewards         int    `json:"rewards"`
	Ticks           int    `json:"ticks"` // sum of per-session last ticks
	// SessionsExpired counts sessions folded by idle expiry instead of a
	// Done batch. Invariant: started = ended + expired + live.
	SessionsExpired int            `json:"sessions_expired"`
	QuizAsked       int            `json:"quiz_asked"`
	QuizAnswered    int            `json:"quiz_answered"` // accuracy = quiz_correct / quiz_answered
	QuizCorrect     int            `json:"quiz_correct"`
	Outcomes        map[string]int `json:"outcomes,omitempty"`
	KnowledgeCounts map[string]int `json:"knowledge_counts,omitempty"`
	TickHist        []int          `json:"tick_hist"` // len(TickBuckets())+1 counts
}

// Store is the session store: one map of live session logs and one of fold
// marks under one mutex, held for the bookkeeping of a batch and released
// before a finished session is digested (EXPERIMENTS.md E28: 32 stripes of
// it measured no faster under parallel ingest). Course aggregates live in a
// separate small map since courses number in the tens while sessions number
// in the thousands.
type Store struct {
	mu       sync.Mutex
	sessions map[string]*sessionLog // live: started, not yet folded
	// folded holds what a digested session leaves behind so replayed
	// deliveries of its batches are recognized and dropped: the course it
	// was bound to and when it was last heard from, by value — every
	// finished session keeps one for the idle window, so it is two words,
	// not a log.
	folded map[string]foldMark

	coursesMu sync.RWMutex
	courses   map[string]*courseAgg
}

type sessionLog struct {
	course   *courseAgg
	start    string
	events   []runtime.Event
	nextSeq  int       // next expected batch Seq (for tagged batches)
	lastSeen time.Time // last Append; drives idle expiry
}

type foldMark struct {
	course   *courseAgg
	lastSeen int64 // unix nanos of the fold; drives mark expiry
}

type courseAgg struct {
	name     string
	mu       sync.Mutex
	started  int
	expired  int // sessions folded by idle expiry rather than a Done batch
	rolling  analytics.Rolling
	tickHist []int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		sessions: map[string]*sessionLog{},
		folded:   map[string]foldMark{},
		courses:  map[string]*courseAgg{},
	}
}

// course returns (creating if needed) a course's aggregate cell.
func (st *Store) course(name string) *courseAgg {
	st.coursesMu.RLock()
	c := st.courses[name]
	st.coursesMu.RUnlock()
	if c != nil {
		return c
	}
	st.coursesMu.Lock()
	defer st.coursesMu.Unlock()
	if c = st.courses[name]; c == nil {
		c = &courseAgg{name: name, tickHist: make([]int, len(tickBuckets)+1)}
		st.courses[name] = c
	}
	return c
}

// Append applies one batch: events are appended to the session's log (a new
// session counts as started); a Done batch digests the session into an
// analytics.Report, folds it into the course aggregate and releases the raw
// log, leaving a small mark that absorbs replayed deliveries. Batches of one
// session must be applied in session order — the Client keeps one post in
// flight per session, and a Seq-tagged batch that skips ahead is refused as
// a gap — and duplicate deliveries of a Seq-tagged batch are dropped, making
// at-least-once delivery safe.
func (st *Store) Append(b Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	st.mu.Lock()
	log, ok := st.sessions[b.Session]
	var bound *courseAgg // the course this session id is tied to, live or folded
	if ok {
		bound = log.course
	} else if mark, folded := st.folded[b.Session]; folded {
		bound = mark.course
	}
	if bound != nil {
		if bound.name != b.Course {
			st.mu.Unlock()
			return fmt.Errorf("telemetry: session %q already bound to course %q", b.Session, bound.name)
		}
		if !ok {
			// The session was already digested; this is a replayed delivery
			// (e.g. the client re-sent its Done batch after a lost ack).
			st.mu.Unlock()
			return nil
		}
	}
	// Sequence validation happens before any state is created or mutated,
	// so a malformed batch cannot register a phantom session or disturb an
	// existing one.
	if b.Seq > 0 {
		next := 1
		if ok {
			next = log.nextSeq
		}
		if b.Seq < next {
			st.mu.Unlock()
			return nil // duplicate delivery of an applied batch
		}
		if b.Seq > next {
			st.mu.Unlock()
			return fmt.Errorf("telemetry: session %q batch gap: got seq %d, want %d", b.Session, b.Seq, next)
		}
	}
	if !ok {
		log = &sessionLog{course: st.course(b.Course), start: b.Start, nextSeq: 1}
		st.sessions[b.Session] = log
		log.course.noteStarted()
	}
	if b.Seq > 0 {
		log.nextSeq = b.Seq + 1
	}
	log.lastSeen = time.Now()
	if log.start == "" {
		log.start = b.Start
	}
	log.events = append(log.events, b.Events...)
	if !b.Done {
		st.mu.Unlock()
		return nil
	}
	st.fold(b.Session, log)
	st.mu.Unlock()

	// Digest outside the store lock: folding is per-course work.
	log.digestAndFold(false)
	return nil
}

// fold retires a live session's log to a mark; st.mu must be held. The log
// is the caller's to digest.
func (st *Store) fold(session string, log *sessionLog) {
	delete(st.sessions, session)
	st.folded[session] = foldMark{course: log.course, lastSeen: log.lastSeen.UnixNano()}
}

// digestAndFold reduces one finished (or expired) session's events to a
// report and folds it into its course aggregate.
func (log *sessionLog) digestAndFold(expired bool) {
	col := &analytics.Collector{}
	for _, e := range log.events {
		col.Record(e)
	}
	log.course.fold(col.Digest(log.start), expired)
}

func (c *courseAgg) noteStarted() {
	c.mu.Lock()
	c.started++
	c.mu.Unlock()
}

// fold adds one digested session under a single lock acquisition; expired
// marks idle-reclaimed sessions so the started = ended + expired + live
// invariant can never be observed mid-update.
func (c *courseAgg) fold(r *analytics.Report, expired bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rolling.Add(r)
	if expired {
		c.expired++
	}
	i := 0
	for i < len(tickBuckets) && r.LastTick > tickBuckets[i] {
		i++
	}
	c.tickHist[i]++
}

// LiveSessions counts sessions started and not yet folded, as the sum of
// the per-course started - ended - expired (see Snapshot). It takes each
// course lock once and copies nothing, so a gauge can afford it per scrape.
func (st *Store) LiveSessions() int {
	st.coursesMu.RLock()
	defer st.coursesMu.RUnlock()
	n := 0
	for _, c := range st.courses {
		c.mu.Lock()
		n += c.started - c.rolling.Sessions
		c.mu.Unlock()
	}
	return n
}

// ExpireIdle reclaims sessions idle since before the cutoff: an unfolded
// session (its client died without sending Done) is digested as-is and
// folded into its course aggregate, counted under SessionsExpired; the mark
// of an already-folded session is deleted outright — by the time a mark
// goes idle past the cutoff, a replayed delivery of its batches is no
// longer worth defending against. Returns how many live sessions expired.
func (st *Store) ExpireIdle(cutoff time.Time) int {
	var orphans []*sessionLog
	cut := cutoff.UnixNano()
	st.mu.Lock()
	for id, mark := range st.folded {
		if mark.lastSeen < cut {
			delete(st.folded, id)
		}
	}
	for id, log := range st.sessions {
		if log.lastSeen.Before(cutoff) {
			orphans = append(orphans, log)
			st.fold(id, log)
		}
	}
	st.mu.Unlock()
	for _, log := range orphans {
		log.digestAndFold(true)
	}
	return len(orphans)
}

// Snapshot returns a copy of every course's aggregate stats. Each course's
// numbers are read under one lock, and LiveSessions is derived as
// started - ended - expired, so the invariant started = ended + expired +
// live holds in every snapshot even while ingest requests are folding.
func (st *Store) Snapshot() map[string]CourseStats {
	st.coursesMu.RLock()
	names := make([]string, 0, len(st.courses))
	for name := range st.courses {
		names = append(names, name)
	}
	st.coursesMu.RUnlock()

	out := make(map[string]CourseStats, len(names))
	for _, name := range names {
		c := st.course(name)
		c.mu.Lock()
		cs := CourseStats{
			Course:          name,
			SessionsStarted: c.started,
			SessionsEnded:   c.rolling.Sessions - c.expired,
			LiveSessions:    c.started - c.rolling.Sessions,
			Completed:       c.rolling.Completed,
			Events:          c.rolling.Events,
			Decisions:       c.rolling.Decisions,
			Knowledge:       c.rolling.Knowledge,
			UniqueKnowledge: c.rolling.UniqueKnowledge,
			Rewards:         c.rolling.Rewards,
			Ticks:           c.rolling.Ticks,
			SessionsExpired: c.expired,
			QuizAsked:       c.rolling.QuizAsked,
			QuizAnswered:    c.rolling.QuizAnswered,
			QuizCorrect:     c.rolling.QuizCorrect,
			TickHist:        append([]int(nil), c.tickHist...),
		}
		if len(c.rolling.Outcomes) > 0 {
			cs.Outcomes = make(map[string]int, len(c.rolling.Outcomes))
			for k, v := range c.rolling.Outcomes {
				cs.Outcomes[k] = v
			}
		}
		if len(c.rolling.KnowledgeCounts) > 0 {
			cs.KnowledgeCounts = make(map[string]int, len(c.rolling.KnowledgeCounts))
			for k, v := range c.rolling.KnowledgeCounts {
				cs.KnowledgeCounts[k] = v
			}
		}
		c.mu.Unlock()
		out[name] = cs
	}
	return out
}
