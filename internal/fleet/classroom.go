// Classroom mode: the shared-session fan-out measurement. Where the base
// fleet gives every learner their own hosted session, a classroom run
// opens R rooms — one driven session each — and points W watchers per
// room at the broadcast. The server renders each state change once no
// matter how many watchers follow, so this is the load shape behind
// experiment E18: publications per second scale with the drivers, and
// delivery scales with the watchers, never the other way around.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

// ClassroomConfig shapes one shared-session fan-out run.
type ClassroomConfig struct {
	ServerURL string // package server base URL (http://host:port)
	PlayURL   string // play/room service on another host; empty means ServerURL
	Package   string // course package under /pkg/

	Rooms    int // shared sessions (default 1)
	Watchers int // subscribers per room (default 50)
	FPS      int // driver pace in acts per second (default 10)
	Ticks    int // driver acts per room (default 100)

	// QuizHoldTicks is how many driver ticks a pending quiz stays open for
	// the cohort before the driver answers it and the lesson moves on
	// (default 2×FPS — two seconds of class time).
	QuizHoldTicks int
	// Correctness is the probability a watcher answers a quiz correctly
	// (default 0.7) — the knob that makes cohort tallies look like a class.
	Correctness float64

	Policy sim.Factory // driver policy (default sim.GuidedFactory)
	Seed   int64
	HTTP   *http.Client
}

func (c *ClassroomConfig) defaults() (ownsTransport bool, err error) {
	if c.ServerURL == "" || c.Package == "" {
		return false, fmt.Errorf("fleet: classroom needs ServerURL and Package")
	}
	if c.PlayURL == "" {
		c.PlayURL = c.ServerURL
	}
	if c.Rooms <= 0 {
		c.Rooms = 1
	}
	if c.Watchers <= 0 {
		c.Watchers = 50
	}
	if c.FPS <= 0 {
		c.FPS = 10
	}
	if c.Ticks <= 0 {
		c.Ticks = 100
	}
	if c.QuizHoldTicks <= 0 {
		c.QuizHoldTicks = 2 * c.FPS
	}
	if c.Correctness <= 0 || c.Correctness > 1 {
		c.Correctness = 0.7
	}
	if c.Policy.New == nil {
		c.Policy = sim.GuidedFactory
	}
	if c.HTTP == nil {
		// Every watcher parks a long-poll (or a stream) on the server, so
		// the connection budget is the whole classroom, not a worker pool.
		c.HTTP = &http.Client{Transport: faultnet.NewHTTPTransport(c.Rooms*(c.Watchers+2) + 8)}
		ownsTransport = true
	}
	return ownsTransport, nil
}

// ClassroomSummary is the classroom run's measurement.
type ClassroomSummary struct {
	Rooms    int
	Watchers int // per room
	Elapsed  time.Duration

	// Renders counts server-side presentation renders across all rooms;
	// Published counts the publications the drivers caused (room creation
	// plus every successful act). Equal numbers mean the hub rendered each
	// state change exactly once regardless of watcher count — the claim
	// E18 asserts.
	Renders   int64
	Published int64

	Delivered       int64   // frames handed to watchers (server count)
	ClientDelivered int64   // frames watchers actually received (cross-check)
	Skipped         int64   // frames dropped from slow watcher rings
	FramesPerSec    float64 // delivered / wall time

	QuizzesAsked    int   // distinct quizzes opened across rooms
	AnswersSent     int   // watcher answers accepted over the wire
	AnswersRecorded int64 // answers present in the final cohort tallies

	WatchersFailed int
	DriversFailed  int

	Join   Latency // room join round-trip
	Answer Latency // quiz answer round-trip

	Errors []string // up to 8 sample error messages
}

// String renders the fan-out table the load-test CLI prints.
func (s *ClassroomSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLASSROOM RUN — %d rooms × %d watchers\n", s.Rooms, s.Watchers)
	fmt.Fprintf(&b, "  wall time      : %v\n", s.Elapsed.Round(time.Millisecond))
	oneRender := "one render per tick"
	if s.Renders != s.Published {
		oneRender = "RENDER/PUBLISH MISMATCH"
	}
	fmt.Fprintf(&b, "  renders        : %d for %d publications (%s)\n", s.Renders, s.Published, oneRender)
	fmt.Fprintf(&b, "  fan-out        : %d frames delivered (%d received), %d skipped on slow rings\n",
		s.Delivered, s.ClientDelivered, s.Skipped)
	fmt.Fprintf(&b, "  throughput     : %.0f frames/s delivered\n", s.FramesPerSec)
	fmt.Fprintf(&b, "  join latency   : %s\n", s.Join)
	fmt.Fprintf(&b, "  answer latency : %s\n", s.Answer)
	lost := int64(s.AnswersSent) - s.AnswersRecorded
	fmt.Fprintf(&b, "  quizzes        : %d asked, %d answers sent, %d recorded (%d lost)\n",
		s.QuizzesAsked, s.AnswersSent, s.AnswersRecorded, lost)
	if s.WatchersFailed > 0 || s.DriversFailed > 0 {
		fmt.Fprintf(&b, "  failures       : %d watchers, %d drivers\n", s.WatchersFailed, s.DriversFailed)
	}
	if len(s.Errors) > 0 {
		fmt.Fprintf(&b, "  errors         : %s\n", strings.Join(s.Errors, "; "))
	}
	return b.String()
}

// driverOutcome is what one room's driver hands back.
type driverOutcome struct {
	published int64 // the room's create-time publish + successful acts
	stats     playsvc.RoomStats
	statsOK   bool
	err       error
}

// watcherOutcome is what one watcher hands back.
type watcherOutcome struct {
	join       time.Duration
	answerRTTs []time.Duration
	delivered  int64
	skipped    int64
	answers    int
	err        error
}

// RunClassroom drives the whole classroom and blocks until every room
// ends. Watcher and driver errors do not abort the run; they are counted
// and sampled in the summary. It errors only on misconfiguration or when
// a room cannot be opened.
func RunClassroom(cfg ClassroomConfig) (*ClassroomSummary, error) {
	ownsTransport, err := cfg.defaults()
	if err != nil {
		return nil, err
	}
	if ownsTransport {
		defer cfg.HTTP.CloseIdleConnections()
	}
	// The drivers choose actions against a local copy of the project (the
	// same package the server hosts), and watchers look quiz metadata up in
	// it to answer plausibly.
	nc := &netstream.Client{HTTP: cfg.HTTP}
	blob, _, err := nc.DownloadDelta(cfg.ServerURL+"/pkg/"+cfg.Package, netstream.NewPackageCache())
	if err != nil {
		return nil, fmt.Errorf("fleet: classroom prefetch: %w", err)
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: classroom package: %w", err)
	}

	// Every room opens up front — its driver dials it — so watchers never
	// race a missing room.
	seats := make([]*playsvc.Client, 0, cfg.Rooms)
	for r := 0; r < cfg.Rooms; r++ {
		pc, err := playsvc.Dial(playsvc.ClientOptions{
			BaseURL: cfg.PlayURL,
			Course:  cfg.Package,
			Room:    true,
			Project: pkg.Project,
			HTTP:    cfg.HTTP,
		})
		if err != nil {
			for _, pc := range seats {
				pc.Close()
			}
			return nil, fmt.Errorf("fleet: open room %d: %w", r, err)
		}
		seats = append(seats, pc)
	}

	// Wall-clock bound: the paced lesson plus generous slack for joins,
	// quiz grace periods and stats collection. Watchers stop polling at
	// the deadline even if a driver wedged.
	lesson := time.Duration(cfg.Ticks) * time.Second / time.Duration(cfg.FPS)
	deadline := time.Now().Add(lesson + 30*time.Second)

	drivers := make([]driverOutcome, cfg.Rooms)
	watchers := make([]watcherOutcome, cfg.Rooms*cfg.Watchers)
	var wg sync.WaitGroup
	began := time.Now()
	for r := 0; r < cfg.Rooms; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			drivers[r] = runRoomDriver(&cfg, seats[r], int64(r))
		}(r)
		for w := 0; w < cfg.Watchers; w++ {
			wg.Add(1)
			go func(r, w int) {
				defer wg.Done()
				idx := r*cfg.Watchers + w
				watchers[idx] = runWatcher(&cfg, pkg.Project, seats[r].SessionID(), int64(idx), deadline)
			}(r, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(began)

	sum := &ClassroomSummary{Rooms: cfg.Rooms, Watchers: cfg.Watchers, Elapsed: elapsed}
	sampleErr := func(prefix string, i int, err error) {
		if len(sum.Errors) < 8 {
			sum.Errors = append(sum.Errors, fmt.Sprintf("%s %d: %v", prefix, i, err))
		}
	}
	for i := range drivers {
		d := &drivers[i]
		if d.err != nil {
			sum.DriversFailed++
			sampleErr("driver", i, d.err)
		}
		sum.Published += d.published
		if d.statsOK {
			sum.Renders += d.stats.Renders
			sum.Delivered += d.stats.Delivered
			sum.Skipped += d.stats.Skipped
			sum.AnswersRecorded += d.stats.Answers
			sum.QuizzesAsked += len(d.stats.Quizzes)
		}
	}
	var joins, answers []time.Duration
	for i := range watchers {
		o := &watchers[i]
		if o.err != nil {
			sum.WatchersFailed++
			sampleErr("watcher", i, o.err)
			continue
		}
		sum.ClientDelivered += o.delivered
		sum.AnswersSent += o.answers
		joins = append(joins, o.join)
		answers = append(answers, o.answerRTTs...)
	}
	sum.Join = quantiles(joins)
	sum.Answer = quantiles(answers)
	if secs := elapsed.Seconds(); secs > 0 {
		sum.FramesPerSec = float64(sum.Delivered) / secs
	}
	return sum, nil
}

// runRoomDriver paces one room's lesson from the seat that opened it: one
// act per tick at cfg.FPS — mostly watching (Advance), one policy
// interaction per second of class time, and quizzes held open for the
// cohort before being answered.
func runRoomDriver(cfg *ClassroomConfig, pc *playsvc.Client, seed int64) driverOutcome {
	var o driverOutcome
	o.published = 1 // the create-time publication (seq 1)
	var err error
	policy := cfg.Policy.New()
	rng := rand.New(rand.NewSource(cfg.Seed + seed*7919))
	interval := time.Second / time.Duration(cfg.FPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	holdLeft := 0
	heldQuiz := ""
	for tick := 0; tick < cfg.Ticks; tick++ {
		<-ticker.C
		switch q, pending := pc.PendingQuiz(); {
		case pending && q.ID != heldQuiz:
			// A fresh quiz: start the cohort window and keep the video
			// rolling underneath it (quizzes overlay playback).
			heldQuiz, holdLeft = q.ID, cfg.QuizHoldTicks
			err = pc.Advance(1)
		case pending && holdLeft > 0:
			holdLeft--
			err = pc.Advance(1)
		case pending:
			_, err = pc.AnswerQuiz(q.ID, q.Answer)
		case (tick+1)%cfg.FPS == 0:
			// One interaction per second of class time; the rest of the
			// ticks are plain watching.
			if a, ok := policy.Choose(pc, sim.AvailableActions(pc), rng); ok {
				sim.Apply(pc, a)
				err = pc.Err()
			} else {
				err = pc.Advance(1)
			}
		default:
			err = pc.Advance(1)
		}
		if err != nil {
			o.err = fmt.Errorf("driver tick %d: %w", tick, err)
			break
		}
		o.published++
	}
	// Grace: let the cohort answer anything still pending, answer it, and
	// let the final publication drain to every ring before the stats
	// snapshot freezes the tallies.
	grace := 2*watchHold(cfg) + 500*time.Millisecond
	if q, pending := pc.PendingQuiz(); pending && o.err == nil {
		time.Sleep(grace)
		if _, err := pc.AnswerQuiz(q.ID, q.Answer); err == nil {
			o.published++
		}
	}
	time.Sleep(grace)
	statsURL := cfg.PlayURL + playsvc.RoomStatsPath + "?room=" + url.QueryEscape(pc.SessionID())
	if err := faultnet.GetJSON(cfg.HTTP, statsURL, &o.stats); err == nil {
		o.statsOK = true
	} else if o.err == nil {
		o.err = fmt.Errorf("driver stats: %w", err)
	}
	// Leaving closes the driven session AND the room: watchers see the
	// room end and exit instead of polling out their deadline.
	if err := pc.Close(); err != nil && o.err == nil {
		o.err = fmt.Errorf("driver leave: %w", err)
	}
	return o
}

// watchHold is the server-side hold watchers request per poll: two frame
// intervals, clamped to something humane for very slow or very fast paces.
func watchHold(cfg *ClassroomConfig) time.Duration {
	hold := 2 * time.Second / time.Duration(cfg.FPS)
	if hold < 100*time.Millisecond {
		hold = 100 * time.Millisecond
	}
	if hold > 2*time.Second {
		hold = 2 * time.Second
	}
	return hold
}

// runWatcher follows one room to the end: join, long-poll the broadcast,
// answer each quiz once. A watcher answers correctly with
// probability cfg.Correctness, otherwise picks a random wrong choice.
func runWatcher(cfg *ClassroomConfig, proj *core.Project, roomID string, seed int64, deadline time.Time) watcherOutcome {
	var o watcherOutcome
	rng := rand.New(rand.NewSource(cfg.Seed + seed*104729 + 13))
	joinBegan := time.Now()
	wc, err := playsvc.JoinRoom(playsvc.RoomClientOptions{BaseURL: cfg.PlayURL, Room: roomID, HTTP: cfg.HTTP})
	if err != nil {
		o.err = fmt.Errorf("join: %w", err)
		return o
	}
	o.join = time.Since(joinBegan)
	answered := map[string]bool{}
	answer := func(quizID string) {
		if quizID == "" || answered[quizID] {
			return
		}
		q := proj.QuizByID(quizID)
		if q == nil || len(q.Choices) == 0 {
			return
		}
		choice := q.Answer
		if rng.Float64() >= cfg.Correctness && len(q.Choices) > 1 {
			// A wrong answer, uniformly over the distractors.
			choice = rng.Intn(len(q.Choices) - 1)
			if choice >= q.Answer {
				choice++
			}
		}
		began := time.Now()
		if _, err := wc.Answer(quizID, choice); err == nil {
			o.answerRTTs = append(o.answerRTTs, time.Since(began))
			o.answers++
			answered[quizID] = true
		}
	}
	answer(wc.PendingQuiz()) // a quiz may already be open at join time
	hold := watchHold(cfg)
	for time.Now().Before(deadline) {
		var u *playsvc.WatchUpdate
		u, _, err = wc.Poll(hold)
		if u != nil {
			o.delivered++
			answer(u.Quiz)
		}
		if err != nil {
			var pe *playsvc.Error
			if errors.As(err, &pe) && pe.Status == http.StatusNotFound {
				err = nil // the driver ended the room: a clean dismissal
			}
			break
		}
	}
	o.skipped = wc.Skipped()
	o.err = err
	wc.Close() // best effort; the room is usually gone by now
	return o
}
