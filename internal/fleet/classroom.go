// Classroom mode: the shared-session fan-out measurement. Where the base
// fleet gives every learner their own hosted session, a classroom run
// opens R rooms — one driven session each — and points W watchers per
// room at the broadcast. A watcher is a replica: it holds the package it
// downloaded, replays its driver's acts and renders its own frame, so the
// server renders nothing for a room. This is the load shape behind
// experiment E18: the log grows with the drivers, and delivery scales
// with the watchers, never the other way around.
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

	"repro/internal/faultnet"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/netstream"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

const (
	// quizHoldSeconds is how long, in seconds of class time, a pending
	// quiz stays open for the cohort before the driver answers it and the
	// lesson moves on.
	quizHoldSeconds = 2
	// watcherCorrectness is the probability a watcher answers a quiz
	// correctly — what makes cohort tallies look like a class.
	watcherCorrectness = 0.7
)

// ClassroomConfig shapes one shared-session fan-out run.
type ClassroomConfig struct {
	ServerURL string // package server base URL (http://host:port)
	PlayURL   string // play/room service on another host; empty means ServerURL
	Package   string // published course package name

	Rooms    int // shared sessions (default 1)
	Watchers int // watchers per room (default 50)
	FPS      int // driver pace in acts per second (default 10)
	Ticks    int // driver acts per room (default 100)

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

	// Acts counts the acts the rooms logged — their drivers' applied acts.
	// Diverged counts the watchers that did not end at their room's seq
	// in its driver's state (the replica's state tag): zero means every
	// replica replayed its whole lesson — the claim E18 asserts.
	Acts     int64
	Diverged int

	Delivered       int64   // watch replies handed to watchers (server count)
	ClientDelivered int64   // replies watchers applied, one frame rendered each (cross-check)
	RepliesPerSec   float64 // delivered / wall time

	QuizzesAsked    int   // distinct quizzes opened across rooms
	AnswersSent     int   // watcher answers accepted over the wire
	AnswersRecorded int64 // answers present in the final cohort tallies

	WatchersFailed int
	DriversFailed  int

	First  Latency // a watcher's start to its first frame (the catch-up)
	Answer Latency // quiz answer round-trip

	Errors []string // up to 8 sample error messages
}

// String renders the fan-out table the load-test CLI prints.
func (s *ClassroomSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CLASSROOM RUN — %d rooms × %d watchers\n", s.Rooms, s.Watchers)
	fmt.Fprintf(&b, "  wall time      : %v\n", s.Elapsed.Round(time.Millisecond))
	replicas := "every replica at its room's seq and state"
	if s.Diverged > 0 {
		replicas = fmt.Sprintf("%d REPLICAS BEHIND OR DIVERGED", s.Diverged)
	}
	fmt.Fprintf(&b, "  acts logged    : %d (%s)\n", s.Acts, replicas)
	fmt.Fprintf(&b, "  fan-out        : %d replies delivered (%d applied)\n", s.Delivered, s.ClientDelivered)
	fmt.Fprintf(&b, "  throughput     : %.0f replies/s delivered\n", s.RepliesPerSec)
	fmt.Fprintf(&b, "  first frame    : %s\n", s.First)
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
	stats   playsvc.RoomStats
	statsOK bool
	err     error
}

// watcherOutcome is what one watcher hands back: seq and tag are where its
// replica ended.
type watcherOutcome struct {
	first      time.Duration
	answerRTTs []time.Duration
	delivered  int64
	answers    int
	seq        int64
	tag        uint64
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
	// same package the server hosts); every watcher's replica is built from
	// it, and watchers look quiz metadata up in it to answer plausibly.
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

	// Wall-clock bound: the paced lesson plus generous slack for first
	// polls, quiz grace periods and stats collection. Watchers stop polling at
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
				watchers[idx] = runWatcher(&cfg, pkg, seats[r].SessionID(), int64(idx), deadline)
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
		if d.statsOK {
			sum.Acts += d.stats.Seq
			sum.Delivered += d.stats.Delivered
			sum.AnswersRecorded += d.stats.Answers
			sum.QuizzesAsked += len(d.stats.Quizzes)
		}
	}
	var firsts, answers []time.Duration
	for i := range watchers {
		o := &watchers[i]
		if o.err != nil {
			sum.WatchersFailed++
			sampleErr("watcher", i, o.err)
			continue
		}
		if d := &drivers[i/cfg.Watchers]; !d.statsOK || o.seq != d.stats.Seq || o.tag != d.stats.StateTag {
			sum.Diverged++
		}
		sum.ClientDelivered += o.delivered
		sum.AnswersSent += o.answers
		firsts = append(firsts, o.first)
		answers = append(answers, o.answerRTTs...)
	}
	sum.First = quantiles(firsts)
	sum.Answer = quantiles(answers)
	if secs := elapsed.Seconds(); secs > 0 {
		sum.RepliesPerSec = float64(sum.Delivered) / secs
	}
	return sum, nil
}

// runRoomDriver paces one room's lesson from the seat that opened it: one
// act per tick at cfg.FPS — mostly watching (Advance), one policy
// interaction per second of class time, and quizzes held open for the
// cohort before being answered.
func runRoomDriver(cfg *ClassroomConfig, pc *playsvc.Client, seed int64) driverOutcome {
	var o driverOutcome
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
			heldQuiz, holdLeft = q.ID, quizHoldSeconds*cfg.FPS
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
	}
	// Grace: let the cohort answer anything still pending, answer it, and
	// let the final acts reach every watcher before the stats snapshot
	// freezes the tallies and the log.
	grace := 2*watchHold(cfg) + 500*time.Millisecond
	if q, pending := pc.PendingQuiz(); pending && o.err == nil {
		time.Sleep(grace)
		// A failed answer logs nothing: the room's seq, which every
		// watcher must reach, counts only what applied.
		_, _ = pc.AnswerQuiz(q.ID, q.Answer)
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

// runWatcher follows one room to the end: long-poll the driver's acts,
// replay them on the watcher's replica, render its frame once per reply,
// and answer each quiz once. A watcher answers correctly with probability
// watcherCorrectness, otherwise picks a random wrong choice. The catch-up
// is the first poll, which returns as soon as the driver has acted: a quiz
// already open when the watcher starts is pending on its replica.
func runWatcher(cfg *ClassroomConfig, pkg *gamepack.Package, roomID string, seed int64, deadline time.Time) watcherOutcome {
	var o watcherOutcome
	rng := rand.New(rand.NewSource(cfg.Seed + seed*104729 + 13))
	started := time.Now()
	wc, err := playsvc.JoinRoom(playsvc.RoomClientOptions{BaseURL: cfg.PlayURL, Room: roomID, Pkg: pkg, HTTP: cfg.HTTP})
	if err != nil {
		o.err = err
		return o
	}
	answered := map[string]bool{}
	answer := func(quizID string) {
		if quizID == "" || answered[quizID] {
			return
		}
		q := pkg.Project.QuizByID(quizID)
		if q == nil || len(q.Choices) == 0 {
			return
		}
		choice := q.Answer
		if rng.Float64() >= watcherCorrectness && len(q.Choices) > 1 {
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
	hold := watchHold(cfg)
	for time.Now().Before(deadline) {
		var f *raster.Frame
		f, err = wc.Poll(hold)
		if f != nil {
			if o.delivered == 0 {
				o.first = time.Since(started)
			}
			o.delivered++
			answer(wc.PendingQuiz())
		}
		if err != nil {
			var pe *playsvc.Error
			if errors.As(err, &pe) && pe.Status == http.StatusNotFound {
				err = nil // the driver ended the room: a clean dismissal
			}
			break
		}
	}
	o.err = err
	o.seq, o.tag = wc.Seq(), wc.StateTag()
	return o
}
