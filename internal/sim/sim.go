// Package sim drives game sessions with simulated learners.
//
// The paper claims (C3, C4) that exploration delivers knowledge and that
// rewards motivate completion — claims about mechanisms, made without human
// trials. The simulator makes them measurable: policy bots with different
// exploration styles and motivation models play the same packages the
// interactive runtime serves to people, and experiments E6/E7 aggregate
// their analytics.
package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/runtime"
)

// Game is the session surface the simulator drives. *runtime.Session
// implements it directly (local play); playsvc.Client implements it over
// HTTP (server-hosted play) — the same policies, boredom model and traces
// work unchanged against either, which is what lets the fleet exercise a
// remote play service with the exact learners it simulates locally.
type Game interface {
	Project() *core.Project
	Scenario() *core.Scenario
	State() *core.State
	Ended() bool
	Messages() []string
	PendingQuiz() (*core.Quiz, bool)
	AnswerQuiz(quizID string, choice int) (correct bool, err error)
	Click(vx, vy int)
	Examine(objectID string)
	Talk(objectID string)
	Take(objectID string) bool
	UseItemOn(item, objectID string)
	SelectItem(item string) error
	ClearSelection()
	GotoScenario(id string) error
	// Advance ticks video playback (the watching time between actions).
	Advance(ticks int) error
	// Watch renders the current presentation frame (remotely: fetches it).
	Watch() error
}

// Action is one interaction a learner can perform.
type Action struct {
	Kind   string `json:"kind"` // "talk", "examine", "take", "click", "use", "goto"
	Object string `json:"object,omitempty"`
	Item   string `json:"item,omitempty"` // for "use"
}

// String renders the action compactly ("use ram module on computer").
func (a Action) String() string {
	if a.Kind == "use" {
		return fmt.Sprintf("use %s on %s", a.Item, a.Object)
	}
	return a.Kind + " " + a.Object
}

// AvailableActions enumerates every interaction currently possible, in
// deterministic order: per visible object its kind-appropriate verbs, then
// item×object use combinations.
func AvailableActions(s Game) []Action {
	sc := s.Scenario()
	if sc == nil || s.Ended() {
		return nil
	}
	var out []Action
	st := s.State()
	for _, o := range sc.Objects {
		if !st.ObjectVisible(o) {
			continue
		}
		switch o.Kind {
		case core.NPC:
			out = append(out, Action{Kind: "talk", Object: o.ID})
		case core.Item:
			out = append(out, Action{Kind: "examine", Object: o.ID})
			if o.Takeable {
				out = append(out, Action{Kind: "take", Object: o.ID})
			}
		default:
			out = append(out, Action{Kind: "examine", Object: o.ID})
			out = append(out, Action{Kind: "click", Object: o.ID})
		}
	}
	seen := map[string]bool{}
	for _, item := range st.Inventory {
		if seen[item] {
			continue
		}
		seen[item] = true
		for _, o := range sc.Objects {
			if st.ObjectVisible(o) && o.Kind != core.Item {
				out = append(out, Action{Kind: "use", Object: o.ID, Item: item})
			}
		}
	}
	return out
}

// Apply performs the action on the session.
func Apply(s Game, a Action) {
	switch a.Kind {
	case "talk":
		s.Talk(a.Object)
	case "examine":
		s.Examine(a.Object)
	case "take":
		s.Take(a.Object)
	case "click":
		if _, o := s.Project().FindObject(a.Object); o != nil {
			s.Click(o.Region.X+o.Region.W/2, o.Region.Y+o.Region.H/2)
		}
	case "use":
		s.UseItemOn(a.Item, a.Object)
	case "goto":
		// Policies navigate via nav-button clicks; direct scenario jumps
		// exist for hand-written and replayed traces.
		_ = s.GotoScenario(a.Object)
	}
}

// Policy chooses the next action. Implementations may keep per-run state;
// create one policy instance per run via a Factory.
type Policy interface {
	Name() string
	Choose(s Game, actions []Action, rng *rand.Rand) (Action, bool)
}

// Factory creates fresh policy instances for cohort runs.
type Factory struct {
	Name string
	New  func() Policy
}

// RandomWalker clicks around uniformly at random — the floor of learner
// behavior.
type RandomWalker struct{}

// Name implements Policy.
func (RandomWalker) Name() string { return "random" }

// Choose implements Policy.
func (RandomWalker) Choose(s Game, actions []Action, rng *rand.Rand) (Action, bool) {
	if len(actions) == 0 {
		return Action{}, false
	}
	return actions[rng.Intn(len(actions))], true
}

// Explorer prefers actions it has not tried yet (systematic adventure-game
// exploration), falling back to random repeats.
type Explorer struct {
	tried map[string]bool
}

// NewExplorer returns a fresh explorer.
func NewExplorer() *Explorer { return &Explorer{tried: map[string]bool{}} }

// Name implements Policy.
func (e *Explorer) Name() string { return "explorer" }

// Choose implements Policy.
func (e *Explorer) Choose(s Game, actions []Action, rng *rand.Rand) (Action, bool) {
	if len(actions) == 0 {
		return Action{}, false
	}
	var fresh []Action
	for _, a := range actions {
		if !e.tried[a.String()] {
			fresh = append(fresh, a)
		}
	}
	pick := actions
	if len(fresh) > 0 {
		pick = fresh
	}
	a := pick[rng.Intn(len(pick))]
	e.tried[a.String()] = true
	return a, true
}

// Guided models a learner following the course's guidance: it prioritizes
// using carried items where they fit, collecting items, examining the
// unexamined, talking to NPCs, and finally navigating — roughly what the
// paper's teacher-guided student would do.
type Guided struct {
	tried map[string]bool
}

// NewGuided returns a fresh guided learner.
func NewGuided() *Guided { return &Guided{tried: map[string]bool{}} }

// Name implements Policy.
func (g *Guided) Name() string { return "guided" }

// Choose implements Policy.
func (g *Guided) Choose(s Game, actions []Action, rng *rand.Rand) (Action, bool) {
	if len(actions) == 0 {
		return Action{}, false
	}
	score := func(a Action) int {
		key := a.String()
		novel := !g.tried[key]
		switch a.Kind {
		case "use":
			// Only worthwhile where an OnUse event exists.
			if _, o := s.Project().FindObject(a.Object); o != nil && o.EventFor(core.OnUse, a.Item) != nil {
				if novel {
					return 60
				}
				return 25 // retry: conditions may hold now
			}
			return 1
		case "take":
			if novel {
				return 50
			}
			return 10
		case "examine":
			if novel {
				return 40
			}
			return 2
		case "talk":
			if novel {
				return 30
			}
			return 3
		case "click":
			if novel {
				return 20
			}
			return 5
		}
		return 0
	}
	best := actions[0]
	bestScore := -1
	for _, a := range actions {
		if sc := score(a); sc > bestScore {
			best, bestScore = a, sc
		}
	}
	g.tried[best.String()] = true
	return best, true
}

// Factories for the stock policies.
var (
	RandomFactory   = Factory{Name: "random", New: func() Policy { return RandomWalker{} }}
	ExplorerFactory = Factory{Name: "explorer", New: func() Policy { return NewExplorer() }}
	GuidedFactory   = Factory{Name: "guided", New: func() Policy { return NewGuided() }}
)

// Config tunes a simulated run.
type Config struct {
	MaxSteps int // hard cap on interactions
	// Patience is how many consecutive steps without novelty (no new
	// message, knowledge, scenario or reward) the learner tolerates before
	// quitting — the boredom model.
	Patience int
	// RewardBoost is extra patience granted every time a reward arrives;
	// setting it to zero models a learner indifferent to rewards. This is
	// experiment E7's knob.
	RewardBoost int
	// TicksPerStep advances video playback between actions (watching time).
	TicksPerStep int
	Seed         int64
	// Observer, when set, receives every runtime event in addition to the
	// run's own analytics.Collector — the hook a remote telemetry client
	// plugs into. It must be safe for the goroutine running the session.
	Observer runtime.Observer
	// WatchEvery renders the presentation frame every N steps (0 disables):
	// locally a headless render, remotely a frame fetch over the wire —
	// the knob that adds realistic frame traffic to interactive fleets.
	WatchEvery int
	// RecordTrace captures the action trace in Result.Trace so the exact
	// run can be replayed through a fresh session (see Replay).
	RecordTrace bool
}

// multiObserver forwards each event to every sink.
type multiObserver []runtime.Observer

// Record implements runtime.Observer.
func (m multiObserver) Record(e runtime.Event) {
	for _, o := range m {
		o.Record(e)
	}
}

// Observers tees events to every non-nil observer. It returns nil when
// none are given.
func Observers(obs ...runtime.Observer) runtime.Observer {
	var live multiObserver
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Result is the outcome of one simulated session.
type Result struct {
	Policy     string
	Steps      int
	Completed  bool
	QuitReason string // "ended", "bored", "max-steps", "no-actions"
	Report     *analytics.Report
	Trace      []TraceStep // recorded when Config.RecordTrace is set
}

// Run plays one session with a fresh policy instance.
func Run(pkgBlob []byte, f Factory, cfg Config) (*Result, error) {
	col := &analytics.Collector{}
	s, err := runtime.NewSession(pkgBlob, runtime.Options{Observer: Observers(col, cfg.Observer)})
	if err != nil {
		return nil, err
	}
	return RunGame(s, f, cfg, col)
}

// RunGame drives one policy over an already-constructed game — a local
// runtime.Session or a remote play-service client. col must already be
// wired as (part of) the game's observer so the digested Report matches
// the events the game actually emitted; Run and the fleet do exactly that.
// Config.Observer is NOT consulted here: events flow from the game to the
// observer it was constructed with, so wire any extra sink into the game
// (Observers helps) before calling.
func RunGame(s Game, f Factory, cfg Config, col *analytics.Collector) (*Result, error) {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 200
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 12
	}
	if cfg.TicksPerStep <= 0 {
		cfg.TicksPerStep = 3
	}
	policy := f.New()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Policy: f.Name}

	patience := cfg.Patience
	boredom := 0
	// Novelty tracking. Only *distinct* messages count — hearing "it will
	// not boot" for the fifth time bores a learner, it does not engage
	// them. Knowledge, new scenarios and rewards are novel by construction.
	seenMsgs := map[string]bool{}
	msgCount := 0
	for _, m := range s.Messages() {
		seenMsgs[m] = true
		msgCount++
	}
	lastKnow := len(s.State().Learned)
	lastRewards := len(s.State().Rewards)
	lastScenarios := len(s.State().Visited)

	for res.Steps < cfg.MaxSteps {
		if s.Ended() {
			res.QuitReason = "ended"
			res.Completed = true
			break
		}
		actions := AvailableActions(s)
		a, ok := policy.Choose(s, actions, rng)
		if !ok {
			res.QuitReason = "no-actions"
			break
		}
		Apply(s, a)
		var step *TraceStep
		if cfg.RecordTrace {
			res.Trace = append(res.Trace, TraceStep{Action: a, Ticks: cfg.TicksPerStep})
			step = &res.Trace[len(res.Trace)-1]
		}
		// Answer any quiz the action triggered. Accuracy depends on whether
		// the assessed knowledge unit was actually delivered to this
		// learner: 90% when learned, chance level otherwise — this is what
		// lets E6 report learning *outcomes* rather than mere exposure.
		for {
			quiz, ok := s.PendingQuiz()
			if !ok {
				break
			}
			choice := rng.Intn(len(quiz.Choices))
			knows := quiz.Knowledge == "" || s.State().Learned[quiz.Knowledge]
			if knows && rng.Float64() < 0.9 {
				choice = quiz.Answer
			}
			if _, err := s.AnswerQuiz(quiz.ID, choice); err != nil {
				return nil, err
			}
			if step != nil {
				step.Answers = append(step.Answers, QuizAnswer{Quiz: quiz.ID, Choice: choice})
			}
		}
		if err := s.Advance(cfg.TicksPerStep); err != nil {
			return nil, err
		}
		res.Steps++
		if cfg.WatchEvery > 0 && res.Steps%cfg.WatchEvery == 0 {
			if err := s.Watch(); err != nil {
				return nil, err
			}
		}
		novelty := false
		msgs := s.Messages()
		for _, m := range msgs[msgCount:] {
			if !seenMsgs[m] {
				seenMsgs[m] = true
				novelty = true
			}
		}
		msgCount = len(msgs)
		st := s.State()
		if len(st.Learned) > lastKnow || len(st.Visited) > lastScenarios {
			novelty = true
		}
		if len(st.Rewards) > lastRewards {
			novelty = true
			patience += cfg.RewardBoost * (len(st.Rewards) - lastRewards)
		}
		lastKnow, lastRewards, lastScenarios = len(st.Learned), len(st.Rewards), len(st.Visited)
		if novelty {
			boredom = 0
		} else {
			boredom++
			if boredom >= patience {
				res.QuitReason = "bored"
				break
			}
		}
	}
	if res.QuitReason == "" {
		if s.Ended() {
			res.QuitReason = "ended"
			res.Completed = true
		} else {
			res.QuitReason = "max-steps"
		}
	}
	res.Report = col.Digest(s.Project().StartScenario)
	return res, nil
}

// RunCohort plays n sessions with distinct seeds across worker goroutines
// and returns the results in seed order.
func RunCohort(pkgBlob []byte, f Factory, n int, cfg Config, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = 1
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := cfg
				c.Seed = cfg.Seed + int64(i)*7919
				results[i], errs[i] = Run(pkgBlob, f, c)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Summarize aggregates cohort results.
func Summarize(results []*Result) analytics.Aggregate {
	reports := make([]*analytics.Report, 0, len(results))
	for _, r := range results {
		reports = append(reports, r.Report)
	}
	return analytics.AggregateReports(reports)
}

// CompletionRate is the fraction of results that finished the game.
func CompletionRate(results []*Result) float64 {
	if len(results) == 0 {
		return 0
	}
	done := 0
	for _, r := range results {
		if r.Completed {
			done++
		}
	}
	return float64(done) / float64(len(results))
}
