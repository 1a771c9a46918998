// Package analytics aggregates runtime telemetry into the learning reports
// lecturers would read — time per scenario, decisions made, knowledge
// delivered, reward timeline. It implements runtime.Observer so a Collector
// can be plugged straight into a Session.
package analytics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/runtime"
)

// Collector accumulates one session's telemetry. It is safe for concurrent
// use (the simulator runs many sessions across goroutines, each with its
// own Collector; safety is cheap and prevents misuse).
type Collector struct {
	mu     sync.Mutex
	events []runtime.Event
}

// Record implements runtime.Observer.
func (c *Collector) Record(e runtime.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Events returns a copy of the raw event log.
func (c *Collector) Events() []runtime.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]runtime.Event(nil), c.events...)
}

// Report is the digested view of one session.
type Report struct {
	TotalEvents   int
	Decisions     int            // clicks + takes + uses + dialogue turns
	Interactions  map[string]int // event kind → count
	Knowledge     []string       // units in delivery order
	Rewards       []string       // rewards in grant order
	ScenarioTicks map[string]int // ticks spent per scenario
	Scenarios     []string       // visit order (deduplicated transitions)
	Errors        []string
	Ended         bool
	Outcome       string
	LastTick      int
	QuizAsked     int
	QuizCorrect   int
}

// decisionKinds are the event kinds that count as player decisions.
var decisionKinds = map[string]bool{
	"click": true, "examine": true, "take": true, "use": true, "dialogue": true,
}

// Digest reduces the raw events to a Report. startScenario names the
// scenario in which play began (ticks before the first goto accrue there).
func (c *Collector) Digest(startScenario string) *Report {
	events := c.Events()
	r := &Report{
		Interactions:  map[string]int{},
		ScenarioTicks: map[string]int{},
	}
	cur := startScenario
	r.Scenarios = []string{cur}
	lastTick := 0
	for _, e := range events {
		r.TotalEvents++
		r.Interactions[e.Kind]++
		if decisionKinds[e.Kind] {
			r.Decisions++
		}
		switch e.Kind {
		case "goto":
			r.ScenarioTicks[cur] += e.Tick - lastTick
			lastTick = e.Tick
			cur = e.Detail
			if len(r.Scenarios) == 0 || r.Scenarios[len(r.Scenarios)-1] != cur {
				r.Scenarios = append(r.Scenarios, cur)
			}
		case "learn":
			r.Knowledge = append(r.Knowledge, e.Detail)
		case "reward":
			r.Rewards = append(r.Rewards, e.Detail)
		case "quiz-asked":
			r.QuizAsked++
		case "quiz-correct":
			r.QuizCorrect++
		case "error":
			r.Errors = append(r.Errors, e.Detail)
		case "end":
			r.Ended = true
			r.Outcome = e.Detail
		}
		if e.Tick > r.LastTick {
			r.LastTick = e.Tick
		}
	}
	r.ScenarioTicks[cur] += r.LastTick - lastTick
	return r
}

// UniqueKnowledge returns the distinct knowledge units delivered.
func (r *Report) UniqueKnowledge() []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range r.Knowledge {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// String renders the report as the text table `vgbl-play --report` prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PLAY SESSION REPORT\n")
	fmt.Fprintf(&b, "  events: %d  decisions: %d  ticks: %d\n", r.TotalEvents, r.Decisions, r.LastTick)
	if r.Ended {
		fmt.Fprintf(&b, "  outcome: %s\n", r.Outcome)
	} else {
		fmt.Fprintf(&b, "  outcome: (in progress)\n")
	}
	fmt.Fprintf(&b, "  scenario path: %s\n", strings.Join(r.Scenarios, " -> "))
	var names []string
	for name := range r.ScenarioTicks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "    %-16s %5d ticks\n", name, r.ScenarioTicks[name])
	}
	fmt.Fprintf(&b, "  knowledge (%d): %s\n", len(r.UniqueKnowledge()), strings.Join(r.UniqueKnowledge(), ", "))
	fmt.Fprintf(&b, "  rewards (%d): %s\n", len(r.Rewards), strings.Join(r.Rewards, ", "))
	if len(r.Errors) > 0 {
		fmt.Fprintf(&b, "  errors (%d): %s\n", len(r.Errors), strings.Join(r.Errors, "; "))
	}
	return b.String()
}

// Aggregate summarizes many session reports (one simulated cohort).
type Aggregate struct {
	Sessions        int
	MeanDecisions   float64
	MeanKnowledge   float64 // unique units per session
	MeanRewards     float64
	CompletionRate  float64 // sessions that reached an end
	MeanTicks       float64
	KnowledgeCounts map[string]int // unit → sessions that received it
	// QuizAccuracy is total correct answers over total answered quizzes
	// across the cohort (0 when no quizzes were asked).
	QuizAccuracy float64
}

// Aggregate combines reports.
func AggregateReports(reports []*Report) Aggregate {
	var ro Rolling
	for _, r := range reports {
		ro.Add(r)
	}
	return ro.Aggregate()
}

// Rolling is an incrementally mergeable cohort accumulator: the exact sums
// behind an Aggregate, kept as integers so partial accumulators from
// different goroutines (or different telemetry stores) can be merged without
// losing precision. The zero value is ready to use. Rolling is NOT
// goroutine-safe; accumulate per goroutine and Merge, or lock externally.
type Rolling struct {
	Sessions        int
	Events          int // total events across sessions
	Decisions       int
	Knowledge       int // total knowledge deliveries (with repeats)
	UniqueKnowledge int // sum over sessions of distinct units delivered
	Rewards         int
	Completed       int // sessions that reached an end event
	Ticks           int // sum of per-session LastTick
	QuizAsked       int
	QuizAnswered    int
	QuizCorrect     int
	KnowledgeCounts map[string]int // unit → sessions that received it
	Outcomes        map[string]int // end label → sessions
}

// Add folds one session report into the accumulator.
func (ro *Rolling) Add(r *Report) {
	ro.Sessions++
	ro.Events += r.TotalEvents
	ro.Decisions += r.Decisions
	ro.Knowledge += len(r.Knowledge)
	ro.Rewards += len(r.Rewards)
	ro.Ticks += r.LastTick
	ro.QuizAsked += r.QuizAsked
	ro.QuizAnswered += r.Interactions["quiz-correct"] + r.Interactions["quiz-wrong"]
	ro.QuizCorrect += r.QuizCorrect
	if r.Ended {
		ro.Completed++
		if ro.Outcomes == nil {
			ro.Outcomes = map[string]int{}
		}
		ro.Outcomes[r.Outcome]++
	}
	uniq := r.UniqueKnowledge()
	ro.UniqueKnowledge += len(uniq)
	if len(uniq) > 0 && ro.KnowledgeCounts == nil {
		ro.KnowledgeCounts = map[string]int{}
	}
	for _, k := range uniq {
		ro.KnowledgeCounts[k]++
	}
}

// Aggregate digests the sums into the mean-based cohort view.
func (ro *Rolling) Aggregate() Aggregate {
	a := Aggregate{Sessions: ro.Sessions, KnowledgeCounts: map[string]int{}}
	for k, n := range ro.KnowledgeCounts {
		a.KnowledgeCounts[k] = n
	}
	if ro.Sessions == 0 {
		return a
	}
	n := float64(ro.Sessions)
	a.MeanDecisions = float64(ro.Decisions) / n
	a.MeanKnowledge = float64(ro.UniqueKnowledge) / n
	a.MeanRewards = float64(ro.Rewards) / n
	a.MeanTicks = float64(ro.Ticks) / n
	a.CompletionRate = float64(ro.Completed) / n
	if ro.QuizAnswered > 0 {
		a.QuizAccuracy = float64(ro.QuizCorrect) / float64(ro.QuizAnswered)
	}
	return a
}
