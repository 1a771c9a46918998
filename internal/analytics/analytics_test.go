package analytics

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/runtime"
)

func sampleEvents() []runtime.Event {
	return []runtime.Event{
		{Tick: 0, Kind: "say", Detail: "welcome"},
		{Tick: 2, Kind: "examine", Detail: "computer"},
		{Tick: 3, Kind: "learn", Detail: "ram-identification"},
		{Tick: 4, Kind: "take", Detail: "desk-coin"},
		{Tick: 8, Kind: "goto", Detail: "market"},
		{Tick: 10, Kind: "take", Detail: "stall-ram"},
		{Tick: 11, Kind: "learn", Detail: "hardware-shopping"},
		{Tick: 14, Kind: "goto", Detail: "classroom"},
		{Tick: 16, Kind: "use", Detail: "ram module on computer"},
		{Tick: 16, Kind: "learn", Detail: "ram-installation"},
		{Tick: 16, Kind: "learn", Detail: "ram-installation"}, // duplicate
		{Tick: 16, Kind: "reward", Detail: "repair-badge"},
		{Tick: 16, Kind: "end", Detail: "victory"},
	}
}

func collectorWith(events []runtime.Event) *Collector {
	c := &Collector{}
	for _, e := range events {
		c.Record(e)
	}
	return c
}

func TestDigest(t *testing.T) {
	r := collectorWith(sampleEvents()).Digest("classroom")
	if r.TotalEvents != 13 {
		t.Errorf("events = %d", r.TotalEvents)
	}
	if r.Decisions != 4 { // examine, take, take, use
		t.Errorf("decisions = %d, want 4", r.Decisions)
	}
	if !r.Ended || r.Outcome != "victory" {
		t.Error("outcome lost")
	}
	if got := r.UniqueKnowledge(); len(got) != 3 {
		t.Errorf("unique knowledge = %v", got)
	}
	if len(r.Knowledge) != 4 {
		t.Errorf("raw knowledge = %v", r.Knowledge)
	}
	// Scenario path and time accounting.
	if strings.Join(r.Scenarios, ",") != "classroom,market,classroom" {
		t.Errorf("path = %v", r.Scenarios)
	}
	// classroom: 0..8 then 14..16 = 10; market: 8..14 = 6.
	if r.ScenarioTicks["classroom"] != 10 || r.ScenarioTicks["market"] != 6 {
		t.Errorf("ticks = %v", r.ScenarioTicks)
	}
}

func TestReportString(t *testing.T) {
	r := collectorWith(sampleEvents()).Digest("classroom")
	s := r.String()
	for _, want := range []string{"victory", "classroom -> market", "repair-badge", "decisions: 4"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestEmptyCollector(t *testing.T) {
	r := (&Collector{}).Digest("start")
	if r.TotalEvents != 0 || r.Decisions != 0 || r.Ended {
		t.Error("empty digest wrong")
	}
	if r.ScenarioTicks["start"] != 0 {
		t.Error("start scenario should have zero ticks")
	}
	if !strings.Contains(r.String(), "in progress") {
		t.Error("in-progress marker missing")
	}
}

func TestAggregateReports(t *testing.T) {
	r1 := collectorWith(sampleEvents()).Digest("classroom")
	r2 := (&Collector{}).Digest("classroom") // empty session
	a := AggregateReports([]*Report{r1, r2})
	if a.Sessions != 2 {
		t.Fatal("session count")
	}
	if a.MeanDecisions != 2 { // (4+0)/2
		t.Errorf("mean decisions = %f", a.MeanDecisions)
	}
	if a.CompletionRate != 0.5 {
		t.Errorf("completion = %f", a.CompletionRate)
	}
	if a.MeanKnowledge != 1.5 {
		t.Errorf("mean knowledge = %f", a.MeanKnowledge)
	}
	if a.KnowledgeCounts["ram-installation"] != 1 {
		t.Errorf("knowledge counts = %v", a.KnowledgeCounts)
	}
	empty := AggregateReports(nil)
	if empty.Sessions != 0 {
		t.Error("empty aggregate")
	}
}

func TestCollectorConcurrentSafety(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Record(runtime.Event{Tick: i, Kind: "click"})
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Events()); got != 800 {
		t.Fatalf("events = %d, want 800", got)
	}
}
