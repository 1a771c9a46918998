package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/media/raster"
)

// tinyProject builds a minimal two-scenario game used across the tests:
// a classroom with a broken computer and a market selling a RAM module.
func tinyProject() *Project {
	p := NewProject("Fix The Computer")
	p.StartScenario = "classroom"
	p.Items = []*ItemDef{
		{ID: "coin", Name: "Coin"},
		{ID: "ram module", Name: "RAM Module", Description: "A DDR2 stick"},
		{ID: "repair-badge", Name: "Repair Badge", Reward: true},
	}
	p.Knowledge = []*KnowledgeUnit{
		{ID: "ram-identification", Topic: "Hardware"},
		{ID: "ram-installation", Topic: "Hardware"},
	}
	p.Missions = []*Mission{
		{ID: "fix", Title: "Fix the computer", DoneFlag: "fixed", Reward: "repair-badge", Knowledge: "ram-installation"},
	}
	p.InitialVars = map[string]int{"score": 0}
	p.Scenarios = []*Scenario{
		{
			ID: "classroom", Name: "Classroom", Segment: "seg-classroom",
			OnEnter: `say "The teacher looks worried.";`,
			Objects: []*Object{
				{
					ID: "teacher", Name: "Teacher", Kind: NPC, Enabled: true,
					Region:   raster.Rect{X: 10, Y: 10, W: 20, H: 30},
					Dialogue: []string{"The computer is dead.", "Can you fix it?"},
				},
				{
					ID: "computer", Name: "Computer", Kind: Hotspot, Enabled: true,
					Region:      raster.Rect{X: 50, Y: 20, W: 25, H: 20},
					Description: "An old beige tower. It will not boot.",
					Events: []Event{
						{Trigger: OnExamine, Script: `say "The RAM slot is empty!"; learn "ram-identification";`},
						{Trigger: OnUse, UseItem: "ram module", Script: `
							take "ram module";
							setflag fixed true;
							reward "repair-badge";
							learn "ram-installation";
							set score = score + 50;
							end "victory";
						`},
						{Trigger: OnClick, Script: `goto "market";`},
					},
				},
			},
		},
		{
			ID: "market", Name: "Market", Segment: "seg-market",
			Objects: []*Object{
				{
					ID: "ram-on-stall", Name: "RAM Module", Kind: Item, Enabled: true, Takeable: true,
					Region: raster.Rect{X: 30, Y: 40, W: 12, H: 8},
					Sprite: SpriteSpec{Shape: "chip", Color: raster.Green},
					Events: []Event{
						{Trigger: OnTake, Script: `give "ram module"; say "Got it."; goto "classroom";`},
					},
				},
			},
		},
	}
	return p
}

func TestProjectLookups(t *testing.T) {
	p := tinyProject()
	if p.ScenarioByID("market") == nil || p.ScenarioByID("nope") != nil {
		t.Error("ScenarioByID wrong")
	}
	if p.ItemByID("coin") == nil || p.ItemByID("gold") != nil {
		t.Error("ItemByID wrong")
	}
	if p.KnowledgeByID("ram-installation") == nil || p.KnowledgeByID("x") != nil {
		t.Error("KnowledgeByID wrong")
	}
	s, o := p.FindObject("ram-on-stall")
	if s == nil || s.ID != "market" || o.Name != "RAM Module" {
		t.Error("FindObject wrong")
	}
	if _, o := p.FindObject("ghost"); o != nil {
		t.Error("FindObject found a ghost")
	}
	sc := p.ScenarioByID("classroom")
	if sc.ObjectByID("computer") == nil || sc.ObjectByID("ram-on-stall") != nil {
		t.Error("ObjectByID wrong")
	}
}

func TestEventFor(t *testing.T) {
	p := tinyProject()
	_, comp := p.FindObject("computer")
	if comp.EventFor(OnExamine, "") == nil {
		t.Error("examine event missing")
	}
	if comp.EventFor(OnUse, "ram module") == nil {
		t.Error("use event missing")
	}
	if comp.EventFor(OnUse, "banana") != nil {
		t.Error("use event matched wrong item")
	}
	if comp.EventFor(OnTake, "") != nil {
		t.Error("phantom take event")
	}
}

func TestProjectJSONRoundTrip(t *testing.T) {
	p := tinyProject()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalProject(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("project JSON not stable across round trip")
	}
	if q.Title != p.Title || len(q.Scenarios) != 2 {
		t.Error("content lost in round trip")
	}
	if q.Scenarios[0].Objects[1].Events[1].UseItem != "ram module" {
		t.Error("event detail lost")
	}
}

func TestUnmarshalRejectsBadVersion(t *testing.T) {
	if _, err := UnmarshalProject([]byte(`{"version": 99, "title": "x"}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := UnmarshalProject([]byte(`{garbage`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCompileEvents(t *testing.T) {
	p := tinyProject()
	progs, err := p.CompileEvents()
	if err != nil {
		t.Fatal(err)
	}
	// on_enter + examine + use + click + take = 5
	if len(progs) != 5 {
		t.Fatalf("compiled %d programs, want 5", len(progs))
	}
	if progs[EventKey("classroom", "computer", OnUse, "ram module")] == nil {
		t.Error("use event not keyed correctly")
	}
	if progs[EventKey("classroom", "", OnEnter, "")] == nil {
		t.Error("scenario enter not keyed correctly")
	}
	// A broken script fails with the object named.
	p.Scenarios[0].Objects[0].Events = []Event{{Trigger: OnClick, Script: `say ;`}}
	if _, err := p.CompileEvents(); err == nil || !strings.Contains(err.Error(), "teacher") {
		t.Errorf("compile error not attributed: %v", err)
	}
}

func TestStateInventoryMultiset(t *testing.T) {
	s := NewState(tinyProject())
	s.AddItem("coin")
	s.AddItem("coin")
	s.AddItem("ram module")
	if s.CountItem("coin") != 2 || !s.HasItem("ram module") {
		t.Fatal("multiset broken")
	}
	if !s.RemoveItem("coin") || s.CountItem("coin") != 1 {
		t.Fatal("remove first occurrence broken")
	}
	if s.RemoveItem("sword") {
		t.Fatal("removed non-existent item")
	}
	if s.HasItem("sword") {
		t.Fatal("has non-existent item")
	}
}

func TestQuickInventoryInvariant(t *testing.T) {
	// Adding n items then removing them all leaves the inventory empty;
	// counts never go negative.
	err := quick.Check(func(names []uint8) bool {
		s := NewState(tinyProject())
		for _, n := range names {
			s.AddItem(string(rune('a' + n%5)))
		}
		for _, n := range names {
			if !s.RemoveItem(string(rune('a' + n%5))) {
				return false
			}
		}
		return len(s.Inventory) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewStateInitialization(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	if s.Scenario != "classroom" || s.Visited["classroom"] != 1 {
		t.Error("start scenario not entered")
	}
	if s.Vars["score"] != 0 {
		t.Error("initial vars missing")
	}
	// Mutating state must not leak into project initial vars.
	s.Vars["score"] = 99
	if p.InitialVars["score"] != 0 {
		t.Error("state aliased project initial vars")
	}
}

func TestStateClone(t *testing.T) {
	s := NewState(tinyProject())
	s.AddItem("coin")
	s.Flags["a"] = true
	c := s.Clone()
	c.AddItem("gem")
	c.Flags["b"] = true
	c.Visited["market"] = 3
	if s.HasItem("gem") || s.Flags["b"] || s.Visited["market"] != 0 {
		t.Fatal("clone shares state with original")
	}
}

func TestObjectVisibility(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	_, comp := p.FindObject("computer")
	if !s.ObjectVisible(comp) {
		t.Fatal("enabled object should be visible")
	}
	s.Hidden["computer"] = true
	if s.ObjectVisible(comp) {
		t.Fatal("hidden override ignored")
	}
	s.Hidden["computer"] = false
	if !s.ObjectVisible(comp) {
		t.Fatal("explicit un-hide ignored")
	}
}

func TestSinkAppliesEffects(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	sink := NewSink(p, s)
	var said, popups, opens []string
	sink.OnSay = func(m string) { said = append(said, m) }
	sink.OnPopup = func(k, c string) { popups = append(popups, k+":"+c) }
	sink.OnOpen = func(u string) { opens = append(opens, u) }
	gotoed := ""
	sink.OnGoto = func(sc string) { gotoed = sc }

	sink.Say("hello")
	sink.Give("coin")
	sink.SetFlag("f", true)
	sink.SetVar("score", 10)
	sink.Goto("market")
	sink.Popup("text", "READ ME")
	sink.Learn("ram-identification")
	sink.Reward("repair-badge")
	sink.Open("http://example.com")
	sink.Disable("computer")
	sink.End("victory")

	if len(said) != 1 || s.CountItem("coin") != 1 || !s.Flags["f"] || s.Vars["score"] != 10 {
		t.Error("basic effects failed")
	}
	if gotoed != "market" || s.Scenario != "market" || s.Visited["market"] != 1 {
		t.Error("goto failed")
	}
	if len(popups) != 1 || popups[0] != "text:READ ME" {
		t.Error("popup failed")
	}
	if !s.Learned["ram-identification"] {
		t.Error("learn failed")
	}
	if len(s.Rewards) != 1 || !s.HasItem("repair-badge") {
		t.Error("reward failed")
	}
	if len(opens) != 1 {
		t.Error("open failed")
	}
	if !s.Hidden["computer"] {
		t.Error("disable failed")
	}
	if !s.Ended || s.Outcome != "victory" {
		t.Error("end failed")
	}
	if len(sink.Problems) != 0 {
		t.Errorf("unexpected problems: %v", sink.Problems)
	}
}

func TestSinkSoftErrors(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	sink := NewSink(p, s)
	sink.Goto("atlantis")           // unknown scenario
	sink.Reward("coin")             // not a reward item
	sink.Reward("excalibur")        // unknown item
	sink.Learn("quantum-mechanics") // unknown unit
	sink.Enable("ghost")            // unknown object
	if len(sink.Problems) != 5 {
		t.Fatalf("problems = %v", sink.Problems)
	}
	if s.Scenario != "classroom" {
		t.Error("bad goto changed scenario")
	}
	if len(s.Rewards) != 0 || len(s.Learned) != 0 {
		t.Error("soft errors mutated state")
	}
}

func TestSinkTake(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	sink := NewSink(p, s)
	if sink.Take("coin") {
		t.Error("took item not held")
	}
	s.AddItem("coin")
	took := ""
	sink.OnTake = func(i string) { took = i }
	if !sink.Take("coin") || took != "coin" {
		t.Error("take failed")
	}
}

func TestValidateCleanProject(t *testing.T) {
	p := tinyProject()
	probs := p.Validate([]string{"seg-classroom", "seg-market"})
	for _, pr := range probs {
		if pr.Severity == Error {
			t.Errorf("unexpected error: %s", pr)
		}
	}
	if HasErrors(probs) {
		t.Fatal("clean project reported errors")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Project)
		want   string
	}{
		{"missing start", func(p *Project) { p.StartScenario = "" }, "no start scenario"},
		{"bad start", func(p *Project) { p.StartScenario = "mars" }, "does not exist"},
		{"dup scenario", func(p *Project) { p.Scenarios = append(p.Scenarios, &Scenario{ID: "market", Segment: "seg-market"}) }, "duplicate scenario"},
		{"missing segment", func(p *Project) { p.Scenarios[0].Segment = "" }, "no video segment"},
		{"unknown segment", func(p *Project) { p.Scenarios[0].Segment = "seg-void" }, "not present in the video container"},
		{"dup object", func(p *Project) {
			p.Scenarios[1].Objects = append(p.Scenarios[1].Objects, &Object{ID: "computer", Kind: Hotspot, Region: raster.Rect{W: 1, H: 1}})
		}, "duplicate object"},
		{"bad kind", func(p *Project) { p.Scenarios[0].Objects[0].Kind = "wizard" }, "unknown object kind"},
		{"empty region", func(p *Project) { p.Scenarios[0].Objects[0].Region = raster.Rect{} }, "region is empty"},
		{"bad goto", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[2].Script = `goto "atlantis";`
		}, "not a scenario"},
		{"bad learn", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[0].Script = `learn "alchemy";`
		}, "unknown knowledge unit"},
		{"bad reward", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[0].Script = `reward "coin";`
		}, "not marked as a reward"},
		{"script error", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[0].Script = `say ;`
		}, "script error"},
		{"use without item", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[1].UseItem = ""
		}, "use trigger without use_item"},
		{"bad condition", func(p *Project) {
			p.Scenarios[0].Objects[1].Events[0].Condition = `1 +`
		}, "condition error"},
		{"enter on object", func(p *Project) {
			p.Scenarios[0].Objects[1].Events = append(p.Scenarios[0].Objects[1].Events, Event{Trigger: OnEnter, Script: `say "x";`})
		}, "belong to scenarios"},
		{"mission flag", func(p *Project) { p.Missions[0].DoneFlag = "" }, "no done_flag"},
		{"mission reward", func(p *Project) { p.Missions[0].Reward = "gold" }, "unknown"},
		{"bad enable", func(p *Project) {
			p.Scenarios[0].OnEnter = `enable "ghost";`
		}, "unknown object"},
	}
	for _, c := range cases {
		p := tinyProject()
		c.mutate(p)
		probs := p.Validate([]string{"seg-classroom", "seg-market"})
		found := false
		for _, pr := range probs {
			if pr.Severity == Error && strings.Contains(pr.Msg, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error containing %q in %v", c.name, c.want, probs)
		}
	}
}

// TestValidateConditionsReadFlagsAndVars: a condition is checked against an
// empty environment, whose flags read false and vars 0, so a well-typed
// condition over a flag and a var passes and one that misuses either fails.
func TestValidateConditionsReadFlagsAndVars(t *testing.T) {
	for _, c := range []struct {
		cond string
		bad  bool
	}{
		{`flag("fixed") || score > 1`, false},
		{`flag("fixed") + 1 > 0`, true},
		{`!flag("fixed") && score`, true},
	} {
		p := tinyProject()
		p.Scenarios[0].Objects[1].Events[0].Condition = c.cond
		bad := false
		for _, pr := range p.Validate([]string{"seg-classroom", "seg-market"}) {
			if pr.Severity == Error && strings.Contains(pr.Msg, "condition error") {
				bad = true
			}
		}
		if bad != c.bad {
			t.Errorf("%s: condition error = %v, want %v", c.cond, bad, c.bad)
		}
	}
}

func TestValidateWarnings(t *testing.T) {
	p := tinyProject()
	// Unreachable scenario.
	p.Scenarios = append(p.Scenarios, &Scenario{ID: "island", Name: "Island", Segment: "seg-classroom"})
	// NPC without dialogue.
	p.Scenarios[0].Objects[0].Dialogue = nil
	probs := p.Validate(nil) // nil segments: skip segment checks
	var warnTexts []string
	for _, pr := range probs {
		if pr.Severity == Warning {
			warnTexts = append(warnTexts, pr.String())
		}
	}
	joined := strings.Join(warnTexts, "\n")
	if !strings.Contains(joined, "unreachable") {
		t.Errorf("missing unreachable warning in:\n%s", joined)
	}
	if !strings.Contains(joined, "no dialogue") {
		t.Errorf("missing NPC dialogue warning in:\n%s", joined)
	}
	if HasErrors(probs) {
		t.Error("warnings flagged as errors")
	}
}

func TestMissionCompletion(t *testing.T) {
	p := tinyProject()
	s := NewState(p)
	m := p.Missions[0]
	if s.MissionComplete(m) {
		t.Fatal("mission complete at start")
	}
	s.Flags["fixed"] = true
	if !s.MissionComplete(m) {
		t.Fatal("mission not complete after flag")
	}
}

func TestLearnedUnitsSorted(t *testing.T) {
	s := NewState(tinyProject())
	s.Learned["z-unit"] = true
	s.Learned["a-unit"] = true
	got := s.LearnedUnits()
	if len(got) != 2 || got[0] != "a-unit" || got[1] != "z-unit" {
		t.Fatalf("LearnedUnits = %v", got)
	}
}
