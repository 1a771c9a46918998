package sim

import (
	"math/rand"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
	"repro/internal/runtime"
)

var classroomBlob []byte

func blob(t testing.TB) []byte {
	t.Helper()
	if classroomBlob == nil {
		b, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
		if err != nil {
			t.Fatal(err)
		}
		classroomBlob = b
	}
	return classroomBlob
}

func TestAvailableActionsEnumerates(t *testing.T) {
	s, err := runtime.NewSession(blob(t), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	actions := AvailableActions(s)
	want := map[string]bool{
		"talk teacher":      true,
		"examine computer":  true,
		"click computer":    true,
		"examine desk-coin": true,
		"take desk-coin":    true,
		"click to-market":   true,
	}
	got := map[string]bool{}
	for _, a := range actions {
		got[a.String()] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing action %q in %v", k, actions)
		}
	}
	// No use actions yet (empty inventory).
	for _, a := range actions {
		if a.Kind == "use" {
			t.Errorf("use action with empty inventory: %v", a)
		}
	}
	// After taking the coin, use actions appear.
	s.Take("desk-coin")
	found := false
	for _, a := range AvailableActions(s) {
		if a.Kind == "use" && a.Item == "coin" {
			found = true
		}
	}
	if !found {
		t.Error("no use actions after acquiring an item")
	}
}

func TestGuidedCompletesClassroom(t *testing.T) {
	res, err := Run(blob(t), GuidedFactory, Config{MaxSteps: 80, Patience: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("guided learner failed: %+v report=%s", res, res.Report)
	}
	if res.Report.Outcome != "victory" {
		t.Errorf("outcome = %q", res.Report.Outcome)
	}
	if got := len(res.Report.UniqueKnowledge()); got != 3 {
		t.Errorf("knowledge = %d, want 3", got)
	}
}

func TestExplorerEventuallyCompletes(t *testing.T) {
	// Across a few seeds, the explorer should finish at least once and
	// always deliver some knowledge.
	completed := 0
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(blob(t), ExplorerFactory, Config{MaxSteps: 150, Patience: 25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed {
			completed++
		}
		if len(res.Report.UniqueKnowledge()) == 0 {
			t.Errorf("seed %d: explorer learned nothing", seed)
		}
	}
	if completed == 0 {
		t.Error("explorer never completed in 5 seeds")
	}
}

func TestRandomWalkerLearnsLessThanGuided(t *testing.T) {
	gRes, err := RunCohort(blob(t), GuidedFactory, 8, Config{MaxSteps: 60, Patience: 12, Seed: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := RunCohort(blob(t), RandomFactory, 8, Config{MaxSteps: 60, Patience: 12, Seed: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, r := Summarize(gRes), Summarize(rRes)
	if g.MeanKnowledge < r.MeanKnowledge {
		t.Errorf("guided (%.2f) should learn at least as much as random (%.2f)",
			g.MeanKnowledge, r.MeanKnowledge)
	}
	if CompletionRate(gRes) < CompletionRate(rRes) {
		t.Errorf("guided completion %.2f below random %.2f", CompletionRate(gRes), CompletionRate(rRes))
	}
}

func TestRewardBoostIncreasesPersistence(t *testing.T) {
	// E7's mechanism in miniature: with zero patience boost rewards are
	// ignored; with a boost, reward grants extend the session.
	base := Config{MaxSteps: 120, Patience: 6, RewardBoost: 0, Seed: 42}
	boosted := base
	boosted.RewardBoost = 20
	nBase, errB := RunCohort(blob(t), ExplorerFactory, 10, base, 2)
	if errB != nil {
		t.Fatal(errB)
	}
	nBoost, errB2 := RunCohort(blob(t), ExplorerFactory, 10, boosted, 2)
	if errB2 != nil {
		t.Fatal(errB2)
	}
	baseSteps, boostSteps := 0, 0
	for i := range nBase {
		baseSteps += nBase[i].Steps
		boostSteps += nBoost[i].Steps
	}
	if CompletionRate(nBoost) < CompletionRate(nBase) {
		t.Errorf("reward-motivated completion %.2f below indifferent %.2f",
			CompletionRate(nBoost), CompletionRate(nBase))
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(blob(t), ExplorerFactory, Config{MaxSteps: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(blob(t), ExplorerFactory, Config{MaxSteps: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || a.Completed != b.Completed || a.QuitReason != b.QuitReason {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestBoredomQuits(t *testing.T) {
	// A random walker with tiny patience in a world where novelty dries up
	// must quit bored (or run out of steps), not loop forever.
	res, err := Run(blob(t), RandomFactory, Config{MaxSteps: 500, Patience: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.QuitReason != "bored" && res.QuitReason != "ended" && res.QuitReason != "max-steps" {
		t.Fatalf("quit reason = %q", res.QuitReason)
	}
	if res.QuitReason == "bored" && res.Steps >= 500 {
		t.Error("bored quit did not shorten the run")
	}
}

func TestPolicyChooseEmptyActions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []Factory{RandomFactory, ExplorerFactory, GuidedFactory} {
		p := f.New()
		if _, ok := p.Choose(nil, nil, rng); ok {
			t.Errorf("%s chose from nothing", f.Name)
		}
	}
}

// miniPackage wraps a one-segment synthetic film around a custom project —
// the fixture for edge-case scenarios the demo courses never produce.
func miniPackage(t *testing.T, build func(p *core.Project)) []byte {
	t.Helper()
	film := synth.FromScenes(64, 48, 5, 11, []synth.SceneShot{{Kind: synth.Classroom, Seconds: 1}})
	p := core.NewProject("edge case")
	p.StartScenario = "only"
	p.Scenarios = []*core.Scenario{{ID: "only", Name: "Only", Segment: "seg"}}
	build(p)
	course := &content.Course{
		Project:  p,
		Film:     film,
		Chapters: []container.Chapter{{Name: "seg", Start: 0, End: film.FrameCount()}},
	}
	blob, err := course.BuildPackage(studio.Options{QStep: 12})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestAvailableActionsEdgeCases sweeps the enumerator's degenerate inputs:
// scenarios with nothing to do must yield no actions (and a run must quit
// "no-actions" instead of spinning), hidden objects must not leak verbs,
// and inventory items must only produce use-actions against non-items.
func TestAvailableActionsEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(p *core.Project)
		// prep mutates the session before enumeration.
		prep        func(t *testing.T, s *runtime.Session)
		wantActions []string // exact action strings, in order
		wantQuit    string   // expected QuitReason of a full Run ("" = skip)
	}{
		{
			name:     "empty scenario",
			build:    func(p *core.Project) {},
			wantQuit: "no-actions",
		},
		{
			name: "no visible objects",
			build: func(p *core.Project) {
				p.Scenarios[0].Objects = []*core.Object{
					{ID: "ghost", Name: "Ghost", Kind: core.Hotspot, Enabled: false},
					{ID: "shade", Name: "Shade", Kind: core.NPC, Enabled: false},
				}
			},
			wantQuit: "no-actions",
		},
		{
			name: "script-disabled object vanishes",
			build: func(p *core.Project) {
				p.Scenarios[0].Objects = []*core.Object{
					{ID: "door", Name: "Door", Kind: core.Hotspot, Enabled: true},
				}
			},
			prep: func(t *testing.T, s *runtime.Session) {
				s.State().Hidden["door"] = true
			},
			wantActions: nil,
		},
		{
			name: "items do not receive use-actions",
			build: func(p *core.Project) {
				p.Items = []*core.ItemDef{{ID: "rock", Name: "Rock"}}
				p.Scenarios[0].Objects = []*core.Object{
					{ID: "pebble", Name: "Pebble", Kind: core.Item, Enabled: true, Takeable: true},
					{ID: "wall", Name: "Wall", Kind: core.Hotspot, Enabled: true},
				}
			},
			prep: func(t *testing.T, s *runtime.Session) {
				s.State().AddItem("rock")
				s.State().AddItem("rock") // duplicate items produce one use-action each pair
			},
			wantActions: []string{
				"examine pebble", "take pebble",
				"examine wall", "click wall",
				"use rock on wall",
			},
		},
		{
			name: "ended session enumerates nothing",
			build: func(p *core.Project) {
				p.Scenarios[0].Objects = []*core.Object{
					{ID: "exit", Name: "Exit", Kind: core.Hotspot, Enabled: true,
						Region: raster.Rect{X: 10, Y: 10, W: 20, H: 20},
						Events: []core.Event{{Trigger: core.OnClick, Script: `end "done";`}}},
				}
			},
			prep: func(t *testing.T, s *runtime.Session) {
				Apply(s, Action{Kind: "click", Object: "exit"})
				if !s.Ended() {
					t.Fatal("click did not end the session")
				}
			},
			wantActions: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := miniPackage(t, tc.build)
			s, err := runtime.NewSession(blob, runtime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				tc.prep(t, s)
			}
			var got []string
			for _, a := range AvailableActions(s) {
				got = append(got, a.String())
			}
			if tc.prep != nil || tc.wantActions != nil {
				if len(got) != len(tc.wantActions) {
					t.Fatalf("actions = %v, want %v", got, tc.wantActions)
				}
				for i := range got {
					if got[i] != tc.wantActions[i] {
						t.Fatalf("actions = %v, want %v", got, tc.wantActions)
					}
				}
			} else if len(got) != 0 {
				t.Fatalf("actions = %v, want none", got)
			}
			if tc.wantQuit != "" {
				res, err := Run(blob, RandomFactory, Config{MaxSteps: 10, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.QuitReason != tc.wantQuit {
					t.Fatalf("quit reason = %q, want %q", res.QuitReason, tc.wantQuit)
				}
			}
		})
	}
}

// TestApplyEdgeCases drives Apply with hostile inputs: unknown kinds,
// missing objects and quiz-locked state must all be inert, and the
// selected-item click path must consume the selection exactly once.
func TestApplyEdgeCases(t *testing.T) {
	s, err := runtime.NewSession(blob(t), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Unknown kind / unknown object: no-ops, no panic, no state change.
	before := len(s.Messages())
	Apply(s, Action{Kind: "dance", Object: "teacher"})
	Apply(s, Action{Kind: "examine", Object: "no-such-object"})
	Apply(s, Action{Kind: "take", Object: "no-such-object"})
	Apply(s, Action{Kind: "click", Object: "no-such-object"})
	Apply(s, Action{Kind: "goto", Object: "no-such-scenario"})
	if got := len(s.Messages()); got != before {
		t.Fatalf("hostile applies produced %d messages", got-before)
	}
	if s.Scenario().ID != "classroom" {
		t.Fatalf("scenario drifted to %q", s.Scenario().ID)
	}

	// Quiz-locked state: examining the computer asks q-diagnosis once.
	Apply(s, Action{Kind: "examine", Object: "computer"})
	quiz, ok := s.PendingQuiz()
	if !ok || quiz.ID != "q-diagnosis" {
		t.Fatalf("pending quiz = %v %v", quiz, ok)
	}
	// Answering a different id or an out-of-range choice fails cleanly and
	// leaves the quiz pending.
	if _, err := s.AnswerQuiz("q-install", 0); err == nil {
		t.Fatal("answered a quiz that is not pending")
	}
	if _, err := s.AnswerQuiz("q-diagnosis", 99); err == nil {
		t.Fatal("out-of-range choice accepted")
	}
	if _, ok := s.PendingQuiz(); !ok {
		t.Fatal("failed answers consumed the pending quiz")
	}
	if _, err := s.AnswerQuiz("q-diagnosis", 1); err != nil {
		t.Fatal(err)
	}
	// The quiz is now locked: re-examining must not re-ask it.
	Apply(s, Action{Kind: "examine", Object: "computer"})
	if _, ok := s.PendingQuiz(); ok {
		t.Fatal("answered quiz was re-asked")
	}

	// Selected-item interactions: arming an item turns the next click into
	// a use, then disarms.
	if err := s.SelectItem("coin"); err == nil {
		t.Fatal("selected an item the player does not carry")
	}
	Apply(s, Action{Kind: "take", Object: "desk-coin"})
	if !s.State().HasItem("coin") {
		t.Fatal("coin not taken")
	}
	if err := s.SelectItem("coin"); err != nil {
		t.Fatal(err)
	}
	if s.SelectedItem() != "coin" {
		t.Fatalf("selected = %q", s.SelectedItem())
	}
	Apply(s, Action{Kind: "click", Object: "computer"}) // use coin on computer → "does not work"
	if s.SelectedItem() != "" {
		t.Fatal("click did not consume the selection")
	}
	if got := s.LastMessage(); got != "The coin does not work on Computer." {
		t.Fatalf("use message = %q", got)
	}
	if !s.State().HasItem("coin") {
		t.Fatal("failed use consumed the coin")
	}
	// ClearSelection disarms without a click.
	if err := s.SelectItem("coin"); err != nil {
		t.Fatal(err)
	}
	s.ClearSelection()
	if s.SelectedItem() != "" {
		t.Fatal("ClearSelection left the item armed")
	}
}

func TestActionString(t *testing.T) {
	if got := (Action{Kind: "use", Object: "computer", Item: "ram"}).String(); got != "use ram on computer" {
		t.Errorf("use string = %q", got)
	}
	if got := (Action{Kind: "take", Object: "coin"}).String(); got != "take coin" {
		t.Errorf("take string = %q", got)
	}
}
