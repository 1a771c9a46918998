package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/media/studio"
)

// recorder collects telemetry events.
type recorder struct {
	events []Event
}

func (r *recorder) Record(e Event) { r.events = append(r.events, e) }

func (r *recorder) kinds() map[string]int {
	m := map[string]int{}
	for _, e := range r.events {
		m[e.Kind]++
	}
	return m
}

func classroomSession(t testing.TB) (*Session, *recorder) {
	t.Helper()
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	s, err := NewSession(blob, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func TestSessionStartState(t *testing.T) {
	s, _ := classroomSession(t)
	if s.State().Scenario != "classroom" {
		t.Fatalf("start scenario = %q", s.State().Scenario)
	}
	// The classroom OnEnter briefing ran.
	if len(s.Messages()) == 0 || !strings.Contains(s.Messages()[0], "TEACHER") {
		t.Fatalf("briefing missing: %v", s.Messages())
	}
	// Frame renders with mounted sprites.
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 160 || f.H != 120 {
		t.Fatalf("frame %dx%d", f.W, f.H)
	}
}

func TestFullClassroomWalkthrough(t *testing.T) {
	// The paper's §3.2 mission, end to end, through the session API.
	s, rec := classroomSession(t)

	// 1. Talk to the teacher (fixed conversation cycles).
	s.Talk("teacher")
	s.Talk("teacher")
	if got := s.Messages(); !strings.Contains(got[len(got)-1], "market") {
		t.Fatalf("teacher dialogue: %v", got)
	}

	// 2. Examine the computer: discovers the empty RAM slot and earns the
	// diagnosis badge — once, no matter how often it is re-examined.
	s.Examine("computer")
	if !s.State().Learned["ram-identification"] {
		t.Fatal("examining the computer should teach ram-identification")
	}
	if s.State().CountItem("scout-badge") != 1 {
		t.Fatal("scout badge not granted on diagnosis")
	}
	s.Examine("computer")
	if s.State().CountItem("scout-badge") != 1 {
		t.Fatal("scout badge duplicated on re-examine")
	}

	// 3. Pick up the coin.
	if !s.Take("desk-coin") {
		t.Fatal("coin take failed")
	}
	if !s.State().HasItem("coin") {
		t.Fatal("coin not in inventory")
	}
	// The coin left the scene.
	if s.ObjectAt(62, 72) != nil {
		t.Fatal("coin still visible after take")
	}

	// 4. Walk to the market via the nav button.
	s.Click(140, 100) // the to-market button region
	if s.State().Scenario != "market" {
		t.Fatalf("scenario = %q, want market", s.State().Scenario)
	}

	// 5. Buy the RAM (take with a condition consuming the coin).
	if !s.Take("stall-ram") {
		t.Fatal("ram take failed despite coin")
	}
	if s.State().HasItem("coin") {
		t.Fatal("coin should have been spent")
	}
	if !s.State().HasItem("ram module") {
		t.Fatal("ram module missing")
	}
	if !s.State().Learned["hardware-shopping"] {
		t.Fatal("shopping knowledge not delivered")
	}

	// 6. Return and repair.
	s.Click(140, 100) // back button
	if s.State().Scenario != "classroom" {
		t.Fatal("did not return to classroom")
	}
	s.UseItemOn("ram module", "computer")
	st := s.State()
	if !st.Flags["fixed"] || !st.Ended || st.Outcome != "victory" {
		t.Fatalf("repair failed: flags=%v ended=%v outcome=%q", st.Flags, st.Ended, st.Outcome)
	}
	// Three rewards along the arc: diagnosis, purchase, repair (§3.3's
	// "complete some requests or missions" sub-rewards).
	if !st.HasItem("repair-badge") || len(st.Rewards) != 3 {
		t.Fatalf("rewards = %v", st.Rewards)
	}
	if st.Rewards[0] != "scout-badge" || st.Rewards[2] != "repair-badge" {
		t.Fatalf("reward order = %v", st.Rewards)
	}
	if st.Vars["score"] != 50 {
		t.Fatalf("score = %d", st.Vars["score"])
	}
	if len(st.LearnedUnits()) != 3 {
		t.Fatalf("learned = %v", st.LearnedUnits())
	}
	// Popup was queued.
	kind, contentStr, ok := s.NextPopup()
	if !ok || kind != "text" || !strings.Contains(contentStr, "WELL DONE") {
		t.Fatalf("popup = %q %q %v", kind, contentStr, ok)
	}
	// Telemetry saw the whole arc.
	k := rec.kinds()
	for _, want := range []string{"dialogue", "examine", "take", "goto", "use", "learn", "reward", "end"} {
		if k[want] == 0 {
			t.Errorf("no %q telemetry: %v", want, k)
		}
	}
	if k["error"] != 0 {
		t.Errorf("errors recorded: %v", rec.events)
	}
	// Post-end interactions are inert.
	before := len(s.Messages())
	s.Click(140, 100)
	if len(s.Messages()) != before {
		t.Error("interaction after end produced effects")
	}
}

func TestConditionBlocksTake(t *testing.T) {
	s, rec := classroomSession(t)
	s.Click(140, 100) // go to market without a coin
	if s.State().Scenario != "market" {
		t.Fatal("nav failed")
	}
	if s.Take("stall-ram") {
		t.Fatal("took the RAM without a coin")
	}
	if s.State().HasItem("ram module") {
		t.Fatal("inventory corrupted")
	}
	// The stall's OnClick fallback explains why.
	if msg := s.LastMessage(); !strings.Contains(msg, "No coin") {
		t.Errorf("vendor message = %q", msg)
	}
	if rec.kinds()["take-blocked"] == 0 {
		t.Error("blocked take not recorded")
	}
}

func TestUseWrongItem(t *testing.T) {
	s, _ := classroomSession(t)
	s.Take("desk-coin")
	s.UseItemOn("coin", "computer")
	if msg := s.LastMessage(); !strings.Contains(msg, "does not work") {
		t.Errorf("wrong-item message = %q", msg)
	}
	if s.State().Flags["fixed"] {
		t.Fatal("wrong item fixed the computer")
	}
	s.UseItemOn("ram module", "computer") // not carried
	if msg := s.LastMessage(); !strings.Contains(msg, "do not have") {
		t.Errorf("missing-item message = %q", msg)
	}
}

func TestSelectItemFlow(t *testing.T) {
	s, _ := classroomSession(t)
	if err := s.SelectItem("coin"); err == nil {
		t.Fatal("selected an item not carried")
	}
	s.Take("desk-coin")
	if err := s.SelectItem("coin"); err != nil {
		t.Fatal(err)
	}
	if s.SelectedItem() != "coin" {
		t.Fatal("selection lost")
	}
	// Clicking the computer with coin selected attempts use-on.
	s.Click(100, 25)
	if s.SelectedItem() != "" {
		t.Fatal("selection should clear after use")
	}
	if msg := s.LastMessage(); !strings.Contains(msg, "does not work") {
		t.Errorf("message = %q", msg)
	}
	s.Take("desk-coin") // already taken; hidden now
	s.ClearSelection()
}

func TestObjectAtTopmost(t *testing.T) {
	s, _ := classroomSession(t)
	if o := s.ObjectAt(100, 25); o == nil || o.ID != "computer" {
		t.Fatalf("ObjectAt(100,25) = %v", o)
	}
	if o := s.ObjectAt(1, 1); o != nil {
		t.Fatalf("ObjectAt(1,1) = %v, want nil", o)
	}
}

func TestClickMissAndHotspotDescription(t *testing.T) {
	s, rec := classroomSession(t)
	s.Click(1, 1)
	if rec.kinds()["click"] == 0 {
		t.Error("miss click not recorded")
	}
	// Clicking the computer without selection fires its OnClick script.
	s.Click(100, 25)
	if msg := s.LastMessage(); !strings.Contains(msg, "examine") {
		t.Errorf("computer click message = %q", msg)
	}
}

func TestTickAdvancesAndLoops(t *testing.T) {
	s, _ := classroomSession(t)
	for i := 0; i < 200; i++ { // longer than the 40-frame segment: must loop
		if err := s.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Frame(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Ticks() != 200 {
		t.Fatalf("ticks = %d", s.Ticks())
	}
}

// TestAdvanceIsTicks: Advance(n) is n Ticks — same tick clock, same frame —
// across segment ends (the classroom segment loops) and on one-frame
// segments (a loop of one holds), and an ended session moves for neither.
func TestAdvanceIsTicks(t *testing.T) {
	fresh := func(t *testing.T) *Session {
		t.Helper()
		s, err := NewSessionFromPackage(snapOpened(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := func(t *testing.T, what string, stepped, skipped *Session) {
		t.Helper()
		if stepped.Ticks() != skipped.Ticks() || stepped.cursor.Pos() != skipped.cursor.Pos() {
			t.Fatalf("%s: %d ticks at frame %d by Tick, %d at frame %d by Advance",
				what, stepped.Ticks(), stepped.cursor.Pos(), skipped.Ticks(), skipped.cursor.Pos())
		}
	}
	seg := fresh(t).cursor.Segment()
	span := seg.End - seg.Start
	ns := []int{0, 1, 2, span - 1, span, span + 1, 2*span + 3, 5*span - 1, 1000}

	t.Run("looping segment", func(t *testing.T) {
		for _, n := range ns {
			for _, from := range []int{0, 1, span - 2, span - 1} {
				stepped, skipped := fresh(t), fresh(t)
				for i := 0; i < from; i++ {
					stepped.Tick()
					skipped.Tick()
				}
				for i := 0; i < n; i++ {
					if err := stepped.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				if err := skipped.Advance(n); err != nil {
					t.Fatal(err)
				}
				same(t, fmt.Sprintf("%d after %d", n, from), stepped, skipped)
			}
		}
	})
	t.Run("one-frame segment", func(t *testing.T) {
		for _, n := range ns {
			stepped, skipped := fresh(t), fresh(t)
			for _, s := range []*Session{stepped, skipped} {
				if err := s.cursor.EnterRange("still", seg.Start+3, seg.Start+4); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				stepped.Tick()
			}
			skipped.Advance(n)
			same(t, fmt.Sprint(n), stepped, skipped)
		}
	})
	t.Run("ended session", func(t *testing.T) {
		stepped, skipped := fresh(t), fresh(t)
		for _, s := range []*Session{stepped, skipped} {
			s.Advance(7)
			s.state.Ended = true
		}
		for i := 0; i < 50; i++ {
			stepped.Tick()
		}
		skipped.Advance(50)
		same(t, "ended", stepped, skipped)
		if skipped.Ticks() != 7 {
			t.Fatalf("an ended session ticked on to %d", skipped.Ticks())
		}
	})
}

func TestGotoScenarioAPI(t *testing.T) {
	s, _ := classroomSession(t)
	if err := s.GotoScenario("market"); err != nil {
		t.Fatal(err)
	}
	if s.State().Scenario != "market" {
		t.Fatal("goto failed")
	}
	if err := s.GotoScenario("narnia"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestMuseumEnableDisableFlow(t *testing.T) {
	blob, err := content.Museum().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Locked door first.
	s.GotoScenario("corridor")
	s.Click(40, 40) // lab-door click: locked message
	if !strings.Contains(s.LastMessage(), "Locked") {
		t.Fatalf("door message = %q", s.LastMessage())
	}
	if s.State().Scenario != "corridor" {
		t.Fatal("walked through a locked door")
	}
	// Key, unlock, study, win.
	if !s.Take("floor-key") {
		t.Fatal("key take failed")
	}
	s.UseItemOn("brass key", "lab-door")
	if s.State().Scenario != "lab" {
		t.Fatalf("scenario = %q, want lab", s.State().Scenario)
	}
	if !s.State().Learned["lab-safety"] {
		t.Fatal("lab OnEnter did not run")
	}
	s.Examine("generator")
	if !s.Ended() || s.Outcome() != "victory" {
		t.Fatal("museum mission incomplete")
	}
	if !s.State().HasItem("scholar-badge") {
		t.Fatal("badge missing")
	}
}

func TestStreetUmbrellaOpenResource(t *testing.T) {
	blob, err := content.StreetDemo().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(blob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Clicking the umbrella (an Item) examines it.
	s.Click(70, 60)
	if !strings.Contains(s.LastMessage(), "umbrella") {
		t.Fatalf("examine message = %q", s.LastMessage())
	}
	// The INFO button opens a web resource.
	s.Click(10, 100)
	opened := s.OpenedResources()
	if len(opened) != 1 || !strings.Contains(opened[0], "http://") {
		t.Fatalf("opened = %v", opened)
	}
	// Take the umbrella, then switch scenes and back; it stays taken.
	if !s.Take("umbrella") {
		t.Fatal("umbrella take failed")
	}
	s.Click(140, 100) // go indoors
	if s.State().Scenario != "indoors" {
		t.Fatal("nav failed")
	}
	s.Click(140, 100) // back out
	if s.ObjectAt(70, 60) != nil {
		t.Fatal("umbrella respawned")
	}
}

func TestSessionRejectsBadPackage(t *testing.T) {
	if _, err := NewSession([]byte("junk"), Options{}); err == nil {
		t.Fatal("junk package accepted")
	}
}
