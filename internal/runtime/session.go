// Package runtime implements the IVGBL gaming platform (paper §4.3): "an
// augmented video player with the interaction functionalities". A Session
// plays one game package: it drives segment playback, composites
// interactive objects onto the video, dispatches player interactions
// (click, examine, drag-to-inventory, use-item-on), runs event scripts, and
// reports everything to an optional telemetry observer.
//
// The Session itself is headless and step-driven (Tick); GameWindow wraps
// it with the Figure-2 interface for interactive play.
package runtime

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/playback"
	"repro/internal/media/raster"
	"repro/internal/tagrec"
)

// Event is one telemetry record. AppendEvent is its one binary form; the
// JSON tags are the play service's curl-able adapters'.
type Event struct {
	Tick   int    `json:"tick"`
	Kind   string `json:"kind"` // click, examine, take, use, dialogue, goto, say, learn, reward, popup, open, end, error
	Detail string `json:"detail,omitempty"`
}

// AppendEvent and ReadEvent are the one encoding of an event (tick
// uvarint, kind str, detail str) as one tagged record: a reply frame's and
// a watch chunk's tails, a session envelope's retained tail and a
// telemetry batch are all records of it. ReadEvent's errors carry no
// sentinel; callers wrap them in theirs.
func AppendEvent(b []byte, tag uint64, e *Event) []byte {
	b, mark := tagrec.BeginRecord(b, tag)
	b = binary.AppendUvarint(b, uint64(max(e.Tick, 0)))
	b = tagrec.AppendStr(b, e.Kind)
	b = tagrec.AppendStr(b, e.Detail)
	return tagrec.EndRecord(b, mark)
}

func ReadEvent(payload []byte) (e Event, err error) {
	r := tagrec.Reader{B: payload}
	e.Tick, err = r.Int()
	if err == nil {
		e.Kind, err = r.Str()
	}
	if err == nil {
		e.Detail, err = r.Str()
	}
	return e, err
}

// Observer receives session telemetry (package analytics aggregates it).
type Observer interface {
	Record(Event)
}

// Options configures a session.
type Options struct {
	Observer Observer // optional telemetry sink
}

// maxGotoChain bounds scenario switches triggered from OnEnter scripts, so
// two scenarios that goto each other cannot hang the runtime.
const maxGotoChain = 8

// Session is one play-through of a game package.
type Session struct {
	pkg    *gamepack.Package
	video  *playback.Video
	cursor *playback.Cursor
	state  *core.State
	sink   *core.Sink
	events map[string]*core.CompiledEvent // the package's, shared read-only
	obs    Observer

	tick      int
	selected  string // inventory item selected for "use" ("" = none)
	npcPos    map[string]int
	messages  []string
	popups    [][2]string // queued popups (kind, content)
	opened    []string    // opened web resources
	quizzes   []string    // pending quiz ids, FIFO
	gotoDepth int

	// sprites caches rendered object sprites so repeated frame composition
	// (FrameInto) allocates nothing after the first render of each object.
	sprites map[*core.Object]*raster.Frame
	// watchFrame is the scratch buffer Watch renders into.
	watchFrame raster.Frame
}

// NewSession loads a package blob and enters the start scenario.
func NewSession(pkgBlob []byte, opts Options) (*Session, error) {
	pkg, err := gamepack.Open(pkgBlob)
	if err != nil {
		return nil, err
	}
	return newSessionFromPackage(pkg, opts)
}

// NewSessionFromPackage starts a session over an already-opened package.
// The package is shared read-only, and so is everything derived from its
// bytes — parsed container, compiled scripts, decoded frames (see
// gamepack.Package): a play service, a fleet of mirror clients or a local
// player opens each course once, and a session on it parses nothing,
// checksums nothing and compiles nothing.
func NewSessionFromPackage(pkg *gamepack.Package, opts Options) (*Session, error) {
	return newSessionFromPackage(pkg, opts)
}

func newSessionFromPackage(pkg *gamepack.Package, opts Options) (*Session, error) {
	s, err := buildSession(pkg, opts)
	if err != nil {
		return nil, err
	}
	start := pkg.Project.ScenarioByID(pkg.Project.StartScenario)
	if start == nil {
		return nil, fmt.Errorf("runtime: start scenario %q missing", pkg.Project.StartScenario)
	}
	if err := s.cursor.EnterSegment(start.Segment); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	s.runEnter(start)
	return s, nil
}

// buildSession assembles a session over a package — a decoder over the
// package's container and frame cache, its compiled scripts, fresh state
// and sink wiring — without entering any scenario. The normal constructor
// enters the start scenario and runs its OnEnter; RestoreSessionFromPackage
// instead installs a snapshot's state and seeks the cursor to the saved
// position (the player resumes, not re-arrives).
func buildSession(pkg *gamepack.Package, opts Options) (*Session, error) {
	reader, err := pkg.Reader()
	if err != nil {
		return nil, err
	}
	events, err := pkg.Events()
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	video := playback.NewVideo(reader)
	video.UseCache(pkg.Frames())
	s := &Session{
		pkg:     pkg,
		video:   video,
		cursor:  playback.NewCursor(video, playback.Loop),
		state:   core.NewState(pkg.Project),
		events:  events,
		obs:     opts.Observer,
		npcPos:  map[string]int{},
		sprites: map[*core.Object]*raster.Frame{},
	}
	s.sink = core.NewSink(pkg.Project, s.state)
	s.sink.OnSay = func(msg string) {
		s.messages = append(s.messages, msg)
		s.record("say", msg)
	}
	s.sink.OnPopup = func(kind, content string) {
		s.popups = append(s.popups, [2]string{kind, content})
		s.record("popup", kind+": "+content)
	}
	s.sink.OnGoto = func(id string) { s.afterGoto(id) }
	s.sink.OnReward = func(item string) { s.record("reward", item) }
	s.sink.OnLearn = func(unit string) { s.record("learn", unit) }
	s.sink.OnEnd = func(outcome string) { s.record("end", outcome) }
	s.sink.OnOpen = func(url string) {
		s.opened = append(s.opened, url)
		s.record("open", url)
	}
	s.sink.OnQuiz = func(id string) {
		// A quiz is asked at most once per session.
		if s.state.Flags["quizdone-"+id] {
			return
		}
		s.quizzes = append(s.quizzes, id)
		s.record("quiz-asked", id)
	}
	return s, nil
}

// record emits a telemetry event.
func (s *Session) record(kind, detail string) {
	if s.obs != nil {
		s.obs.Record(Event{Tick: s.tick, Kind: kind, Detail: detail})
	}
}

// Project returns the loaded project.
func (s *Session) Project() *core.Project { return s.pkg.Project }

// State returns the live game state (read-only use expected).
func (s *Session) State() *core.State { return s.state }

// Scenario returns the current scenario definition.
func (s *Session) Scenario() *core.Scenario {
	return s.pkg.Project.ScenarioByID(s.state.Scenario)
}

// Tick advances playback by one video frame.
func (s *Session) Tick() error {
	if s.state.Ended {
		return nil
	}
	if _, err := s.cursor.Advance(); err != nil {
		return err
	}
	s.tick++
	return nil
}

// Ticks returns the number of elapsed ticks.
func (s *Session) Ticks() int { return s.tick }

// Advance ticks playback n times — the watching time between interactions.
// A tick emits nothing and runs no script, so n of them are one seek in
// closed form: the cursor loops its segment, a one-frame one holds, an
// ended session stays.
func (s *Session) Advance(ticks int) error {
	if s.state.Ended || ticks <= 0 {
		return nil
	}
	seg, pos := s.cursor.Segment(), s.cursor.Pos()
	if span := seg.End - seg.Start; span > 1 {
		pos = seg.Start + (pos-seg.Start+ticks%span)%span
	}
	if err := s.cursor.Seek(pos); err != nil {
		return err
	}
	s.tick += ticks
	return nil
}

// Frame renders the current presentation frame: decoded video plus mounted
// object sprites. The returned frame is caller-owned.
func (s *Session) Frame() (*raster.Frame, error) {
	f := &raster.Frame{}
	if err := s.FrameInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// FrameInto renders the presentation frame into dst, reusing dst's pixel
// buffer when it is large enough. Together with the decoder's recycled
// buffers and the session's sprite cache, the steady-state frame path
// allocates nothing — the play service serves frames to many concurrent
// hosted sessions through this.
//
// The video frame is decoded (or copied out of the shared frame cache)
// straight into dst, so dst's pixels alias no session-internal buffer and
// callers may hold (or share) the rendered frame read-only for as long as
// they like while the session keeps advancing. The play service's
// broadcast hub leans on this — each publication is rendered once into a
// fresh buffer and then handed by reference to every watcher's delivery
// ring without another copy.
func (s *Session) FrameInto(dst *raster.Frame) error {
	if err := s.cursor.FrameInto(dst); err != nil {
		return err
	}
	if sc := s.Scenario(); sc != nil {
		s.compositeObjects(dst, sc)
	}
	return nil
}

// Watch renders the current frame into an internal scratch buffer — the
// headless equivalent of presenting it to a viewer. The simulator calls it
// to model learners actually watching the video between interactions; a
// remote game fetches the same frame over the wire.
func (s *Session) Watch() error { return s.FrameInto(&s.watchFrame) }

// ObjectAt returns the topmost visible interactive object at video
// coordinates, or nil.
func (s *Session) ObjectAt(vx, vy int) *core.Object {
	sc := s.Scenario()
	if sc == nil {
		return nil
	}
	for i := len(sc.Objects) - 1; i >= 0; i-- {
		o := sc.Objects[i]
		if s.state.ObjectVisible(o) && o.Region.Contains(vx, vy) {
			return o
		}
	}
	return nil
}

// Click handles a primary click at video coordinates — the main interaction
// of the paper's runtime. With an inventory item selected, the click uses
// that item on the target; otherwise the behavior depends on the object
// kind: NPCs speak, items are examined, hotspots and buttons fire OnClick.
func (s *Session) Click(vx, vy int) {
	if s.state.Ended {
		return
	}
	o := s.ObjectAt(vx, vy)
	if o == nil {
		s.record("click", fmt.Sprintf("miss@%d,%d", vx, vy))
		return
	}
	s.record("click", o.ID)
	if s.selected != "" {
		item := s.selected
		s.selected = ""
		s.UseItemOn(item, o.ID)
		return
	}
	switch o.Kind {
	case core.NPC:
		s.Talk(o.ID)
	case core.Item:
		s.Examine(o.ID)
	default:
		if !s.runEvent(o, core.OnClick, "") && o.Description != "" {
			s.sink.Say(o.Description)
		}
	}
}

// Examine inspects an object: its OnExamine event if wired, else its
// description.
func (s *Session) Examine(objectID string) {
	o := s.visibleObject(objectID)
	if o == nil {
		return
	}
	s.record("examine", o.ID)
	if !s.runEvent(o, core.OnExamine, "") {
		if o.Description != "" {
			s.sink.Say(o.Description)
		} else {
			s.sink.Say("Nothing special about " + o.Name + ".")
		}
	}
}

// Talk delivers the next line of an NPC's fixed conversation (paper §3.1).
func (s *Session) Talk(objectID string) {
	o := s.visibleObject(objectID)
	if o == nil {
		return
	}
	if len(o.Dialogue) == 0 {
		if !s.runEvent(o, core.OnClick, "") {
			s.sink.Say(o.Name + " has nothing to say.")
		}
		return
	}
	line := o.Dialogue[s.npcPos[o.ID]%len(o.Dialogue)]
	s.npcPos[o.ID]++
	s.record("dialogue", o.ID)
	s.sink.Say(o.Name + ": " + line)
}

// Take collects a takeable object into the inventory (the drag-to-backpack
// gesture). It reports whether the take succeeded.
func (s *Session) Take(objectID string) bool {
	o := s.visibleObject(objectID)
	if o == nil {
		return false
	}
	if !o.Takeable {
		s.sink.Say("You cannot take the " + o.Name + ".")
		return false
	}
	if ev := o.EventFor(core.OnTake, ""); ev != nil {
		ce := s.compiled(o, ev)
		if !s.conditionHolds(ce) {
			s.record("take-blocked", o.ID)
			// Let the object explain itself if it can.
			if !s.runEvent(o, core.OnClick, "") && o.Description != "" {
				s.sink.Say(o.Description)
			}
			return false
		}
		s.record("take", o.ID)
		s.runProgram(o, ce)
	} else {
		// Default: the object itself becomes an inventory item.
		s.record("take", o.ID)
		s.state.AddItem(o.ID)
	}
	// A collected object leaves the scene.
	s.state.Hidden[o.ID] = true
	return true
}

// UseItemOn applies an inventory item to an object (the classroom repair:
// use "ram module" on "computer").
func (s *Session) UseItemOn(item, objectID string) {
	if !s.state.HasItem(item) {
		s.sink.Say("You do not have " + item + ".")
		return
	}
	o := s.visibleObject(objectID)
	if o == nil {
		return
	}
	s.record("use", item+" on "+o.ID)
	if !s.runEvent(o, core.OnUse, item) {
		s.sink.Say("The " + item + " does not work on " + o.Name + ".")
	}
}

// SelectItem marks an inventory item for the next use-on-object click.
func (s *Session) SelectItem(item string) error {
	if !s.state.HasItem(item) {
		return fmt.Errorf("runtime: not carrying %q", item)
	}
	s.selected = item
	return nil
}

// SelectedItem returns the item armed for use ("" when none).
func (s *Session) SelectedItem() string { return s.selected }

// ClearSelection disarms the selected item.
func (s *Session) ClearSelection() { s.selected = "" }

// GotoScenario switches scenario programmatically (nav buttons do this via
// scripts; the simulator calls it directly).
func (s *Session) GotoScenario(id string) error {
	if s.pkg.Project.ScenarioByID(id) == nil {
		return fmt.Errorf("runtime: no scenario %q", id)
	}
	s.sink.Goto(id)
	return nil
}

// visibleObject resolves an object in the current scenario that the player
// can interact with.
func (s *Session) visibleObject(id string) *core.Object {
	sc := s.Scenario()
	if sc == nil || s.state.Ended {
		return nil
	}
	o := sc.ObjectByID(id)
	if o == nil || !s.state.ObjectVisible(o) {
		return nil
	}
	return o
}

// compiled finds an event's executable form among the package's; nil if
// the event was never compiled (it is not part of the project document).
func (s *Session) compiled(o *core.Object, ev *core.Event) *core.CompiledEvent {
	ce := s.events[core.EventKey(s.state.Scenario, o.ID, ev.Trigger, ev.UseItem)]
	if ce == nil {
		// The object may live in a different scenario key space; find it.
		if sc, _ := s.pkg.Project.FindObject(o.ID); sc != nil {
			ce = s.events[core.EventKey(sc.ID, o.ID, ev.Trigger, ev.UseItem)]
		}
	}
	return ce
}

// conditionHolds evaluates an event's guard (no condition = true).
func (s *Session) conditionHolds(ce *core.CompiledEvent) bool {
	if ce == nil {
		return true // runProgram reports the missing program
	}
	ok, err := ce.Holds(s.state)
	if err != nil {
		s.record("error", "condition: "+err.Error())
		return false
	}
	return ok
}

// runEvent fires an object's event by trigger; it reports whether a handler
// existed and ran.
func (s *Session) runEvent(o *core.Object, t core.TriggerType, item string) bool {
	ev := o.EventFor(t, item)
	if ev == nil {
		return false
	}
	ce := s.compiled(o, ev)
	if !s.conditionHolds(ce) {
		return false
	}
	s.runProgram(o, ce)
	return true
}

// runProgram executes an event's compiled script.
func (s *Session) runProgram(o *core.Object, ce *core.CompiledEvent) {
	if ce == nil {
		s.record("error", "no compiled program for "+o.ID)
		return
	}
	if err := ce.Program.Run(s.state, s.sink); err != nil {
		s.record("error", err.Error())
	}
	s.drainSinkProblems()
}

// afterGoto reacts to a scenario switch performed by the sink: move the
// playback cursor and run the destination's OnEnter.
func (s *Session) afterGoto(id string) {
	s.record("goto", id)
	sc := s.pkg.Project.ScenarioByID(id)
	if sc == nil {
		return
	}
	if err := s.cursor.EnterSegment(sc.Segment); err != nil {
		s.record("error", err.Error())
		return
	}
	s.runEnter(sc)
}

// runEnter executes a scenario's OnEnter script with chain-depth guarding.
func (s *Session) runEnter(sc *core.Scenario) {
	if sc.OnEnter == "" {
		return
	}
	if s.gotoDepth >= maxGotoChain {
		s.record("error", "goto chain too deep at "+sc.ID)
		return
	}
	s.gotoDepth++
	defer func() { s.gotoDepth-- }()
	ce := s.events[core.EventKey(sc.ID, "", core.OnEnter, "")]
	if ce == nil {
		return
	}
	if err := ce.Program.Run(s.state, s.sink); err != nil {
		s.record("error", err.Error())
	}
	s.drainSinkProblems()
}

func (s *Session) drainSinkProblems() {
	for _, p := range s.sink.Problems {
		s.record("error", p)
	}
	s.sink.Problems = nil
}

// Messages returns the say-transcript so far.
func (s *Session) Messages() []string {
	return append([]string(nil), s.messages...)
}

// MessageCount returns the length of the say-transcript.
func (s *Session) MessageCount() int { return len(s.messages) }

// MessagesFrom returns a copy of the transcript tail from index n on — the
// part a remote client has not yet seen. A negative n (a client that reset
// its counters) clamps to 0 and yields the whole transcript — mirroring
// the events-path handling of a retried or reset client — rather than
// silently losing it; n past the end yields nil.
func (s *Session) MessagesFrom(n int) []string {
	if n < 0 {
		n = 0
	}
	if n >= len(s.messages) {
		return nil
	}
	return append([]string(nil), s.messages[n:]...)
}

// LastMessage returns the most recent message ("" if none yet).
func (s *Session) LastMessage() string {
	if len(s.messages) == 0 {
		return ""
	}
	return s.messages[len(s.messages)-1]
}

// NextPopup pops the oldest queued popup; ok is false when none is pending.
func (s *Session) NextPopup() (kind, content string, ok bool) {
	if len(s.popups) == 0 {
		return "", "", false
	}
	p := s.popups[0]
	s.popups = s.popups[1:]
	return p[0], p[1], true
}

// PendingQuiz returns the oldest unanswered quiz, if any. The quiz stays
// pending until AnswerQuiz is called.
func (s *Session) PendingQuiz() (*core.Quiz, bool) {
	for len(s.quizzes) > 0 {
		q := s.pkg.Project.QuizByID(s.quizzes[0])
		if q != nil {
			return q, true
		}
		s.quizzes = s.quizzes[1:]
	}
	return nil, false
}

// AnswerQuiz answers the pending quiz with the given choice index. A quiz
// may be answered even after the game ends (it is assessment, not play).
// Correct answers add the quiz's points (default 10) to the score variable.
func (s *Session) AnswerQuiz(quizID string, choice int) (correct bool, err error) {
	if len(s.quizzes) == 0 || s.quizzes[0] != quizID {
		return false, fmt.Errorf("runtime: quiz %q is not pending", quizID)
	}
	q := s.pkg.Project.QuizByID(quizID)
	if q == nil {
		return false, fmt.Errorf("runtime: unknown quiz %q", quizID)
	}
	if choice < 0 || choice >= len(q.Choices) {
		return false, fmt.Errorf("runtime: choice %d out of range [0,%d)", choice, len(q.Choices))
	}
	s.quizzes = s.quizzes[1:]
	s.state.Flags["quizdone-"+quizID] = true
	correct = choice == q.Answer
	if correct {
		points := q.Points
		if points == 0 {
			points = 10
		}
		s.state.Vars["score"] += points
		s.record("quiz-correct", quizID)
		s.messages = append(s.messages, "Correct! "+q.Choices[q.Answer])
	} else {
		s.record("quiz-wrong", quizID)
		s.messages = append(s.messages, "Not quite. The answer was: "+q.Choices[q.Answer])
	}
	return correct, nil
}

// OpenedResources lists web resources opened by scripts.
func (s *Session) OpenedResources() []string {
	return append([]string(nil), s.opened...)
}

// Ended reports whether the game has concluded.
func (s *Session) Ended() bool { return s.state.Ended }

// Outcome returns the end label ("" while running).
func (s *Session) Outcome() string { return s.state.Outcome }

// VideoMeta exposes the underlying container metadata (frame size, fps).
func (s *Session) VideoMeta() (w, h, fps int) {
	m := s.video.Meta()
	return m.Width, m.Height, m.FPS
}

// Close does nothing: a session holds no goroutine, file or lock to release.
// It stays only because benchmark/sut.go names it and that directory changes
// in benchmark PRs alone (ROADMAP item 3); nothing else calls it.
func (s *Session) Close() {}
