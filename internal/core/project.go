// Package core defines the IVGBL document model — the paper's primary
// contribution: a game description that non-programmer course designers
// build in the authoring tool and the gaming platform executes.
//
// A Project is a set of Scenarios (each backed by a video segment), each
// carrying interactive Objects (hotspots, collectible items, NPCs,
// navigation buttons) with event scripts; plus the catalogs the scripts
// reference: items, knowledge units and missions. The model is pure data —
// JSON-serializable, validated statically — so the same project file drives
// the authoring tool, the runtime, the simulator and the experiments.
package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/media/raster"
	"repro/internal/script"
)

// FormatVersion is the serialized project format version.
const FormatVersion = 1

// ObjectKind classifies an interactive object (paper §3.1).
type ObjectKind string

// Object kinds.
const (
	// Hotspot is an invisible clickable region over the video.
	Hotspot ObjectKind = "hotspot"
	// Item is a visible, collectible object ("drag it to inventory window").
	Item ObjectKind = "item"
	// NPC is a character giving a fixed conversation.
	NPC ObjectKind = "npc"
	// NavButton switches scenarios or pops resources ("buttons provide
	// players options to switch to other video segments").
	NavButton ObjectKind = "button"
)

// Valid reports whether k is a known kind.
func (k ObjectKind) Valid() bool {
	switch k {
	case Hotspot, Item, NPC, NavButton:
		return true
	}
	return false
}

// TriggerType says when an object's event fires.
type TriggerType string

// Trigger types.
const (
	// OnClick fires when the player clicks the object.
	OnClick TriggerType = "click"
	// OnExamine fires when the player examines the object (right-click /
	// examine verb).
	OnExamine TriggerType = "examine"
	// OnTake fires when the player drags the object into the inventory.
	OnTake TriggerType = "take"
	// OnUse fires when the player uses a specific inventory item on the
	// object (the classroom example: use "ram module" on the computer).
	OnUse TriggerType = "use"
	// OnEnter fires when a scenario is entered (scenario-level events).
	OnEnter TriggerType = "enter"
)

// Valid reports whether t is a known trigger.
func (t TriggerType) Valid() bool {
	switch t {
	case OnClick, OnExamine, OnTake, OnUse, OnEnter:
		return true
	}
	return false
}

// Event binds a trigger to a script.
type Event struct {
	Trigger TriggerType `json:"trigger"`
	// UseItem names the inventory item for OnUse triggers.
	UseItem string `json:"use_item,omitempty"`
	// Condition is an optional boolean guard expression; an event with a
	// false condition does not fire.
	Condition string `json:"condition,omitempty"`
	// Script is the event handler source (see package script).
	Script string `json:"script"`
}

// SpriteSpec describes the visual of an Item/NavButton mounted on the video
// frame — the "image object with white background" of Figure 2.
type SpriteSpec struct {
	Shape string     `json:"shape"` // "box", "disc", "umbrella", "chip", "coin", "badge"
	Color raster.RGB `json:"color"`
	Label string     `json:"label,omitempty"` // short text on buttons
}

// Object is one interactive object in a scenario.
type Object struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Kind        ObjectKind  `json:"kind"`
	Region      raster.Rect `json:"region"` // position on the video frame
	Sprite      SpriteSpec  `json:"sprite,omitempty"`
	Description string      `json:"description,omitempty"` // examine text
	Enabled     bool        `json:"enabled"`               // initial visibility
	Takeable    bool        `json:"takeable,omitempty"`    // may be dragged to inventory
	Dialogue    []string    `json:"dialogue,omitempty"`    // NPC fixed conversation
	Events      []Event     `json:"events,omitempty"`
}

// EventFor returns the first event with the given trigger (and item for
// OnUse), or nil.
func (o *Object) EventFor(t TriggerType, useItem string) *Event {
	for i := range o.Events {
		e := &o.Events[i]
		if e.Trigger != t {
			continue
		}
		if t == OnUse && e.UseItem != useItem {
			continue
		}
		return e
	}
	return nil
}

// Scenario is one game location backed by a video segment (paper §2.1:
// "video segments are the basic unit used for presenting scenarios").
type Scenario struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Segment     string    `json:"segment"` // container chapter name
	Description string    `json:"description,omitempty"`
	OnEnter     string    `json:"on_enter,omitempty"` // script run on entry
	Objects     []*Object `json:"objects,omitempty"`
}

// ObjectByID finds an object in the scenario.
func (s *Scenario) ObjectByID(id string) *Object {
	for _, o := range s.Objects {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// ItemDef is a catalog entry for a collectible item.
type ItemDef struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Reward marks achievement objects ("such objects differ from other
	// interactive ones; they represent the achievements which players
	// have", §3.3).
	Reward bool `json:"reward,omitempty"`
}

// KnowledgeUnit is a unit of course content delivered through play
// (paper §3.2).
type KnowledgeUnit struct {
	ID          string `json:"id"`
	Topic       string `json:"topic"`
	Description string `json:"description,omitempty"`
}

// Quiz is a multiple-choice assessment question bound to a knowledge unit —
// the assessment extension: the paper delivers knowledge through play
// (§3.2) and leaves grading to the lecturer; quizzes close that loop by
// measuring whether a delivered unit actually landed.
type Quiz struct {
	ID       string   `json:"id"`
	Question string   `json:"question"`
	Choices  []string `json:"choices"`
	// Answer is the index of the correct choice.
	Answer int `json:"answer"`
	// Knowledge names the unit this quiz assesses.
	Knowledge string `json:"knowledge"`
	// Points are added to the "score" variable on a correct answer.
	Points int `json:"points,omitempty"`
}

// Mission is a task whose completion is observable as a flag, optionally
// granting a reward item (paper §3.3: "if players complete some requests or
// missions, they can get special objects").
type Mission struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	DoneFlag    string `json:"done_flag"`           // flag that marks completion
	Reward      string `json:"reward,omitempty"`    // item id granted on completion
	Knowledge   string `json:"knowledge,omitempty"` // primary knowledge unit
}

// Project is the complete authored game.
type Project struct {
	Version       int              `json:"version"`
	Title         string           `json:"title"`
	Author        string           `json:"author,omitempty"`
	StartScenario string           `json:"start_scenario"`
	Scenarios     []*Scenario      `json:"scenarios"`
	Items         []*ItemDef       `json:"items,omitempty"`
	Knowledge     []*KnowledgeUnit `json:"knowledge,omitempty"`
	Missions      []*Mission       `json:"missions,omitempty"`
	Quizzes       []*Quiz          `json:"quizzes,omitempty"`
	// InitialVars seeds integer variables (e.g. starting money).
	InitialVars map[string]int `json:"initial_vars,omitempty"`
}

// NewProject creates an empty project with the current format version.
func NewProject(title string) *Project {
	return &Project{Version: FormatVersion, Title: title}
}

// ScenarioByID finds a scenario.
func (p *Project) ScenarioByID(id string) *Scenario {
	for _, s := range p.Scenarios {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// ItemByID finds an item definition.
func (p *Project) ItemByID(id string) *ItemDef {
	for _, it := range p.Items {
		if it.ID == id {
			return it
		}
	}
	return nil
}

// KnowledgeByID finds a knowledge unit.
func (p *Project) KnowledgeByID(id string) *KnowledgeUnit {
	for _, k := range p.Knowledge {
		if k.ID == id {
			return k
		}
	}
	return nil
}

// QuizByID finds a quiz.
func (p *Project) QuizByID(id string) *Quiz {
	for _, q := range p.Quizzes {
		if q.ID == id {
			return q
		}
	}
	return nil
}

// FindObject locates an object anywhere in the project, returning its
// scenario too.
func (p *Project) FindObject(id string) (*Scenario, *Object) {
	for _, s := range p.Scenarios {
		if o := s.ObjectByID(id); o != nil {
			return s, o
		}
	}
	return nil, nil
}

// Marshal serializes the project to indented JSON.
func (p *Project) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// UnmarshalProject parses a project and checks the format version.
func UnmarshalProject(data []byte) (*Project, error) {
	var p Project
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("core: parsing project: %w", err)
	}
	if p.Version != FormatVersion {
		return nil, fmt.Errorf("core: project format version %d, want %d", p.Version, FormatVersion)
	}
	return &p, nil
}

// CompiledEvent is one event — or one scenario's entry script — in
// executable form: its script and its guard, each lexed and parsed once.
// It is immutable, so every session on a package runs the same one.
type CompiledEvent struct {
	Program *script.Program
	cond    *script.Condition // nil: no guard
	condErr error             // why the guard did not compile
}

// Holds evaluates the event's guard (no guard = true). A guard that did
// not compile never holds and reports its compile error on every try —
// what evaluating its source each time did — so a course with a broken
// condition still opens and says why the event will not fire.
func (ce *CompiledEvent) Holds(env script.Env) (bool, error) {
	if ce.condErr != nil {
		return false, ce.condErr
	}
	if ce.cond == nil {
		return true, nil
	}
	return ce.cond.Eval(env)
}

// CompileEvents compiles every script and condition in the project,
// returning a map from "<scenarioID>/<objectID>/<trigger>[/<item>]" (and
// "<scenarioID>//enter" for scenario entry scripts) to their executable
// form. It fails on the first script error, identifying the offending
// object. Of two events of one object with the same trigger (and item) only
// the first fires — the one Object.EventFor returns — so the first owns the
// key.
func (p *Project) CompileEvents() (map[string]*CompiledEvent, error) {
	out := make(map[string]*CompiledEvent)
	for _, s := range p.Scenarios {
		if s.OnEnter != "" {
			prog, err := script.Compile(s.OnEnter)
			if err != nil {
				return nil, fmt.Errorf("scenario %q on_enter: %w", s.ID, err)
			}
			out[EventKey(s.ID, "", OnEnter, "")] = &CompiledEvent{Program: prog}
		}
		for _, o := range s.Objects {
			for i := range o.Events {
				e := &o.Events[i]
				prog, err := script.Compile(e.Script)
				if err != nil {
					return nil, fmt.Errorf("object %q %s event: %w", o.ID, e.Trigger, err)
				}
				ce := &CompiledEvent{Program: prog}
				if e.Condition != "" {
					ce.cond, ce.condErr = script.CompileCondition(e.Condition)
				}
				if key := EventKey(s.ID, o.ID, e.Trigger, e.UseItem); out[key] == nil {
					out[key] = ce
				}
			}
		}
	}
	return out, nil
}

// EventKey builds the lookup key used by CompileEvents.
func EventKey(scenarioID, objectID string, t TriggerType, useItem string) string {
	k := scenarioID + "/" + objectID + "/" + string(t)
	if useItem != "" {
		k += "/" + useItem
	}
	return k
}
