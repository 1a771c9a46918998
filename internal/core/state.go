package core

import "sort"

// State is the mutable play-time state of a game session. It implements
// script.Env (the read side of the event language) and is what a snapshot
// persists (runtime.StateEncoder is its one binary form). Inventory is a
// multiset with stable order (slot order in the inventory window).
type State struct {
	Scenario  string          `json:"scenario"`
	Inventory []string        `json:"inventory,omitempty"`
	Flags     map[string]bool `json:"flags,omitempty"`
	Vars      map[string]int  `json:"vars,omitempty"`
	// Visited counts scenario entries (decision/exploration telemetry).
	Visited map[string]int `json:"visited,omitempty"`
	// Learned marks knowledge units delivered to this player.
	Learned map[string]bool `json:"learned,omitempty"`
	// Rewards lists achievement objects in grant order.
	Rewards []string `json:"rewards,omitempty"`
	// Hidden tracks objects toggled by enable/disable, overriding their
	// authored Enabled state. Keyed by object ID; value true = hidden.
	Hidden  map[string]bool `json:"hidden,omitempty"`
	Ended   bool            `json:"ended,omitempty"`
	Outcome string          `json:"outcome,omitempty"`
}

// NewState initializes state for a project: start scenario entered once,
// initial variables applied.
func NewState(p *Project) *State {
	s := &State{
		Scenario: p.StartScenario,
		Flags:    map[string]bool{},
		Vars:     map[string]int{},
		Visited:  map[string]int{},
		Learned:  map[string]bool{},
		Hidden:   map[string]bool{},
	}
	for k, v := range p.InitialVars {
		s.Vars[k] = v
	}
	s.Visited[p.StartScenario] = 1
	return s
}

// HasItem implements script.Env.
func (s *State) HasItem(name string) bool {
	for _, it := range s.Inventory {
		if it == name {
			return true
		}
	}
	return false
}

// Flag implements script.Env.
func (s *State) Flag(name string) bool { return s.Flags[name] }

// Var implements script.Env.
func (s *State) Var(name string) int { return s.Vars[name] }

// AddItem appends an item to the inventory (duplicates allowed — two coins
// are two slots).
func (s *State) AddItem(name string) { s.Inventory = append(s.Inventory, name) }

// RemoveItem removes the first occurrence; reports whether it was present.
func (s *State) RemoveItem(name string) bool {
	for i, it := range s.Inventory {
		if it == name {
			s.Inventory = append(s.Inventory[:i], s.Inventory[i+1:]...)
			return true
		}
	}
	return false
}

// CountItem returns the multiplicity of an item.
func (s *State) CountItem(name string) int {
	n := 0
	for _, it := range s.Inventory {
		if it == name {
			n++
		}
	}
	return n
}

// EnterScenario records a scenario switch.
func (s *State) EnterScenario(id string) {
	s.Scenario = id
	s.Visited[id]++
}

// ObjectVisible resolves an object's effective visibility: script
// enable/disable overrides the authored default.
func (s *State) ObjectVisible(o *Object) bool {
	if hidden, ok := s.Hidden[o.ID]; ok {
		return !hidden
	}
	return o.Enabled
}

// LearnedUnits returns the delivered knowledge units in sorted order.
func (s *State) LearnedUnits() []string {
	out := make([]string, 0, len(s.Learned))
	for k := range s.Learned {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MissionComplete reports whether a mission's done-flag is set.
func (s *State) MissionComplete(m *Mission) bool { return s.Flags[m.DoneFlag] }

// Clone deep-copies the state (the simulator forks states to try branches).
func (s *State) Clone() *State {
	c := &State{
		Scenario: s.Scenario,
		Ended:    s.Ended,
		Outcome:  s.Outcome,
	}
	c.Inventory = append([]string(nil), s.Inventory...)
	c.Rewards = append([]string(nil), s.Rewards...)
	c.Flags = make(map[string]bool, len(s.Flags))
	for k, v := range s.Flags {
		c.Flags[k] = v
	}
	c.Vars = make(map[string]int, len(s.Vars))
	for k, v := range s.Vars {
		c.Vars[k] = v
	}
	c.Visited = make(map[string]int, len(s.Visited))
	for k, v := range s.Visited {
		c.Visited[k] = v
	}
	c.Learned = make(map[string]bool, len(s.Learned))
	for k, v := range s.Learned {
		c.Learned[k] = v
	}
	c.Hidden = make(map[string]bool, len(s.Hidden))
	for k, v := range s.Hidden {
		c.Hidden[k] = v
	}
	return c
}
