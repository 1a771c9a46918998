// Package content ships the sample courseware used throughout the
// repository: the paper's §3.2 classroom computer-repair mission, a museum
// course exercising NPC dialogue and rewards, and the street scene of
// Figure 2 (the umbrella demo). Examples, figures, the simulator and the
// experiments all build on these so results are comparable everywhere.
package content

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

// Course bundles a project with the footage that backs it.
type Course struct {
	Project *core.Project
	Film    *synth.Film
	// Chapters maps project segments onto film frame ranges.
	Chapters []container.Chapter
}

// RecordVideo encodes the course footage into a TKVC blob with the course's
// segment chapters.
func (c *Course) RecordVideo(opts studio.Options) ([]byte, error) {
	opts.Chapters = c.Chapters
	return studio.Record(c.Film, opts)
}

// BuildPackage records the video and wraps everything into a .tkg package.
func (c *Course) BuildPackage(opts studio.Options) ([]byte, error) {
	video, err := c.RecordVideo(opts)
	if err != nil {
		return nil, fmt.Errorf("content: %w", err)
	}
	return gamepack.Build(c.Project, video)
}

// SegmentNames returns the chapter names (for core.Project.Validate).
func (c *Course) SegmentNames() []string {
	names := make([]string, len(c.Chapters))
	for i, ch := range c.Chapters {
		names[i] = ch.Name
	}
	return names
}

// chaptersFromShots names each shot of the film in order. It panics when
// the name count does not match the shot count — a fixture bug.
func chaptersFromShots(f *synth.Film, names []string) []container.Chapter {
	if len(names) != len(f.Shots) {
		panic(fmt.Sprintf("content: %d names for %d shots", len(names), len(f.Shots)))
	}
	chs := make([]container.Chapter, len(names))
	for i, n := range names {
		start := f.ShotStart(i)
		chs[i] = container.Chapter{Name: n, Start: start, End: start + f.Shots[i].Frames}
	}
	return chs
}

// Classroom builds the paper's running example (§3.2): the teacher's
// computer is broken; the player examines it, finds the empty RAM slot,
// picks a coin off the desk, travels to the market, buys a module, returns
// and repairs the machine.
func Classroom() *Course {
	film := synth.FromScenes(160, 120, 10, 2007, []synth.SceneShot{
		{Kind: synth.Classroom, Seconds: 4},
		{Kind: synth.Market, Seconds: 4},
	})
	chapters := chaptersFromShots(film, []string{"seg-classroom", "seg-market"})

	p := core.NewProject("Fix The Classroom Computer")
	p.Author = "IVGBL sample content"
	p.StartScenario = "classroom"
	p.Items = []*core.ItemDef{
		{ID: "coin", Name: "Coin", Description: "Enough for one component."},
		{ID: "ram module", Name: "RAM Module", Description: "A DDR2 memory stick."},
		{ID: "scout-badge", Name: "Scout Badge", Description: "Awarded for diagnosing the fault.", Reward: true},
		{ID: "shopper-badge", Name: "Shopper Badge", Description: "Awarded for finding the right part.", Reward: true},
		{ID: "repair-badge", Name: "Repair Badge", Description: "Awarded for fixing the computer.", Reward: true},
	}
	p.Knowledge = []*core.KnowledgeUnit{
		{ID: "ram-identification", Topic: "Hardware", Description: "Recognizing an empty memory slot."},
		{ID: "hardware-shopping", Topic: "Hardware", Description: "Choosing a compatible replacement part."},
		{ID: "ram-installation", Topic: "Hardware", Description: "Seating a module in its socket."},
	}
	p.Missions = []*core.Mission{{
		ID: "fix-computer", Title: "Fix the classroom computer",
		Description: "Find out why the computer will not boot and repair it.",
		DoneFlag:    "fixed", Reward: "repair-badge", Knowledge: "ram-installation",
	}}
	p.Quizzes = []*core.Quiz{
		{
			ID:       "q-diagnosis",
			Question: "WHY DOES THE COMPUTER FAIL TO BOOT?",
			Choices:  []string{"THE SCREEN IS BROKEN", "A MEMORY MODULE IS MISSING", "IT IS UNPLUGGED"},
			Answer:   1, Knowledge: "ram-identification", Points: 10,
		},
		{
			ID:       "q-shopping",
			Question: "WHICH PART FITS THE OLD CLASSROOM MACHINE?",
			Choices:  []string{"A DDR2 MODULE", "ANY MODULE WILL DO"},
			Answer:   0, Knowledge: "hardware-shopping", Points: 10,
		},
		{
			ID:       "q-install",
			Question: "WHERE DOES THE MODULE GO?",
			Choices:  []string{"INTO THE DIMM SOCKET", "NEXT TO THE FAN", "BEHIND THE DISK"},
			Answer:   0, Knowledge: "ram-installation", Points: 20,
		},
	}
	p.InitialVars = map[string]int{"score": 0}
	p.Scenarios = []*core.Scenario{
		{
			ID: "classroom", Name: "Classroom", Segment: "seg-classroom",
			Description: "A tidy classroom; one computer refuses to boot.",
			OnEnter:     `if !flag("briefed") { setflag briefed true; say "TEACHER: The computer is dead. Please fix it!"; }`,
			Objects: []*core.Object{
				{
					ID: "teacher", Name: "Teacher", Kind: core.NPC, Enabled: true,
					Region: raster.Rect{X: 10, Y: 46, W: 18, H: 34},
					Dialogue: []string{
						"The computer stopped working this morning.",
						"The market across the street sells parts.",
					},
				},
				{
					ID: "computer", Name: "Computer", Kind: core.Hotspot, Enabled: true,
					Region:      raster.Rect{X: 96, Y: 16, W: 40, H: 30},
					Description: "A beige tower PC. The power light blinks but nothing boots.",
					Events: []core.Event{
						{Trigger: core.OnExamine, Script: `
							say "One memory slot is empty - the module is missing!";
							learn "ram-identification";
							if !flag("diagnosed") {
								setflag diagnosed true;
								reward "scout-badge";
								quiz "q-diagnosis";
							}
						`},
						{Trigger: core.OnUse, UseItem: "ram module", Script: `
							take "ram module";
							setflag fixed true;
							say "The computer boots! Mission accomplished.";
							learn "ram-installation";
							reward "repair-badge";
							set score = score + 50;
							popup "text" "WELL DONE - THE CLASS CAN WORK AGAIN";
							quiz "q-install";
							end "victory";
						`},
						{Trigger: core.OnClick, Script: `say "It will not boot. Better examine it first.";`},
					},
				},
				{
					ID: "desk-coin", Name: "Coin", Kind: core.Item, Enabled: true, Takeable: true,
					Region:      raster.Rect{X: 60, Y: 70, W: 10, H: 8},
					Sprite:      core.SpriteSpec{Shape: "coin", Color: raster.Yellow},
					Description: "Someone left a coin on the desk.",
					Events: []core.Event{
						{Trigger: core.OnTake, Script: `give "coin"; say "You pocket the coin.";`},
					},
				},
				{
					ID: "to-market", Name: "To Market", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "MARKET"},
					Events: []core.Event{
						{Trigger: core.OnClick, Script: `goto "market";`},
					},
				},
			},
		},
		{
			ID: "market", Name: "Market", Segment: "seg-market",
			Description: "A street market with an electronics stall.",
			Objects: []*core.Object{
				{
					ID: "vendor", Name: "Vendor", Kind: core.NPC, Enabled: true,
					Region: raster.Rect{X: 16, Y: 46, W: 18, H: 34},
					Dialogue: []string{
						"Memory modules! One coin apiece.",
						"Check the label: DDR2 for that old classroom machine.",
					},
				},
				{
					ID: "stall-ram", Name: "RAM Module", Kind: core.Item, Enabled: true, Takeable: true,
					Region:      raster.Rect{X: 70, Y: 62, W: 14, H: 10},
					Sprite:      core.SpriteSpec{Shape: "chip", Color: raster.Green},
					Description: "A DDR2 module on the stall. The vendor watches closely.",
					Events: []core.Event{
						{Trigger: core.OnTake, Condition: `has("coin")`, Script: `
							take "coin";
							give "ram module";
							say "VENDOR: A fine choice. That is the right type.";
							learn "hardware-shopping";
							reward "shopper-badge";
							quiz "q-shopping";
						`},
						{Trigger: core.OnClick, Script: `
							if has("ram module") {
								say "You already have the module you need.";
							} else if has("coin") {
								say "Drag the module to your backpack to buy it.";
							} else {
								say "VENDOR: No coin, no module, friend.";
							}
						`},
					},
				},
				{
					ID: "to-classroom", Name: "Back", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "BACK"},
					Events: []core.Event{
						{Trigger: core.OnClick, Script: `goto "classroom";`},
					},
				},
			},
		},
	}
	return &Course{Project: p, Film: film, Chapters: chapters}
}

// Museum builds a second course: find the curator's lost key in the
// corridor, unlock the lab, and study the exhibit — exercising enable/
// disable, multi-hop navigation and reward collection.
func Museum() *Course {
	film := synth.FromScenes(160, 120, 10, 1930, []synth.SceneShot{
		{Kind: synth.Museum, Seconds: 4},
		{Kind: synth.Corridor, Seconds: 3, Fade: true},
		{Kind: synth.Lab, Seconds: 4},
	})
	chapters := chaptersFromShots(film, []string{"seg-hall", "seg-corridor", "seg-lab"})

	p := core.NewProject("Night At The Science Museum")
	p.Author = "IVGBL sample content"
	p.StartScenario = "hall"
	p.Items = []*core.ItemDef{
		{ID: "brass key", Name: "Brass Key", Description: "Opens the lab door."},
		{ID: "finder-badge", Name: "Finder Badge", Description: "Awarded for recovering the lost key.", Reward: true},
		{ID: "scholar-badge", Name: "Scholar Badge", Description: "Awarded for completing the exhibit study.", Reward: true},
	}
	p.Knowledge = []*core.KnowledgeUnit{
		{ID: "electricity-basics", Topic: "Physics", Description: "The Van de Graaff generator."},
		{ID: "lab-safety", Topic: "Physics", Description: "Rules before touching equipment."},
		{ID: "observation", Topic: "Method", Description: "Careful observation finds hidden things."},
	}
	p.Missions = []*core.Mission{{
		ID: "study-exhibit", Title: "Study the generator",
		Description: "Unlock the lab and study the Van de Graaff exhibit.",
		DoneFlag:    "studied", Reward: "scholar-badge", Knowledge: "electricity-basics",
	}}
	p.Quizzes = []*core.Quiz{
		{
			ID:       "q-electricity",
			Question: "WHAT ACCUMULATES ON THE GENERATOR DOME?",
			Choices:  []string{"ELECTRIC CHARGE", "WATER VAPOR", "MAGNETISM"},
			Answer:   0, Knowledge: "electricity-basics", Points: 20,
		},
		{
			// Asked at the finale regardless of whether the learner ever
			// studied the painting — learners who skipped it answer at
			// chance level, which is what lets E6 separate strategies.
			ID:       "q-observation",
			Question: "WHOSE PORTRAIT HANGS IN THE MAIN HALL?",
			Choices:  []string{"NEWTON", "FARADAY", "TESLA", "CURIE"},
			Answer:   1, Knowledge: "observation", Points: 10,
		},
	}
	p.Scenarios = []*core.Scenario{
		{
			ID: "hall", Name: "Main Hall", Segment: "seg-hall",
			OnEnter: `if !flag("welcomed") { setflag welcomed true; say "CURATOR: I lost the lab key somewhere in the corridor..."; }`,
			Objects: []*core.Object{
				{
					ID: "curator", Name: "Curator", Kind: core.NPC, Enabled: true,
					Region: raster.Rect{X: 14, Y: 46, W: 18, H: 34},
					Dialogue: []string{
						"The lab holds our best exhibit.",
						"I dropped the brass key in the corridor, I am sure of it.",
					},
				},
				{
					ID: "painting", Name: "Old Painting", Kind: core.Hotspot, Enabled: true,
					Region:      raster.Rect{X: 100, Y: 14, W: 30, H: 24},
					Description: "A portrait of Michael Faraday.",
					Events: []core.Event{
						{Trigger: core.OnExamine, Script: `say "Faraday watches over the hall."; learn "observation";`},
					},
				},
				{
					ID: "to-corridor", Name: "Corridor", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "GO"},
					Events: []core.Event{{Trigger: core.OnClick, Script: `goto "corridor";`}},
				},
			},
		},
		{
			ID: "corridor", Name: "Corridor", Segment: "seg-corridor",
			Objects: []*core.Object{
				{
					ID: "floor-key", Name: "Brass Key", Kind: core.Item, Enabled: true, Takeable: true,
					Region:      raster.Rect{X: 84, Y: 74, W: 10, H: 6},
					Sprite:      core.SpriteSpec{Shape: "box", Color: raster.Yellow},
					Description: "A small brass key glinting on the floor.",
					Events: []core.Event{
						{Trigger: core.OnTake, Script: `give "brass key"; say "Found the curator's key!"; learn "observation"; reward "finder-badge";`},
					},
				},
				{
					ID: "lab-door", Name: "Lab Door", Kind: core.Hotspot, Enabled: true,
					Region:      raster.Rect{X: 36, Y: 30, W: 22, H: 44},
					Description: "A heavy door labeled LABORATORY.",
					Events: []core.Event{
						{Trigger: core.OnUse, UseItem: "brass key", Script: `
							say "The lock turns smoothly.";
							setflag lab-open true;
							goto "lab";
						`},
						{Trigger: core.OnClick, Script: `
							if flag("lab-open") { goto "lab"; } else { say "Locked. The curator mentioned a key."; }
						`},
					},
				},
				{
					ID: "to-hall", Name: "Back", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "BACK"},
					Events: []core.Event{{Trigger: core.OnClick, Script: `goto "hall";`}},
				},
			},
		},
		{
			ID: "lab", Name: "Laboratory", Segment: "seg-lab",
			OnEnter: `if !flag("safety") { setflag safety true; say "A sign reads: OBSERVE, DO NOT TOUCH."; learn "lab-safety"; }`,
			Objects: []*core.Object{
				{
					ID: "generator", Name: "Van de Graaff Generator", Kind: core.Hotspot, Enabled: true,
					Region:      raster.Rect{X: 70, Y: 24, W: 30, H: 44},
					Description: "A tall generator with a gleaming dome.",
					Events: []core.Event{
						{Trigger: core.OnExamine, Script: `
							say "Charge accumulates on the dome - static electricity at work.";
							learn "electricity-basics";
							setflag studied true;
							reward "scholar-badge";
							popup "text" "EXHIBIT STUDY COMPLETE";
							quiz "q-electricity";
							quiz "q-observation";
							end "victory";
						`},
					},
				},
				{
					ID: "to-corridor-2", Name: "Back", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "BACK"},
					Events: []core.Event{{Trigger: core.OnClick, Script: `goto "corridor";`}},
				},
			},
		},
	}
	return &Course{Project: p, Film: film, Chapters: chapters}
}

// StreetDemo reproduces the situation in the paper's Figure 2: a street
// scene with an umbrella image object (white background) mounted on the
// video frame, an inventory window below, and buttons that switch segments
// or open a website.
func StreetDemo() *Course {
	film := synth.FromScenes(160, 120, 10, 77, []synth.SceneShot{
		{Kind: synth.Street, Seconds: 4},
		{Kind: synth.Corridor, Seconds: 3},
	})
	chapters := chaptersFromShots(film, []string{"seg-street", "seg-indoors"})

	p := core.NewProject("Umbrella Demo")
	p.Author = "IVGBL sample content"
	p.StartScenario = "street"
	p.Items = []*core.ItemDef{
		{ID: "umbrella", Name: "Umbrella", Description: "A red umbrella someone left behind."},
	}
	p.Knowledge = []*core.KnowledgeUnit{
		{ID: "weather-prep", Topic: "Daily Life", Description: "Being prepared for rain."},
	}
	p.Scenarios = []*core.Scenario{
		{
			ID: "street", Name: "Street", Segment: "seg-street",
			Objects: []*core.Object{
				{
					ID: "umbrella", Name: "Umbrella", Kind: core.Item, Enabled: true, Takeable: true,
					Region:      raster.Rect{X: 64, Y: 56, W: 18, H: 22},
					Sprite:      core.SpriteSpec{Shape: "umbrella", Color: raster.Red},
					Description: "A red umbrella. Looks sturdy.",
					Events: []core.Event{
						{Trigger: core.OnTake, Script: `give "umbrella"; say "Into the backpack it goes."; learn "weather-prep";`},
						{Trigger: core.OnExamine, Script: `say "A red umbrella with a wooden handle.";`},
					},
				},
				{
					ID: "info-btn", Name: "Info", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 6, Y: 96, W: 22, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Yellow, Label: "INFO"},
					Events: []core.Event{
						{Trigger: core.OnClick, Script: `open "http://course.example/umbrella";`},
					},
				},
				{
					ID: "go-indoors", Name: "Indoors", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "GO IN"},
					Events: []core.Event{{Trigger: core.OnClick, Script: `goto "indoors";`}},
				},
			},
		},
		{
			ID: "indoors", Name: "Indoors", Segment: "seg-indoors",
			Objects: []*core.Object{
				{
					ID: "back-out", Name: "Outside", Kind: core.NavButton, Enabled: true,
					Region: raster.Rect{X: 132, Y: 96, W: 24, H: 14},
					Sprite: core.SpriteSpec{Shape: "box", Color: raster.Cyan, Label: "OUT"},
					Events: []core.Event{{Trigger: core.OnClick, Script: `goto "street";`}},
				},
			},
		},
	}
	return &Course{Project: p, Film: film, Chapters: chapters}
}
