// Package baseline implements the comparators the experiments measure the
// IVGBL platform against:
//
//   - LinearLesson: the traditional linear-video lesson (no interactivity),
//     the "traditional e-learning" foil of claim C3/E6.
//   - UnindexedSeek: scenario switching without the container's frame
//     index — decode-from-zero, the pre-interactive-video behavior (E2).
//   - HandCodedEffort: an explicit cost model for building the same game
//     without the authoring tool (claim C1/E4).
//   - ProductionCost: the video-vs-3D scenario production model behind the
//     paper's conclusion that filmed segments are the cheaper way to
//     produce scenarios (claim C2/E5).
//
// The effort/cost models are models, not measurements: their constants are
// stated here and printed with every report so the *shape* of the
// comparison is reproducible and auditable.
package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/media/container"
	"repro/internal/media/raster"
	"repro/internal/media/vcodec"
	"repro/internal/script"
)

// LessonReport summarizes what a passive, linear viewing of the course
// footage delivers.
type LessonReport struct {
	DurationFrames int
	Decisions      int      // always 0: linear video offers none
	Knowledge      []string // units delivered passively
}

// LinearLesson models the traditional lesson: the student watches every
// segment once, in order, making no decisions. Knowledge attached to
// scenario entry (narration that plays regardless of interaction) is
// delivered; knowledge gated behind examining, taking, or using objects is
// not — that is precisely the mechanism the paper claims for game-based
// delivery.
func LinearLesson(p *core.Project, totalFrames int) LessonReport {
	rep := LessonReport{DurationFrames: totalFrames}
	seen := map[string]bool{}
	for _, s := range p.Scenarios {
		if s.OnEnter == "" {
			continue
		}
		prog, err := script.Compile(s.OnEnter)
		if err != nil {
			continue
		}
		for _, unit := range prog.LiteralArgs("learn") {
			if !seen[unit] {
				seen[unit] = true
				rep.Knowledge = append(rep.Knowledge, unit)
			}
		}
	}
	return rep
}

// InteractiveKnowledgeCeiling counts every knowledge unit reachable through
// interaction — the upper bound an engaged player can collect.
func InteractiveKnowledgeCeiling(p *core.Project) int {
	seen := map[string]bool{}
	collect := func(src string) {
		prog, err := script.Compile(src)
		if err != nil {
			return
		}
		for _, u := range prog.LiteralArgs("learn") {
			seen[u] = true
		}
	}
	for _, s := range p.Scenarios {
		if s.OnEnter != "" {
			collect(s.OnEnter)
		}
		for _, o := range s.Objects {
			for _, e := range o.Events {
				collect(e.Script)
			}
		}
	}
	return len(seen)
}

// UnindexedSeek decodes frame target starting from frame zero, ignoring the
// container's keyframe index — the linear-scan baseline for experiment E2.
// It returns the decoded frame and the number of frames decoded.
func UnindexedSeek(blob []byte, target int) (*raster.Frame, int, error) {
	r, err := container.Open(blob)
	if err != nil {
		return nil, 0, err
	}
	if target < 0 || target >= r.Meta().FrameCount {
		return nil, 0, fmt.Errorf("baseline: frame %d out of range", target)
	}
	dec := vcodec.NewDecoder()
	var out *raster.Frame
	decoded := 0
	for i := 0; i <= target; i++ {
		data, _, err := r.PacketAt(i)
		if err != nil {
			return nil, decoded, err
		}
		f, err := dec.Decode(data)
		if err != nil {
			return nil, decoded, err
		}
		out = f
		decoded++
	}
	return out, decoded, nil
}

// EffortModel holds the unit costs (in "effort units"; calibrate 1 unit ≈
// one minute of practitioner work) for building a game by hand versus with
// the authoring tool. Constants are deliberately conservative toward the
// hand-coded side: they assume an experienced programmer with a working
// media stack already available.
type EffortModel struct {
	// Hand-coding costs.
	HandVideoPipeline  int // one-time: wire decoding/display by hand
	HandPerScenario    int // scene switching, state wiring
	HandPerObject      int // sprite, hit testing, state
	HandPerEvent       int // handler code, conditions, feedback
	HandPerDialogue    int // conversation plumbing per line
	HandPerCatalogItem int // item/knowledge/mission bookkeeping

	// Tool costs.
	ToolPerOperation int // one editor action (click/drag/field edit)
}

// DefaultEffortModel is the model used by experiment E4.
func DefaultEffortModel() EffortModel {
	return EffortModel{
		HandVideoPipeline:  240,
		HandPerScenario:    30,
		HandPerObject:      20,
		HandPerEvent:       25,
		HandPerDialogue:    4,
		HandPerCatalogItem: 6,
		ToolPerOperation:   1,
	}
}

// EffortReport compares authoring effort for one project.
type EffortReport struct {
	Scenarios, Objects, Events, DialogueLines, CatalogEntries int

	HandUnits int // modeled hand-coding effort
	ToolOps   int // measured tool operations
	ToolUnits int // ToolOps × ToolPerOperation
	Ratio     float64
}

// Effort applies the model to a project built with toolOps primitive
// authoring operations.
func (m EffortModel) Effort(p *core.Project, toolOps int) EffortReport {
	var rep EffortReport
	rep.Scenarios = len(p.Scenarios)
	for _, s := range p.Scenarios {
		rep.Objects += len(s.Objects)
		for _, o := range s.Objects {
			rep.Events += len(o.Events)
			rep.DialogueLines += len(o.Dialogue)
		}
		if s.OnEnter != "" {
			rep.Events++
		}
	}
	rep.CatalogEntries = len(p.Items) + len(p.Knowledge) + len(p.Missions)
	rep.HandUnits = m.HandVideoPipeline +
		rep.Scenarios*m.HandPerScenario +
		rep.Objects*m.HandPerObject +
		rep.Events*m.HandPerEvent +
		rep.DialogueLines*m.HandPerDialogue +
		rep.CatalogEntries*m.HandPerCatalogItem
	rep.ToolOps = toolOps
	rep.ToolUnits = toolOps * m.ToolPerOperation
	if rep.ToolUnits > 0 {
		rep.Ratio = float64(rep.HandUnits) / float64(rep.ToolUnits)
	}
	return rep
}

// ProductionModel prices scenario production (claim C2). Units are
// person-hours per scenario component.
type ProductionModel struct {
	// Filmed video scenarios.
	VideoShootFixed      float64 // location/equipment setup per shoot day
	VideoShootPerScene   float64 // shooting one scene
	VideoSegmentPerScene float64 // segmenting/importing (tool-assisted)

	// Hand-built 3D scenarios.
	ThreeDModelPerScene   float64 // geometry
	ThreeDTexturePerScene float64 // materials/lighting
	ThreeDScriptPerScene  float64 // camera paths, colliders
	ThreeDToolchainFixed  float64 // engine/toolchain setup
}

// DefaultProductionModel returns the constants used by experiment E5.
func DefaultProductionModel() ProductionModel {
	return ProductionModel{
		VideoShootFixed:       8,
		VideoShootPerScene:    1.5,
		VideoSegmentPerScene:  0.25,
		ThreeDModelPerScene:   12,
		ThreeDTexturePerScene: 6,
		ThreeDScriptPerScene:  4,
		ThreeDToolchainFixed:  16,
	}
}

// CostPoint is one row of the E5 sweep.
type CostPoint struct {
	Scenes     int
	VideoHours float64
	ThreeHours float64
	Ratio      float64 // 3D / video
}

// Sweep prices course production for each scene count.
func (m ProductionModel) Sweep(sceneCounts []int) []CostPoint {
	out := make([]CostPoint, 0, len(sceneCounts))
	for _, n := range sceneCounts {
		v := m.VideoShootFixed + float64(n)*(m.VideoShootPerScene+m.VideoSegmentPerScene)
		d := m.ThreeDToolchainFixed + float64(n)*(m.ThreeDModelPerScene+m.ThreeDTexturePerScene+m.ThreeDScriptPerScene)
		out = append(out, CostPoint{Scenes: n, VideoHours: v, ThreeHours: d, Ratio: d / v})
	}
	return out
}
