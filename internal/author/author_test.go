package author

import (
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/raster"
	"repro/internal/media/shotdetect"
	"repro/internal/media/studio"
	"repro/internal/media/synth"
)

// importedTool returns a tool with a 3-shot film imported and
// auto-segmented.
func importedTool(t *testing.T) *Tool {
	t.Helper()
	film := synth.Generate(synth.Spec{
		W: 96, H: 64, FPS: 10,
		Shots: 3, MinShotFrames: 14, MaxShotFrames: 20,
		Seed: 9,
	})
	tool := New("Test Game")
	cfg := shotdetect.Defaults()
	if err := tool.ImportFootage(film, ImportOptions{
		Encode: studio.Options{QStep: 8},
		Detect: cfg,
	}); err != nil {
		t.Fatal(err)
	}
	return tool
}

func TestImportAutoSegments(t *testing.T) {
	tool := importedTool(t)
	if tool.Video() == nil {
		t.Fatal("video not stored")
	}
	names := tool.SegmentNames()
	if len(names) != 3 {
		t.Fatalf("auto-segmentation found %d segments, want 3: %v", len(names), names)
	}
	chs := tool.Chapters()
	if chs[0].Start != 0 {
		t.Error("first segment must start at frame 0")
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].Start != chs[i-1].End {
			t.Error("segments must tile the video")
		}
	}
}

func TestImportUndo(t *testing.T) {
	tool := importedTool(t)
	if !tool.Undo() {
		t.Fatal("undo failed")
	}
	if tool.Video() != nil || len(tool.Chapters()) != 0 {
		t.Fatal("undo did not revert import")
	}
	if !tool.Redo() {
		t.Fatal("redo failed")
	}
	if tool.Video() == nil {
		t.Fatal("redo did not restore import")
	}
}

func TestSegmentOps(t *testing.T) {
	tool := importedTool(t)
	names := tool.SegmentNames()
	// Rename.
	if err := tool.RenameSegment(names[0], "intro"); err != nil {
		t.Fatal(err)
	}
	if tool.SegmentNames()[0] != "intro" {
		t.Fatal("rename failed")
	}
	if err := tool.RenameSegment("intro", names[1]); err == nil {
		t.Fatal("duplicate rename accepted")
	}
	// Split.
	ch := tool.Chapters()[0]
	mid := (ch.Start + ch.End) / 2
	if err := tool.SplitSegment("intro", mid, "intro-b"); err != nil {
		t.Fatal(err)
	}
	chs := tool.Chapters()
	if len(chs) != 4 || chs[0].End != mid || chs[1].Start != mid || chs[1].Name != "intro-b" {
		t.Fatalf("split wrong: %+v", chs)
	}
	// Split validation.
	if err := tool.SplitSegment("intro", ch.Start, "x"); err == nil {
		t.Fatal("split at segment start accepted")
	}
	// Merge back.
	if err := tool.MergeSegmentWithNext("intro"); err != nil {
		t.Fatal(err)
	}
	chs = tool.Chapters()
	if len(chs) != 3 || chs[0].End != ch.End {
		t.Fatalf("merge wrong: %+v", chs)
	}
	// Undo the merge: split state returns.
	tool.Undo()
	if len(tool.Chapters()) != 4 {
		t.Fatal("merge undo failed")
	}
	// Undo split, rename: original state.
	tool.Undo()
	tool.Undo()
	if tool.SegmentNames()[0] != names[0] {
		t.Fatalf("undo chain broken: %v", tool.SegmentNames())
	}
}

func TestMergeRetargetsScenarios(t *testing.T) {
	tool := importedTool(t)
	names := tool.SegmentNames()
	tool.AddScenario("a", "A", names[0])
	tool.AddScenario("b", "B", names[1])
	if err := tool.MergeSegmentWithNext(names[0]); err != nil {
		t.Fatal(err)
	}
	if got := tool.Project().ScenarioByID("b").Segment; got != names[0] {
		t.Fatalf("scenario b segment = %q, want %q", got, names[0])
	}
	tool.Undo()
	if got := tool.Project().ScenarioByID("b").Segment; got != names[1] {
		t.Fatalf("undo retarget failed: %q", got)
	}
}

func TestScenarioAndObjectEditing(t *testing.T) {
	tool := importedTool(t)
	seg := tool.SegmentNames()[0]
	if err := tool.AddScenario("room", "Room", seg); err != nil {
		t.Fatal(err)
	}
	if err := tool.AddScenario("room", "Dup", seg); err == nil {
		t.Fatal("duplicate scenario accepted")
	}
	if err := tool.AddScenario("x", "X", "ghost-segment"); err == nil {
		t.Fatal("unknown segment accepted")
	}
	if err := tool.SetStartScenario("room"); err != nil {
		t.Fatal(err)
	}
	obj := &core.Object{
		ID: "lamp", Name: "Lamp", Kind: core.Hotspot, Enabled: true,
		Region: raster.Rect{X: 5, Y: 5, W: 10, H: 10},
	}
	if err := tool.AddObject("room", obj); err != nil {
		t.Fatal(err)
	}
	if err := tool.AddObject("room", &core.Object{ID: "lamp", Kind: core.Hotspot}); err == nil {
		t.Fatal("duplicate object accepted")
	}
	if err := tool.MoveObject("lamp", raster.Rect{X: 20, Y: 20, W: 8, H: 8}); err != nil {
		t.Fatal(err)
	}
	if tool.Project().Scenarios[0].Objects[0].Region.X != 20 {
		t.Fatal("move failed")
	}
	tool.Undo()
	if tool.Project().Scenarios[0].Objects[0].Region.X != 5 {
		t.Fatal("move undo failed")
	}
	if err := tool.SetObjectProperty("lamp", "name", "Desk Lamp"); err != nil {
		t.Fatal(err)
	}
	if err := tool.SetObjectProperty("lamp", "takeable", "true"); err != nil {
		t.Fatal(err)
	}
	if err := tool.SetObjectProperty("lamp", "kind", "item"); err != nil {
		t.Fatal(err)
	}
	if err := tool.SetObjectProperty("lamp", "kind", "dragon"); err == nil {
		t.Fatal("bad kind accepted")
	}
	if err := tool.SetObjectProperty("lamp", "mood", "angry"); err == nil {
		t.Fatal("unknown property accepted")
	}
	o := tool.Project().Scenarios[0].Objects[0]
	if o.Name != "Desk Lamp" || !o.Takeable || o.Kind != core.Item {
		t.Fatalf("properties wrong: %+v", o)
	}
	// Events.
	if err := tool.AddEvent("lamp", core.Event{Trigger: core.OnClick, Script: `say "click";`}); err != nil {
		t.Fatal(err)
	}
	if err := tool.RemoveEvent("lamp", 5); err == nil {
		t.Fatal("bad event index accepted")
	}
	if err := tool.RemoveEvent("lamp", 0); err != nil {
		t.Fatal(err)
	}
	if len(o.Events) != 0 {
		t.Fatal("event not removed")
	}
	tool.Undo()
	if len(o.Events) != 1 {
		t.Fatal("event removal undo failed")
	}
	// Remove object.
	if err := tool.RemoveObject("lamp"); err != nil {
		t.Fatal(err)
	}
	if _, got := tool.Project().FindObject("lamp"); got != nil {
		t.Fatal("object not removed")
	}
	tool.Undo()
	if _, got := tool.Project().FindObject("lamp"); got == nil {
		t.Fatal("object removal undo failed")
	}
}

func TestOpsCounterCounts(t *testing.T) {
	tool := importedTool(t) // 1 op (import)
	seg := tool.SegmentNames()[0]
	tool.AddScenario("a", "A", seg)
	tool.SetStartScenario("a")
	tool.Undo()
	tool.Redo()
	if got := tool.Ops(); got != 5 {
		t.Fatalf("ops = %d, want 5", got)
	}
}

func TestExportPackageEndToEnd(t *testing.T) {
	tool := importedTool(t)
	segs := tool.SegmentNames()
	tool.AddScenario("start", "Start", segs[0])
	tool.AddScenario("end", "End", segs[1])
	tool.SetStartScenario("start")
	tool.AddKnowledgeUnit(&core.KnowledgeUnit{ID: "k1", Topic: "T"})
	tool.AddObject("start", &core.Object{
		ID: "door", Name: "Door", Kind: core.NavButton, Enabled: true,
		Region: raster.Rect{X: 5, Y: 5, W: 10, H: 10},
		Events: []core.Event{{Trigger: core.OnClick, Script: `learn "k1"; goto "end";`}},
	})
	blob, err := tool.ExportPackage()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Project.StartScenario != "start" {
		t.Error("project wrong in export")
	}
}

func TestExportRejectsInvalidProject(t *testing.T) {
	tool := importedTool(t)
	tool.AddScenario("a", "A", tool.SegmentNames()[0])
	tool.SetStartScenario("a")
	tool.AddObject("a", &core.Object{
		ID: "bad", Name: "Bad", Kind: core.Hotspot, Enabled: true,
		Region: raster.Rect{X: 0, Y: 0, W: 5, H: 5},
		Events: []core.Event{{Trigger: core.OnClick, Script: `goto "atlantis";`}},
	})
	if _, err := tool.ExportPackage(); err == nil {
		t.Fatal("invalid project exported")
	}
	if _, err := New("empty").ExportPackage(); err == nil {
		t.Fatal("export without video accepted")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	tool := importedTool(t)
	tool.AddScenario("a", "A", tool.SegmentNames()[0])
	projJSON, err := tool.SaveProject()
	if err != nil {
		t.Fatal(err)
	}
	tool2, err := Load(projJSON, tool.Video())
	if err != nil {
		t.Fatal(err)
	}
	if tool2.Project().ScenarioByID("a") == nil {
		t.Fatal("project lost in load")
	}
	if len(tool2.Chapters()) == 0 {
		t.Fatal("chapters lost in load")
	}
	if _, err := Load([]byte("{bad"), nil); err == nil {
		t.Fatal("bad project JSON accepted")
	}
	if _, err := Load(nil, []byte("bad video")); err == nil {
		t.Fatal("bad video accepted")
	}
}

func TestImportKeepChapters(t *testing.T) {
	course := content.Classroom()
	video, err := course.RecordVideo(studio.Options{QStep: 10})
	if err != nil {
		t.Fatal(err)
	}
	tool := New("kept")
	if err := tool.ImportVideo(video, ImportOptions{KeepChapters: true}); err != nil {
		t.Fatal(err)
	}
	names := tool.SegmentNames()
	if len(names) != 2 || names[0] != "seg-classroom" {
		t.Fatalf("chapters not kept: %v", names)
	}
}

func TestPreviewFrame(t *testing.T) {
	tool := importedTool(t)
	seg := tool.SegmentNames()[1]
	f, err := tool.PreviewFrame(seg)
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 96 || f.H != 64 {
		t.Fatalf("preview size %dx%d", f.W, f.H)
	}
	if _, err := tool.PreviewFrame("ghost"); err == nil {
		t.Fatal("preview of unknown segment accepted")
	}
}

func TestEditorWindowFigure1(t *testing.T) {
	// Build the classroom course through the tool and snapshot the editor.
	course := content.Classroom()
	video, _ := course.RecordVideo(studio.Options{QStep: 8})
	projJSON, _ := course.Project.Marshal()
	tool, err := Load(projJSON, video)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditorWindow(tool)
	if got := ed.scenarios.Items; len(got) != 2 {
		t.Fatalf("scenario list = %v", got)
	}
	ed.SelectScenario("classroom")
	if ed.SelectedScenario() != "classroom" {
		t.Fatal("selection failed")
	}
	if len(ed.objects.Items) != 4 {
		t.Fatalf("object list = %v", ed.objects.Items)
	}
	ed.SelectObject("computer")
	found := false
	for _, r := range ed.props.Rows {
		if r.Key == "kind" && r.Value == "hotspot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("property sheet rows = %+v", ed.props.Rows)
	}
	// Snapshot is deterministic and shows the panel titles.
	s1 := ed.Snapshot(120, 40)
	ed2 := NewEditorWindow(tool)
	ed2.SelectScenario("classroom")
	ed2.SelectObject("computer")
	s2 := ed2.Snapshot(120, 40)
	if s1 != s2 {
		t.Error("editor snapshot not deterministic")
	}
	if !strings.Contains(s1, "\n") || len(s1) < 1000 {
		t.Error("snapshot suspiciously small")
	}
	// Clicking the timeline in the window updates the status bar.
	tl := ed.Win.FindByID("timeline")
	b := tl.Bounds()
	ed.Win.Click(b.X+b.W/2, b.Y+b.H/2)
	if !strings.Contains(ed.Status.Text, "SEGMENT") {
		t.Errorf("status after timeline click: %q", ed.Status.Text)
	}
}

// TestSetTitleAndAuthor: the project's title and author are edits like any
// other — applied, undone to the previous value, redone.
func TestSetTitleAndAuthor(t *testing.T) {
	tool := New("Draft")
	if err := tool.SetTitle("Fixing a PC"); err != nil {
		t.Fatal(err)
	}
	if err := tool.SetAuthor("Lab 3"); err != nil {
		t.Fatal(err)
	}
	p := tool.Project()
	if p.Title != "Fixing a PC" || p.Author != "Lab 3" {
		t.Fatalf("title %q, author %q after the edits", p.Title, p.Author)
	}
	tool.Undo()
	if p.Title != "Fixing a PC" || p.Author != "" {
		t.Fatalf("title %q, author %q after undoing the author", p.Title, p.Author)
	}
	tool.Undo()
	if p.Title != "Draft" {
		t.Fatalf("title %q after undoing it, want the original", p.Title)
	}
	tool.Redo()
	tool.Redo()
	if p.Title != "Fixing a PC" || p.Author != "Lab 3" {
		t.Fatalf("title %q, author %q after redoing both", p.Title, p.Author)
	}
}

// TestRemoveScenarioTakesItsObjects: removing a scenario removes the
// objects it holds, and undo puts both back in place.
func TestRemoveScenarioTakesItsObjects(t *testing.T) {
	tool := New("Draft")
	for _, id := range []string{"hall", "lab", "office"} {
		if err := tool.AddScenario(id, id, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"bench", "scope"} {
		if err := tool.AddObject("lab", &core.Object{ID: id, Kind: core.Hotspot}); err != nil {
			t.Fatal(err)
		}
	}
	ids := func() string {
		var s []string
		for _, sc := range tool.Project().Scenarios {
			s = append(s, sc.ID)
		}
		return strings.Join(s, ",")
	}
	if err := tool.RemoveScenario("attic"); err == nil {
		t.Fatal("removing an unknown scenario succeeded")
	}
	if err := tool.RemoveScenario("lab"); err != nil {
		t.Fatal(err)
	}
	if got := ids(); got != "hall,office" {
		t.Fatalf("scenarios %s after removing lab", got)
	}
	for _, id := range []string{"bench", "scope"} {
		if sc, _ := tool.Project().FindObject(id); sc != nil {
			t.Fatalf("object %s outlived its scenario (in %s)", id, sc.ID)
		}
	}
	tool.Undo()
	if got := ids(); got != "hall,lab,office" {
		t.Fatalf("scenarios %s after the undo, want lab back in place", got)
	}
	for _, id := range []string{"bench", "scope"} {
		if sc, _ := tool.Project().FindObject(id); sc == nil || sc.ID != "lab" {
			t.Fatalf("object %s not back in lab after the undo", id)
		}
	}
}
