package content

import (
	"bytes"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
)

func TestAllCoursesValidate(t *testing.T) {
	for _, c := range []struct {
		name   string
		course *Course
	}{
		{"classroom", Classroom()},
		{"museum", Museum()},
		{"street", StreetDemo()},
	} {
		probs := c.course.Project.Validate(c.course.SegmentNames())
		for _, p := range probs {
			if p.Severity == core.Error {
				t.Errorf("%s: %s", c.name, p)
			}
		}
		if _, err := c.course.Project.CompileEvents(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestChaptersTileFilms(t *testing.T) {
	for _, course := range []*Course{Classroom(), Museum(), StreetDemo()} {
		if course.Chapters[0].Start != 0 {
			t.Error("first chapter must start at 0")
		}
		for i := 1; i < len(course.Chapters); i++ {
			if course.Chapters[i].Start != course.Chapters[i-1].End {
				t.Errorf("%s: chapter gap at %d", course.Project.Title, i)
			}
		}
		last := course.Chapters[len(course.Chapters)-1]
		if last.End != course.Film.FrameCount() {
			t.Errorf("%s: chapters end at %d, film has %d frames",
				course.Project.Title, last.End, course.Film.FrameCount())
		}
	}
}

func TestEveryScenarioHasASegmentChapter(t *testing.T) {
	for _, course := range []*Course{Classroom(), Museum(), StreetDemo()} {
		names := map[string]bool{}
		for _, ch := range course.Chapters {
			names[ch.Name] = true
		}
		for _, s := range course.Project.Scenarios {
			if !names[s.Segment] {
				t.Errorf("%s: scenario %q references missing segment %q",
					course.Project.Title, s.ID, s.Segment)
			}
		}
	}
}

func TestBuildPackageRoundTrip(t *testing.T) {
	course := Classroom()
	blob, err := course.BuildPackage(studio.Options{QStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := gamepack.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Project.Title != course.Project.Title {
		t.Error("project lost in package round trip")
	}
	if len(pkg.Video) == 0 {
		t.Error("video missing from package")
	}
}

func TestCoursesAreDeterministic(t *testing.T) {
	a, _ := Classroom().RecordVideo(studio.Options{QStep: 8})
	b, _ := Classroom().RecordVideo(studio.Options{QStep: 8})
	if string(a) != string(b) {
		t.Error("classroom video not deterministic")
	}
}

// TestPublishLadderToDepositsTheBuiltPackage holds the call a publish makes
// to its definition: PublishLadderTo's manifest is the one DepositChunks
// makes of BuildLadderPackage's blob, and the store behind it holds the same
// chunks, which assemble back into that blob.
func TestPublishLadderToDepositsTheBuiltPackage(t *testing.T) {
	course, opts := Classroom(), studio.Options{QStep: 8}
	published, err := blobstore.New(blobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := course.PublishLadderTo(published, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := course.BuildLadderPackage(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	deposited, err := blobstore.New(blobstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gamepack.DepositChunks(blob, deposited)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(man.Encode(), want.Encode()) {
		t.Fatal("PublishLadderTo's manifest differs from DepositChunks(BuildLadderPackage)")
	}
	got, err := man.Assemble(published.Get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("the published chunks assemble into %d bytes that are not the %d-byte package", len(got), len(blob))
	}
	a, b := published.Stats(), deposited.Stats()
	if a.Chunks != b.Chunks || a.StoredBytes != b.StoredBytes {
		t.Fatalf("published store holds %d chunks, %d bytes; the deposited one %d, %d", a.Chunks, a.StoredBytes, b.Chunks, b.StoredBytes)
	}
}
