package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	goruntime "runtime"
	"testing"

	"repro/internal/content"
	"repro/internal/gamepack"
	"repro/internal/media/studio"
)

// TestSnapshotBytesGolden pins the VSNP bytes themselves. Every other
// snapshot test compares the codec with itself (restore ≡ uninterrupted,
// equal states → equal bytes), so a change that moved a byte everywhere at
// once would pass them all. The constants were recorded at the commit
// before the tagged-record formats moved onto internal/tagrec (PR 23,
// linux/amd64, go1.24) and change only when a PR means to change
// the snapshot format; such a PR re-records them and says so.
//
// A snapshot embeds its footage's digest and the footage is synthesized
// with float64 arithmetic, so — like internal/content's goldens — the
// constants hold for amd64 only.
func TestSnapshotBytesGolden(t *testing.T) {
	if goruntime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64; synth's float math may fuse differently on %s", goruntime.GOARCH)
	}
	answer := func(s *Session) {
		if q, ok := s.PendingQuiz(); ok {
			s.AnswerQuiz(q.ID, q.Answer)
		}
	}
	for _, tc := range []struct {
		course      *content.Course
		script      func(s *Session)
		newborn     string
		afterScript string
	}{
		{content.Classroom(), playFirstHalf,
			"c18bd3c3d62ec7fec0029dba187d1e4277af3eedfe214579374c53f4bdbd924b",
			"9c117be3a25523af236f26fcd03e5778c12c3e1e7c377d07c1a6a7b2f74d9860"},
		{content.Museum(), func(s *Session) {
			s.Talk("curator")
			s.Examine("painting")
			answer(s)
			s.GotoScenario("corridor")
			s.Take("floor-key")
			s.SelectItem("brass key")
			s.Advance(4)
			s.UseItemOn("brass key", "lab-door")
			answer(s)
		},
			"c0e805a52e7fa9e2471756cdff7da4f9740962790bdd8dbf6be9c5462a2a2335",
			"7f019cf34b2490c4180c5b60732f4c2a4033c360d4f06f75f9a961dd8fefec80"},
		{content.StreetDemo(), func(s *Session) {
			s.Take("umbrella")
			s.Examine("info-btn")
			s.Click(80, 60)
			s.GotoScenario("indoors")
			s.Advance(6)
		},
			"e87360463cfbf01e76ac5ebde2aa76e55cac31297c8a65cf2cab8eddd586c127",
			"59ac0b4cd4007aa7b6bc3ec919390cdec6fd64d7b462ee5e839757e8ab72f713"},
	} {
		t.Run(tc.course.Project.Title, func(t *testing.T) {
			blob, err := tc.course.BuildPackage(studio.Options{QStep: 8})
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := gamepack.Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSessionFromPackage(pkg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum := func() string {
				h := sha256.Sum256(s.Snapshot())
				return hex.EncodeToString(h[:])
			}
			if got := sum(); got != tc.newborn {
				t.Errorf("newborn snapshot hashes to %s, recorded %s", got, tc.newborn)
			}
			tc.script(s)
			if got := sum(); got != tc.afterScript {
				t.Errorf("snapshot after the script hashes to %s, recorded %s", got, tc.afterScript)
			}
		})
	}
}
