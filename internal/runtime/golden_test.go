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
// the snapshot format; such a PR re-records them and says so. They were
// re-recorded for the TKV2 bitstream (EXPERIMENTS.md E50), which moved
// only the embedded video digest and the checksum after it, and for VSNP
// version 2 (EXPERIMENTS.md E56), whose state record is the act reply's
// state bytes and whose lists and maps are binary.
//
// A snapshot embeds its footage's digest and the footage is synthesized
// with float64 arithmetic, so — like internal/content's goldens — the
// constants are checked on amd64 and 386 only.
func TestSnapshotBytesGolden(t *testing.T) {
	if goruntime.GOARCH != "amd64" && goruntime.GOARCH != "386" {
		t.Skipf("goldens checked on amd64 and 386; synth's float math may fuse differently on %s", goruntime.GOARCH)
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
			"a9a28e21690a7fd2bc0916251fcc97659376cc598c61549022d2a4cbdb148a05",
			"09f912c0e16a745cde4c29b05d9fd272b09fc964fe3c77233923190540e7c05a"},
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
			"1f8f30d2c524e15c40f13c505cae42636e4ed2c415a0596f43ea302cc2a5fca0",
			"728830d4e553224fe14e864ae1a0dee20c3ceafc097e42f1f6e240a4d0fb3cca"},
		{content.StreetDemo(), func(s *Session) {
			s.Take("umbrella")
			s.Examine("info-btn")
			s.Click(80, 60)
			s.GotoScenario("indoors")
			s.Advance(6)
		},
			"0f013ce961e8c5cae1df2ef6e09e929c3f9d7229e1dd7e40f7bab051e7737ca1",
			"34f58c4715bc3c82aae24e3da4e23b668cea2afdd0f351bc0363d7dbca86ab4d"},
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
