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
// only the embedded video digest and the checksum after it.
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
			"931908f057d51437bb6bb9ca47a2bb51c960fecccffd7c340ceb64bbad9aac4c",
			"4af1d3655796649612767082a2245d4f3c421adc640c27ab559a085efaf5a9c0"},
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
			"0392ad25f7650a0c904c30dd659be7a78ed85185b5aef863b22dc9c600f33e8b",
			"fd8519039302571383ed3995e5c0ee0341e32535e907884b6631d1206e24e123"},
		{content.StreetDemo(), func(s *Session) {
			s.Take("umbrella")
			s.Examine("info-btn")
			s.Click(80, 60)
			s.GotoScenario("indoors")
			s.Advance(6)
		},
			"4f12a91ca18f5fcb2666364a0eb854441ddd9e804cfeb8d8d2d6627b550d1944",
			"383776bd11207152b4c3b27190416ed1e1ad5a28ecd86cb37bcbc008adb01662"},
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
