package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// E18 measures the live-classroom fan-out: one instructor-driven session,
// watcher cohorts up to the full class size following it at 10 fps on
// loopback. A watcher is a replica: each watch reply carries the driver's
// acts, and the watcher replays them on a session of its own, built from
// the package it holds, and renders its own frame; the server renders
// nothing for the room. The claims under test: every watcher ends at the
// room's seq in its driver's state (the replica's state tag equals the
// driver's, asserted, not inferred), and the cohort quiz channel is
// lossless — every answer a watcher sent is in the final tally.
func E18(watchers int) (string, error) {
	if watchers <= 0 {
		watchers = 1000
	}
	s, err := served(untimed(0))
	if err != nil {
		return "", err
	}
	defer s.Close()

	var b strings.Builder
	b.WriteString("E18 — live classroom fan-out: every watcher a replica, thousands of watchers\n")
	fmt.Fprintf(&b, "one room, driver paced at 10 acts/s for 4s of lesson; cohorts follow as\n")
	b.WriteString("long-poll watchers replaying the driver's acts; every row must end each\n")
	b.WriteString("replica at the room's seq and state and lose zero quiz answers\n\n")
	b.WriteString("  watchers | acts | delivered | replies/s | answers s=r | first p90 | answer p90\n")
	b.WriteString("  ---------+------+-----------+-----------+-------------+-----------+-----------\n")

	cohorts := []int{watchers / 10, watchers / 4, watchers}
	seen := map[int]bool{}
	for _, w := range cohorts {
		if w < 1 {
			w = 1
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		sum, err := e18Run(s.URL, w, 40)
		if err != nil {
			return "", fmt.Errorf("%d watchers: %w", w, err)
		}
		fmt.Fprintf(&b, "  %8d | %4d | %9d | %9.0f | %5d = %-3d | %9v | %v\n",
			w, sum.Acts, sum.Delivered, sum.RepliesPerSec,
			sum.AnswersSent, sum.AnswersRecorded,
			sum.First.P90.Round(time.Microsecond), sum.Answer.P90.Round(time.Microsecond))
	}
	b.WriteString("\nshape check: the acts column tracks the driver, not the watcher count — a\n")
	b.WriteString("10x bigger cohort multiplies replies, never server renders (there are\n")
	b.WriteString("none). A slow watcher catches up in one reply per 256 acts and loses\n")
	b.WriteString("nothing: its replica replays every act, so its transcript is the driver's.\n")
	return b.String(), nil
}

// e18Run drives one cohort size and enforces the experiment's invariants:
// no failures, every replica at its room's seq and state, and a lossless
// answer channel with full cohort participation.
func e18Run(front string, watchers, ticks int) (*fleet.ClassroomSummary, error) {
	sum, err := fleet.RunClassroom(fleet.ClassroomConfig{
		ServerURL: front,
		Package:   "classroom",
		Rooms:     1,
		Watchers:  watchers,
		FPS:       10,
		Ticks:     ticks,
		Policy:    sim.GuidedFactory,
		Seed:      977,
	})
	if err != nil {
		return nil, err
	}
	if sum.DriversFailed > 0 || sum.WatchersFailed > 0 {
		return nil, fmt.Errorf("%d drivers and %d watchers failed: %v", sum.DriversFailed, sum.WatchersFailed, sum.Errors)
	}
	if sum.Acts == 0 || sum.Diverged > 0 {
		return nil, fmt.Errorf("%d of %d replicas did not end at the room's %d acts in its driver's state", sum.Diverged, watchers, sum.Acts)
	}
	if int64(sum.AnswersSent) != sum.AnswersRecorded {
		return nil, fmt.Errorf("answers lost: %d sent, %d recorded", sum.AnswersSent, sum.AnswersRecorded)
	}
	if want := sum.QuizzesAsked * watchers; sum.AnswersSent != want {
		return nil, fmt.Errorf("cohort participation skewed: %d answers sent, want %d (%d quizzes x %d watchers)",
			sum.AnswersSent, want, sum.QuizzesAsked, watchers)
	}
	return sum, nil
}
