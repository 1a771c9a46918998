package experiments

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/media/studio"
	"repro/internal/playsvc"
	"repro/internal/sim"
)

// E18 measures the live-classroom fan-out: one instructor-driven session,
// watcher cohorts up to the full class size following the broadcast at
// 10 fps on loopback. The claim under test is the hub's O(1)-per-tick
// contract — the server decodes and renders each state change exactly
// once no matter how many watchers subscribe (render counts are asserted
// against the driver's publication count, not inferred from timing), and
// the cohort quiz channel is lossless: every answer a watcher sent is in
// the final tally. Frames are the only load-sheddable tier; events,
// messages and answers never drop.
func E18(watchers int) (string, error) {
	if watchers <= 0 {
		watchers = 1000
	}
	front, cleanup, err := e18Server()
	if err != nil {
		return "", err
	}
	defer cleanup()

	var b strings.Builder
	b.WriteString("E18 — live classroom fan-out: one render per tick, thousands of watchers\n")
	fmt.Fprintf(&b, "one room, driver paced at 10 acts/s for 4s of lesson; cohorts join as\n")
	b.WriteString("long-poll watchers; every row must render exactly once per publication\n")
	b.WriteString("and lose zero quiz answers\n\n")
	b.WriteString("  watchers | renders | delivered | skipped | frames/s | answers s=r | join p90 | answer p90\n")
	b.WriteString("  ---------+---------+-----------+---------+----------+-------------+----------+-----------\n")

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
		sum, err := e18Run(front, w, 40)
		if err != nil {
			return "", fmt.Errorf("%d watchers: %w", w, err)
		}
		fmt.Fprintf(&b, "  %8d | %7d | %9d | %7d | %8.0f | %5d = %-3d | %8v | %v\n",
			w, sum.Renders, sum.Delivered, sum.Skipped, sum.FramesPerSec,
			sum.AnswersSent, sum.AnswersRecorded,
			sum.Join.P90.Round(time.Microsecond), sum.Answer.P90.Round(time.Microsecond))
	}
	b.WriteString("\nshape check: the renders column tracks the driver's publication count,\n")
	b.WriteString("not the watcher count — a 10x bigger cohort multiplies deliveries, never\n")
	b.WriteString("renders or decodes. Slow watchers shed frames onto the skipped column\n")
	b.WriteString("(bounded per-watcher rings) while the answers column stays exact: the\n")
	b.WriteString("assessment channel is reliable even when the video tier degrades.\n")
	return b.String(), nil
}

// e18Server publishes the classroom course on a deployment, the play
// service's room routes included.
func e18Server() (string, func(), error) {
	blob, err := content.Classroom().BuildPackage(studio.Options{QStep: 10})
	if err != nil {
		return "", nil, err
	}
	d, err := deploy.New(deploy.Config{Play: playsvc.ClusterOptions{Node: playsvc.Options{TTL: -1}}})
	if err != nil {
		return "", nil, err
	}
	if err := d.Publish("classroom", blob); err != nil {
		d.Close()
		return "", nil, err
	}
	front := httptest.NewServer(d)
	return front.URL, func() { front.Close(); d.Close() }, nil
}

// e18Run drives one cohort size and enforces the experiment's invariants:
// no failures, renders exactly equal to driver publications, and a
// lossless answer channel with full cohort participation.
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
	if sum.Renders != sum.Published {
		return nil, fmt.Errorf("renders = %d, driver published %d: the hub rendered more than once per state change", sum.Renders, sum.Published)
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
