// Command vgbl-play is the IVGBL gaming platform's command-line front end
// (paper §4.3). It plays a .tkg package either interactively (a text REPL
// over the same session the GUI window drives), with a simulated learner
// bot, or just prints the runtime interface (Figure 2).
//
// Usage:
//
//	vgbl-play -demo street -snapshot
//	vgbl-play -pkg game.tkg               # interactive REPL on stdin
//	vgbl-play -pkg game.tkg -bot guided   # simulated learner + report
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/analytics"
	"repro/internal/content"
	"repro/internal/media/studio"
	"repro/internal/runtime"
	"repro/internal/sim"
)

func main() {
	pkgPath := flag.String("pkg", "", "play this .tkg package")
	demo := flag.String("demo", "", "play a bundled demo: classroom, museum or street")
	bot := flag.String("bot", "", "run a simulated learner: guided, explorer or random")
	steps := flag.Int("steps", 120, "bot step budget")
	seed := flag.Int64("seed", 1, "bot seed")
	snapshot := flag.Bool("snapshot", false, "print the runtime interface as ASCII (Figure 2) and exit")
	flag.Parse()

	blob, err := loadPackage(*pkgPath, *demo)
	if err != nil {
		fail(err)
	}
	if *bot != "" {
		runBot(blob, *bot, *steps, *seed)
		return
	}
	p, err := newPlayer(blob)
	if err != nil {
		fail(err)
	}
	if *snapshot {
		fmt.Println(p.g.Snapshot(132, 44))
		return
	}
	p.repl(os.Stdin, os.Stdout)
}

func loadPackage(pkgPath, demo string) ([]byte, error) {
	if pkgPath != "" {
		return os.ReadFile(pkgPath)
	}
	var course *content.Course
	switch demo {
	case "classroom":
		course = content.Classroom()
	case "museum":
		course = content.Museum()
	case "street", "":
		course = content.StreetDemo()
	default:
		return nil, fmt.Errorf("unknown demo %q", demo)
	}
	return course.BuildPackage(studio.Options{QStep: 8})
}

func runBot(blob []byte, name string, steps int, seed int64) {
	var f sim.Factory
	switch name {
	case "guided":
		f = sim.GuidedFactory
	case "explorer":
		f = sim.ExplorerFactory
	case "random":
		f = sim.RandomFactory
	default:
		fail(fmt.Errorf("unknown bot %q", name))
	}
	res, err := sim.Run(blob, f, sim.Config{MaxSteps: steps, Patience: 15, RewardBoost: 10, Seed: seed})
	if err != nil {
		fail(err)
	}
	fmt.Printf("bot %s finished: steps=%d completed=%v reason=%s\n\n",
		name, res.Steps, res.Completed, res.QuitReason)
	fmt.Println(res.Report)
}

// player is one REPL game: a session on a package, the window that renders
// it, the collector its events feed, and the state-changing commands it has
// applied — what save writes, and what load plays again on a fresh session.
type player struct {
	blob    []byte
	s       *runtime.Session
	g       *runtime.GameWindow
	col     *analytics.Collector
	log     []string
	printed int // transcript lines already echoed
}

func newPlayer(blob []byte) (*player, error) {
	col := &analytics.Collector{}
	s, err := runtime.NewSession(blob, runtime.Options{Observer: col})
	if err != nil {
		return nil, err
	}
	return &player{blob: blob, s: s, g: runtime.NewGameWindow(s), col: col}, nil
}

// repl reads commands from in until quit, end of input or game over, and
// writes everything it shows to out.
func (p *player) repl(in io.Reader, out io.Writer) {
	fmt.Fprint(out, "IVGBL player — commands: look, click X Y, examine ID, take ID,\n",
		"talk ID, use ITEM ID, answer N, inv, tick [N], snap, report,\n",
		"save F, load F, quit\n\n", p.g.Describe(), "\n")
	p.after(out)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "\n[%s]> ", p.s.State().Scenario)
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "look":
			fmt.Fprintln(out, p.g.Describe())
		case "inv":
			fmt.Fprintln(out, "inventory:", strings.Join(p.s.State().Inventory, ", "))
		case "snap":
			p.g.Refresh()
			fmt.Fprintln(out, p.g.Snapshot(132, 44))
		case "report":
			fmt.Fprintln(out, p.col.Digest(p.s.Project().StartScenario))
		case "save":
			if len(fields) == 2 {
				if err := os.WriteFile(fields[1], []byte(strings.Join(append(p.log, ""), "\n")), 0o644); err != nil {
					fmt.Fprintln(out, "save:", err)
				}
			}
		case "load":
			if len(fields) == 2 {
				if err := p.load(fields[1]); err != nil {
					fmt.Fprintln(out, "load:", err)
				}
			}
		default:
			if !p.act(fields, out) {
				fmt.Fprintln(out, "unknown command", fields[0])
				continue
			}
			if p.after(out) {
				return
			}
		}
	}
}

// act runs one state-changing command and logs it; it reports false for a
// command that is not one.
func (p *player) act(fields []string, out io.Writer) bool {
	s := p.s
	switch fields[0] {
	case "click":
		if len(fields) == 3 {
			x, _ := strconv.Atoi(fields[1])
			y, _ := strconv.Atoi(fields[2])
			s.Click(x, y)
		} else {
			fmt.Fprintln(out, "usage: click X Y")
		}
	case "examine":
		if len(fields) == 2 {
			s.Examine(fields[1])
		}
	case "take":
		if len(fields) == 2 {
			s.Take(fields[1])
		}
	case "talk":
		if len(fields) == 2 {
			s.Talk(fields[1])
		}
	case "use":
		if len(fields) >= 3 {
			item := strings.Join(fields[1:len(fields)-1], " ")
			s.UseItemOn(item, fields[len(fields)-1])
		} else {
			fmt.Fprintln(out, "usage: use ITEM OBJECT")
		}
	case "answer":
		if quiz, ok := s.PendingQuiz(); ok && len(fields) == 2 {
			n, _ := strconv.Atoi(fields[1])
			if _, err := s.AnswerQuiz(quiz.ID, n-1); err != nil {
				fmt.Fprintln(out, "answer:", err)
			}
		} else {
			fmt.Fprintln(out, "no quiz pending (or usage: answer N)")
		}
	case "tick":
		n := 1
		if len(fields) == 2 {
			n, _ = strconv.Atoi(fields[1])
		}
		if err := s.Advance(n); err != nil {
			fmt.Fprintln(out, "tick:", err)
		}
	default:
		return false
	}
	p.log = append(p.log, strings.Join(fields, " "))
	return true
}

// after shows what the game's start or a command changed: new transcript
// lines, the next popup (which it takes off the queue) and a pending quiz.
// It reports whether the game is over.
func (p *player) after(out io.Writer) bool {
	s := p.s
	msgs := s.Messages()
	for _, m := range msgs[p.printed:] {
		fmt.Fprintln(out, ">>", m)
	}
	p.printed = len(msgs)
	if kind, content, ok := s.NextPopup(); ok {
		fmt.Fprintf(out, "** POPUP (%s): %s **\n", kind, content)
	}
	if quiz, ok := s.PendingQuiz(); ok {
		fmt.Fprintf(out, "** QUIZ: %s\n", quiz.Question)
		for i, c := range quiz.Choices {
			fmt.Fprintf(out, "     %d) %s\n", i+1, c)
		}
		fmt.Fprintln(out, "   (reply with: answer N)")
	}
	// Let pending assessment quizzes be answered before wrapping up.
	if _, ok := s.PendingQuiz(); s.Ended() && !ok {
		fmt.Fprintf(out, "GAME OVER: %s\n", s.Outcome())
		fmt.Fprintln(out, p.col.Digest(s.Project().StartScenario))
		return true
	}
	return false
}

// load replaces the game with a fresh session on the same package that has
// run a saved command log again, unshown, as the REPL runs one: what
// follows the start and each command happens again too (so popups leave
// the queue as they did).
func (p *player) load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	q, err := newPlayer(p.blob)
	if err != nil {
		return err
	}
	q.after(io.Discard)
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			if !q.act(fields, io.Discard) {
				return fmt.Errorf("%s: %q is not a saved command", path, line)
			}
			q.after(io.Discard)
		}
	}
	*p = *q
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "vgbl-play:", err)
	os.Exit(1)
}
