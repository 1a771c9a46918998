package script_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/script"
)

// FuzzParseScript throws arbitrary source at the event-language frontend
// (lexer + parser). The contract: every rejection is a positioned
// *script.Error — never a panic, never an untyped error — and accepted
// programs are non-nil. Seeds are the real scripts and conditions of the
// bundled demo courses, so mutation starts from the grammar actually in
// production, plus a few hand-picked pathological shapes.
func FuzzParseScript(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := script.Compile(src)
		if err != nil {
			var se *script.Error
			if !errors.As(err, &se) {
				t.Fatalf("rejection is not a *script.Error: %T %v", err, err)
			}
			return
		}
		if prog == nil {
			t.Fatal("Compile returned nil program with nil error")
		}
		// A program the parser accepted must also survive static analysis
		// against an empty project context without panicking.
		_ = prog.Empty()
	})
}

// seedCorpus is FuzzParseScript's seed list: every script of the demo
// courses, every condition (as an expression statement), and the
// pathological shapes.
func seedCorpus() []string {
	var seeds []string
	for _, course := range []*content.Course{content.Classroom(), content.Museum(), content.StreetDemo()} {
		p := course.Project
		for _, sc := range p.Scenarios {
			if sc.OnEnter != "" {
				seeds = append(seeds, sc.OnEnter)
			}
			for _, o := range sc.Objects {
				for _, ev := range o.Events {
					seeds = append(seeds, ev.Script)
					if ev.Condition != "" {
						seeds = append(seeds, ev.Condition+";")
					}
				}
			}
		}
	}
	// Pathological shapes: truncation, nesting, operator runs, bad escapes.
	return append(seeds,
		"", ";", "say", `say "unterminated`, "if { }", "if x {", "}",
		"if a { if b { if c { say 1; } } } else if d { } else { }",
		"set x = ((((1))));", "set x = 1 + - ! 2;", "say 1 +;",
		"setflag f true; goto; end", `say "\q";`, "popup 1 2 3;",
		"say 99999999999999999999999999;", "x = 1;", "quiz quiz;",
		"say \"a\" + \"b\" * 3 - -2 % 0;", "if 1 < 2 <= 3 != 4 { say 5; }",
		"say 1 && 2 || ! 3;", "say (;", "say );", "say & | ~;",
	)
}

// env is a fixed game state for condition evaluation.
type env struct {
	items, flags map[string]bool
	vars         map[string]int
}

func (e env) HasItem(n string) bool { return e.items[n] }
func (e env) Flag(n string) bool    { return e.flags[n] }
func (e env) Var(n string) int      { return e.vars[n] }

// TestCompiledConditionMatchesEval: a session evaluates a guard's compiled
// form, shared with every other session on its package, where it used to
// lex and parse the source on every try. One Condition, compiled once and
// evaluated against one state after another, must say what a fresh
// EvalCondition of its source says against each — the same value, the same
// error text, compile errors included — over the demo courses' conditions,
// the script tests' expressions and the fuzz seed corpus (whose scripts are
// mostly not expressions at all: those must fail alike). And evaluating the
// guard the classroom's shop puts on its RAM costs no allocation.
func TestCompiledConditionMatchesEval(t *testing.T) {
	exprs := []string{
		`has("key") && score >= 5`, `score +`, `1 + 1`, `true true`, `has("coin")`,
		`1 + 1 == 2 && 2 * 2 == 4`, `!flag("met-teacher") || score / 0 > 1`, `score % 0 == 0`,
		`"a" == 1`, `-score < 3`, `has(score)`, `flag("a") && 1`, `(has("coin") || flag("paid")) && !flag("done")`,
		`"coin" + score == "coin5"`, `score`, `has("coin"`, `nosuch("x")`,
	}
	for _, s := range seedCorpus() {
		exprs = append(exprs, s, strings.TrimSuffix(s, ";"))
	}
	envs := []env{
		{},
		{items: map[string]bool{"coin": true, "key": true}, vars: map[string]int{"score": 5}},
		{flags: map[string]bool{"met-teacher": true, "paid": true, "a": true}, vars: map[string]int{"score": -2}},
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	compiled, evaluated := 0, 0
	for _, src := range exprs {
		cond, cerr := script.CompileCondition(src)
		if cerr == nil {
			compiled++
		}
		for i, e := range envs {
			want, werr := script.EvalCondition(src, e)
			got, gerr := false, cerr
			if cerr == nil {
				got, gerr = cond.Eval(e)
			}
			if got != want || text(gerr) != text(werr) {
				t.Errorf("%q in state %d: compiled = %v, %q; EvalCondition = %v, %q", src, i, got, text(gerr), want, text(werr))
			}
			if gerr == nil {
				evaluated++
			}
		}
	}
	if compiled < 10 || evaluated < 20 {
		t.Fatalf("only %d expressions compiled and %d evaluations succeeded: the corpus is not exercising conditions", compiled, evaluated)
	}

	cond, err := script.CompileCondition(`has("coin")`)
	if err != nil {
		t.Fatal(err)
	}
	var e script.Env = envs[1]
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := cond.Eval(e); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}); n != 0 {
		t.Errorf(`evaluating compiled has("coin") allocates %.0f objects, want 0`, n)
	}
}
