package script

// Env is the read side of game state visible to scripts.
type Env interface {
	// HasItem reports whether the player's inventory holds the item.
	HasItem(name string) bool
	// Flag returns a named boolean flag (unset flags are false).
	Flag(name string) bool
	// Var returns a named integer variable (unset variables are 0).
	Var(name string) int
}

// Effects is the write side: every verb a script can perform. The game
// runtime implements it; tests use recording fakes.
type Effects interface {
	// Say shows a message to the player (status bar / dialogue line).
	Say(msg string)
	// Give adds an item to the inventory.
	Give(item string)
	// Take removes an item; reports whether it was present.
	Take(item string) bool
	// SetFlag sets a boolean flag.
	SetFlag(name string, v bool)
	// SetVar sets an integer variable.
	SetVar(name string, v int)
	// Goto switches playback to another scenario.
	Goto(scenario string)
	// Popup opens a popup resource; kind is "text", "image" or "web".
	Popup(kind, content string)
	// Reward grants an achievement object (paper §3.3).
	Reward(name string)
	// Learn records that a knowledge unit was delivered (paper §3.2).
	Learn(unit string)
	// Enable makes a scene object visible/interactive.
	Enable(objectID string)
	// Disable hides a scene object.
	Disable(objectID string)
	// End finishes the game with an outcome label.
	End(outcome string)
	// Open opens an external (web) resource.
	Open(url string)
	// Quiz asks the player an assessment question from the project's quiz
	// catalog (the extension module; see core.Quiz).
	Quiz(id string)
}

// Run executes the program against the given state. Execution is
// deterministic and terminates (the language has no loops); errors are
// runtime type errors with positions.
func (p *Program) Run(env Env, fx Effects) error {
	if p == nil {
		return nil
	}
	return runBlock(p.stmts, env, fx)
}

func runBlock(stmts []stmt, env Env, fx Effects) error {
	for _, s := range stmts {
		if err := runStmt(s, env, fx); err != nil {
			return err
		}
	}
	return nil
}

func runStmt(s stmt, env Env, fx Effects) error {
	switch s := s.(type) {
	case *ifStmt:
		cond, err := eval(s.cond, env)
		if err != nil {
			return err
		}
		if cond.Kind != BoolVal {
			line, col := s.cond.pos()
			return errAt(line, col, "if condition is %v, want bool", cond.Kind)
		}
		if cond.Bool {
			return runBlock(s.then, env, fx)
		}
		return runBlock(s.els, env, fx)
	case *setStmt:
		v, err := eval(s.value, env)
		if err != nil {
			return err
		}
		if v.Kind != IntVal {
			return errAt(s.line, s.col, "set %s: value is %v, want int", s.name, v.Kind)
		}
		fx.SetVar(s.name, v.Int)
		return nil
	case *setFlagStmt:
		v, err := eval(s.value, env)
		if err != nil {
			return err
		}
		if v.Kind != BoolVal {
			return errAt(s.line, s.col, "setflag %s: value is %v, want bool", s.name, v.Kind)
		}
		fx.SetFlag(s.name, v.Bool)
		return nil
	case *popupStmt:
		kind, err := evalString(s.kind, env)
		if err != nil {
			return err
		}
		content, err := evalString(s.content, env)
		if err != nil {
			return err
		}
		fx.Popup(kind, content)
		return nil
	case *actionStmt:
		arg, err := eval(s.arg, env)
		if err != nil {
			return err
		}
		// All action verbs take a string; `say` accepts anything and
		// stringifies it.
		if s.verb != "say" && arg.Kind != StringVal {
			return errAt(s.line, s.col, "%s: argument is %v, want string", s.verb, arg.Kind)
		}
		switch s.verb {
		case "say":
			fx.Say(arg.String())
		case "give":
			fx.Give(arg.Str)
		case "take":
			fx.Take(arg.Str)
		case "goto":
			fx.Goto(arg.Str)
		case "reward":
			fx.Reward(arg.Str)
		case "learn":
			fx.Learn(arg.Str)
		case "enable":
			fx.Enable(arg.Str)
		case "disable":
			fx.Disable(arg.Str)
		case "end":
			fx.End(arg.Str)
		case "open":
			fx.Open(arg.Str)
		case "quiz":
			fx.Quiz(arg.Str)
		default:
			return errAt(s.line, s.col, "unknown verb %q", s.verb)
		}
		return nil
	default:
		return errAt(0, 0, "unknown statement node %T", s)
	}
}

func evalString(e expr, env Env) (string, error) {
	v, err := eval(e, env)
	if err != nil {
		return "", err
	}
	if v.Kind != StringVal {
		line, col := e.pos()
		return "", errAt(line, col, "expected string, got %v", v.Kind)
	}
	return v.Str, nil
}

func eval(e expr, env Env) (Value, error) {
	switch e := e.(type) {
	case *intLit:
		return IntV(e.v), nil
	case *strLit:
		return StrV(e.v), nil
	case *boolLit:
		return BoolV(e.v), nil
	case *varRef:
		return IntV(env.Var(e.name)), nil
	case *callExpr:
		arg, err := evalString(e.arg, env)
		if err != nil {
			return Value{}, err
		}
		switch e.fn {
		case "has":
			return BoolV(env.HasItem(arg)), nil
		case "flag":
			return BoolV(env.Flag(arg)), nil
		}
		return Value{}, errAt(e.line, e.col, "unknown function %q", e.fn)
	case *unaryExpr:
		v, err := eval(e.operand, env)
		if err != nil {
			return Value{}, err
		}
		switch e.op {
		case tokNot:
			if v.Kind != BoolVal {
				return Value{}, errAt(e.line, e.col, "'!' needs bool, got %v", v.Kind)
			}
			return BoolV(!v.Bool), nil
		case tokMinus:
			if v.Kind != IntVal {
				return Value{}, errAt(e.line, e.col, "unary '-' needs int, got %v", v.Kind)
			}
			return IntV(-v.Int), nil
		}
		return Value{}, errAt(e.line, e.col, "bad unary operator")
	case *binaryExpr:
		return evalBinary(e, env)
	default:
		return Value{}, errAt(0, 0, "unknown expression node %T", e)
	}
}

func evalBinary(e *binaryExpr, env Env) (Value, error) {
	// Short-circuit logic first.
	if e.op == tokAnd || e.op == tokOr {
		l, err := eval(e.left, env)
		if err != nil {
			return Value{}, err
		}
		if l.Kind != BoolVal {
			return Value{}, errAt(e.line, e.col, "logical operand is %v, want bool", l.Kind)
		}
		if e.op == tokAnd && !l.Bool {
			return BoolV(false), nil
		}
		if e.op == tokOr && l.Bool {
			return BoolV(true), nil
		}
		r, err := eval(e.right, env)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != BoolVal {
			return Value{}, errAt(e.line, e.col, "logical operand is %v, want bool", r.Kind)
		}
		return BoolV(r.Bool), nil
	}
	l, err := eval(e.left, env)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(e.right, env)
	if err != nil {
		return Value{}, err
	}
	switch e.op {
	case tokPlus:
		// Int addition or string concatenation ("score: " + score).
		if l.Kind == StringVal || r.Kind == StringVal {
			return StrV(l.String() + r.String()), nil
		}
		if l.Kind == IntVal && r.Kind == IntVal {
			return IntV(l.Int + r.Int), nil
		}
		return Value{}, errAt(e.line, e.col, "'+' cannot combine %v and %v", l.Kind, r.Kind)
	case tokMinus, tokStar, tokSlash, tokPercent:
		if l.Kind != IntVal || r.Kind != IntVal {
			return Value{}, errAt(e.line, e.col, "arithmetic needs ints, got %v and %v", l.Kind, r.Kind)
		}
		switch e.op {
		case tokMinus:
			return IntV(l.Int - r.Int), nil
		case tokStar:
			return IntV(l.Int * r.Int), nil
		case tokSlash:
			if r.Int == 0 {
				return Value{}, errAt(e.line, e.col, "division by zero")
			}
			return IntV(l.Int / r.Int), nil
		default:
			if r.Int == 0 {
				return Value{}, errAt(e.line, e.col, "modulo by zero")
			}
			return IntV(l.Int % r.Int), nil
		}
	case tokEq, tokNeq:
		if l.Kind != r.Kind {
			return Value{}, errAt(e.line, e.col, "cannot compare %v with %v", l.Kind, r.Kind)
		}
		eq := l == r
		if e.op == tokNeq {
			eq = !eq
		}
		return BoolV(eq), nil
	case tokLt, tokLe, tokGt, tokGe:
		if l.Kind != IntVal || r.Kind != IntVal {
			return Value{}, errAt(e.line, e.col, "ordering needs ints, got %v and %v", l.Kind, r.Kind)
		}
		var b bool
		switch e.op {
		case tokLt:
			b = l.Int < r.Int
		case tokLe:
			b = l.Int <= r.Int
		case tokGt:
			b = l.Int > r.Int
		default:
			b = l.Int >= r.Int
		}
		return BoolV(b), nil
	}
	return Value{}, errAt(e.line, e.col, "unknown operator")
}

// Condition is a compiled guard expression: an event's condition lexed and
// parsed once, evaluated as often as the event is tried. It is immutable,
// so every session on a package shares the same one.
type Condition struct{ e expr }

// CompileCondition lexes and parses src as a single expression. Errors
// carry line:col positions.
func CompileCondition(src string) (*Condition, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		t := p.cur()
		return nil, errAt(t.line, t.col, "unexpected %v after expression", t.kind)
	}
	return &Condition{e: e}, nil
}

// Eval evaluates the condition against env; anything but a bool is an
// error.
func (c *Condition) Eval(env Env) (bool, error) {
	v, err := eval(c.e, env)
	if err != nil {
		return false, err
	}
	if v.Kind != BoolVal {
		return false, errAt(1, 1, "condition evaluates to %v, want bool", v.Kind)
	}
	return v.Bool, nil
}

// EvalCondition compiles and evaluates src as a single boolean expression —
// used by the authoring tool's validator to check event conditions. The
// runtime compiles each condition once (CompileCondition) instead.
func EvalCondition(src string, env Env) (bool, error) {
	c, err := CompileCondition(src)
	if err != nil {
		return false, err
	}
	return c.Eval(env)
}
