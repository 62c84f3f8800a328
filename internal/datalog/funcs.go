package datalog

import (
	"errors"
	"fmt"

	"algrec/internal/value"
)

// ErrUnbound is returned when a term is evaluated under a binding that does
// not cover one of its variables.
var ErrUnbound = errors.New("datalog: unbound variable in term evaluation")

// Binding maps variables to ground values during rule instantiation.
type Binding map[Var]value.Value

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Builtin is the implementation of an interpreted function symbol.
type Builtin func(args []value.Value) (value.Value, error)

// builtins is the registry of interpreted function symbols. The paper's
// framework allows arbitrary operations from the imported data-type
// specifications (e.g. SUCC and + on nat); this registry is their concrete
// counterpart. All functions are total on the value kinds they accept and
// return an error otherwise.
var builtins = map[string]Builtin{
	"succ":  arith1("succ", func(a int64) int64 { return a + 1 }),
	"pred":  arith1("pred", func(a int64) int64 { return a - 1 }),
	"plus":  arith2("plus", func(a, b int64) int64 { return a + b }),
	"minus": arith2("minus", func(a, b int64) int64 { return a - b }),
	"times": arith2("times", func(a, b int64) int64 { return a * b }),
	"mod": func(args []value.Value) (value.Value, error) {
		a, b, err := twoInts("mod", args)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			return nil, errors.New("datalog: mod by zero")
		}
		return value.Int(a % b), nil
	},
	"tup": func(args []value.Value) (value.Value, error) {
		return value.NewTuple(args...), nil
	},
	"fst": fieldFn("fst", 1),
	"snd": fieldFn("snd", 2),
	"field": func(args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("datalog: field expects 2 arguments, got %d", len(args))
		}
		t, ok := args[0].(value.Tuple)
		if !ok {
			return nil, fmt.Errorf("datalog: field applied to non-tuple %v", args[0])
		}
		i, ok := args[1].(value.Int)
		if !ok {
			return nil, fmt.Errorf("datalog: field index must be an int, got %v", args[1])
		}
		if i < 1 || int(i) > t.Len() {
			return nil, fmt.Errorf("datalog: field index %d out of range for %v", i, t)
		}
		return t.At(int(i) - 1), nil
	},
	"set": func(args []value.Value) (value.Value, error) {
		return value.NewSet(args...), nil
	},
	// Boolean-valued functions: used by the algebra-to-deduction translation
	// (Propositions 5.1/5.4), which compiles a selection test into a single
	// term and the guard literal `term = true`. Named band/bor/bnot because
	// `not` is the negation keyword in rule bodies.
	"band": boolOp2("band", func(a, b bool) bool { return a && b }),
	"bor":  boolOp2("bor", func(a, b bool) bool { return a || b }),
	"bnot": func(args []value.Value) (value.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("datalog: bnot expects 1 argument, got %d", len(args))
		}
		b, ok := args[0].(value.Bool)
		if !ok {
			return nil, fmt.Errorf("datalog: bnot applied to non-bool %v", args[0])
		}
		return value.Bool(!b), nil
	},
	"eq": cmpFn("eq", func(c int) bool { return c == 0 }),
	"ne": cmpFn("ne", func(c int) bool { return c != 0 }),
	"lt": cmpFn("lt", func(c int) bool { return c < 0 }),
	"le": cmpFn("le", func(c int) bool { return c <= 0 }),
	"gt": cmpFn("gt", func(c int) bool { return c > 0 }),
	"ge": cmpFn("ge", func(c int) bool { return c >= 0 }),
	"ismem": func(args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("datalog: ismem expects 2 arguments, got %d", len(args))
		}
		s, ok := args[1].(value.Set)
		if !ok {
			return nil, fmt.Errorf("datalog: ismem applied to non-set %v", args[1])
		}
		return value.Bool(s.Has(args[0])), nil
	},
	"ins": func(args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("datalog: ins expects 2 arguments, got %d", len(args))
		}
		s, ok := args[1].(value.Set)
		if !ok {
			return nil, fmt.Errorf("datalog: ins applied to non-set %v", args[1])
		}
		return s.Insert(args[0]), nil
	},
}

func arith1(name string, f func(int64) int64) Builtin {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("datalog: %s expects 1 argument, got %d", name, len(args))
		}
		a, ok := args[0].(value.Int)
		if !ok {
			return nil, fmt.Errorf("datalog: %s applied to non-int %v", name, args[0])
		}
		return value.Int(f(int64(a))), nil
	}
}

func arith2(name string, f func(a, b int64) int64) Builtin {
	return func(args []value.Value) (value.Value, error) {
		a, b, err := twoInts(name, args)
		if err != nil {
			return nil, err
		}
		return value.Int(f(a, b)), nil
	}
}

func twoInts(name string, args []value.Value) (int64, int64, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("datalog: %s expects 2 arguments, got %d", name, len(args))
	}
	a, ok := args[0].(value.Int)
	if !ok {
		return 0, 0, fmt.Errorf("datalog: %s applied to non-int %v", name, args[0])
	}
	b, ok := args[1].(value.Int)
	if !ok {
		return 0, 0, fmt.Errorf("datalog: %s applied to non-int %v", name, args[1])
	}
	return int64(a), int64(b), nil
}

func boolOp2(name string, f func(a, b bool) bool) Builtin {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("datalog: %s expects 2 arguments, got %d", name, len(args))
		}
		a, ok := args[0].(value.Bool)
		if !ok {
			return nil, fmt.Errorf("datalog: %s applied to non-bool %v", name, args[0])
		}
		b, ok := args[1].(value.Bool)
		if !ok {
			return nil, fmt.Errorf("datalog: %s applied to non-bool %v", name, args[1])
		}
		return value.Bool(f(bool(a), bool(b))), nil
	}
}

func cmpFn(name string, f func(c int) bool) Builtin {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("datalog: %s expects 2 arguments, got %d", name, len(args))
		}
		return value.Bool(f(args[0].Compare(args[1]))), nil
	}
}

func fieldFn(name string, idx int) Builtin {
	return func(args []value.Value) (value.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("datalog: %s expects 1 argument, got %d", name, len(args))
		}
		t, ok := args[0].(value.Tuple)
		if !ok {
			return nil, fmt.Errorf("datalog: %s applied to non-tuple %v", name, args[0])
		}
		if t.Len() < idx {
			return nil, fmt.Errorf("datalog: %s applied to short tuple %v", name, t)
		}
		return t.At(idx - 1), nil
	}
}

// IsBuiltin reports whether fn is a known interpreted function symbol.
func IsBuiltin(fn string) bool {
	_, ok := builtins[fn]
	return ok
}

// EvalTerm evaluates t under binding b, returning the resulting ground value.
// It returns ErrUnbound (wrapped) if a variable of t is not bound, and an
// error for unknown function symbols or ill-kinded applications.
func EvalTerm(t Term, b Binding) (value.Value, error) {
	return EvalTermFn(t, func(v Var) (value.Value, bool) {
		val, ok := b[v]
		return val, ok
	})
}

// EvalTermFn is EvalTerm with an arbitrary variable lookup; the relational
// kernel (internal/datalog/rel) uses it with its own binding frames.
func EvalTermFn(t Term, lookup func(Var) (value.Value, bool)) (value.Value, error) {
	switch tt := t.(type) {
	case Var:
		v, ok := lookup(tt)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnbound, tt)
		}
		return v, nil
	case Const:
		return tt.V, nil
	case Apply:
		fn, ok := builtins[tt.Fn]
		if !ok {
			return nil, fmt.Errorf("datalog: unknown function symbol %q", tt.Fn)
		}
		args := make([]value.Value, len(tt.Args))
		for i, a := range tt.Args {
			v, err := EvalTermFn(a, lookup)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(args)
	default:
		panic(fmt.Sprintf("datalog: unknown term %T", t))
	}
}

// EvalCmp evaluates a ground comparison between two values.
func EvalCmp(op CmpOp, l, r value.Value) (bool, error) {
	c := l.Compare(r)
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("datalog: unknown comparison operator %v", op)
	}
}

// EvalGroundAtom evaluates every argument term of a under b, producing a Fact.
func EvalGroundAtom(a Atom, b Binding) (Fact, error) {
	args := make([]value.Value, len(a.Args))
	for i, t := range a.Args {
		v, err := EvalTerm(t, b)
		if err != nil {
			return Fact{}, err
		}
		args[i] = v
	}
	return Fact{Pred: a.Pred, Args: args}, nil
}
