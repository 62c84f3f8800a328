package datalog

import (
	"errors"
	"fmt"

	"algrec/internal/builtin"
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

// IsBuiltin reports whether fn is a known interpreted function symbol: an
// entry of internal/builtin's table.
func IsBuiltin(fn string) bool {
	_, ok := builtin.Lookup(fn)
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
		f, err := builtin.Check(tt.Fn, len(tt.Args))
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		switch f.Arity() {
		case 1:
			a, err := EvalTermFn(tt.Args[0], lookup)
			if err != nil {
				return nil, err
			}
			return f.Call1(a)
		case 2:
			a, err := EvalTermFn(tt.Args[0], lookup)
			if err != nil || f.Decides(a) {
				return a, err
			}
			b, err := EvalTermFn(tt.Args[1], lookup)
			if err != nil {
				return nil, err
			}
			return f.Call2(a, b)
		}
		args := make([]value.Value, len(tt.Args))
		for i, a := range tt.Args {
			v, err := EvalTermFn(a, lookup)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return f.CallN(args)
	default:
		panic(fmt.Sprintf("datalog: unknown term %T", t))
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
