// Package algebra implements the paper's algebra and IFP-algebra (Section
// 3.1): generic set operators ∪, −, ×, σ_test, MAP_f and the inflationary
// fixed point IFP_exp, over the complex-object value universe of
// internal/value.
//
// Two expression languages live here. FExpr is the first-order language of
// element-level functions and tests that parameterizes σ and MAP — the
// concrete counterpart of the paper's "a special specification must be
// provided for every specific function". Expr is the language of set-valued
// algebra expressions.
//
// The package evaluates non-recursive expressions (plus IFP) against a
// database of named finite sets. Recursive *definitions* — the algebra= of
// Section 3.2, the paper's contribution — live in internal/core, which gives
// them their valid-model semantics; algebra only supplies the operator
// evaluation core and the syntactic analyses (free relation names, positive
// occurrence) the rest of the system needs.
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"algrec/internal/value"
)

// CmpOp is a comparison operator in tests.
type CmpOp uint8

// The comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the concrete syntax of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// ArithOp is an arithmetic operator on integers.
type ArithOp uint8

// The arithmetic operators.
const (
	OpPlus ArithOp = iota
	OpMinus
	OpTimes
	OpMod
)

// String returns the concrete syntax of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpPlus:
		return "+"
	case OpMinus:
		return "-"
	case OpTimes:
		return "*"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("ArithOp(%d)", uint8(op))
	}
}

// FExpr is an element-level expression: the body of a selection test or a
// MAP restructuring function. It is evaluated against an environment binding
// element variables to values. FExpr is a sealed interface.
type FExpr interface {
	String() string
	isFExpr()
}

// FVar references a bound element variable (the σ/MAP element, or a tuple
// component brought into scope by the evaluator).
type FVar struct{ Name string }

// FConst is a constant value.
type FConst struct{ V value.Value }

// FField projects the Idx-th component (1-based) of a tuple-valued
// subexpression; the paper writes this x.i.
type FField struct {
	Of  FExpr
	Idx int
}

// FTuple builds a tuple from component expressions.
type FTuple struct{ Elems []FExpr }

// FCmp compares two subexpressions under the total order on values.
type FCmp struct {
	Op   CmpOp
	L, R FExpr
}

// FArith applies integer arithmetic.
type FArith struct {
	Op   ArithOp
	L, R FExpr
}

// FAnd is boolean conjunction.
type FAnd struct{ L, R FExpr }

// FOr is boolean disjunction.
type FOr struct{ L, R FExpr }

// FNot is boolean negation. Note this negates a *test over elements*; it is
// unrelated to the negation-as-subtraction the paper's semantics is about.
type FNot struct{ E FExpr }

// FMem tests membership of an element in a set value (the paper's MEM as a
// boolean-valued function on finite set values).
type FMem struct{ Elem, Set FExpr }

func (FVar) isFExpr()   {}
func (FConst) isFExpr() {}
func (FField) isFExpr() {}
func (FTuple) isFExpr() {}
func (FCmp) isFExpr()   {}
func (FArith) isFExpr() {}
func (FAnd) isFExpr()   {}
func (FOr) isFExpr()    {}
func (FNot) isFExpr()   {}
func (FMem) isFExpr()   {}

// String implements FExpr.
func (e FVar) String() string { return e.Name }

// String implements FExpr.
func (e FConst) String() string { return e.V.String() }

// String implements FExpr.
func (e FField) String() string { return maybeParen(e.Of) + "." + strconv.Itoa(e.Idx) }

// String implements FExpr. A 1-tuple prints with a trailing comma, "(e,)",
// to stay distinguishable from parenthesized grouping when re-parsed.
func (e FTuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	if len(parts) == 1 {
		return "(" + parts[0] + ",)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// String implements FExpr.
func (e FCmp) String() string {
	return maybeParen(e.L) + " " + e.Op.String() + " " + maybeParen(e.R)
}

// String implements FExpr.
func (e FArith) String() string {
	return maybeParen(e.L) + " " + e.Op.String() + " " + maybeParen(e.R)
}

// String implements FExpr.
func (e FAnd) String() string { return maybeParen(e.L) + " and " + maybeParen(e.R) }

// String implements FExpr.
func (e FOr) String() string { return maybeParen(e.L) + " or " + maybeParen(e.R) }

// String implements FExpr.
func (e FNot) String() string { return "not " + maybeParen(e.E) }

// String implements FExpr.
func (e FMem) String() string { return maybeParen(e.Elem) + " in " + maybeParen(e.Set) }

func maybeParen(e FExpr) string {
	switch e.(type) {
	case FVar, FConst, FField, FTuple:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// FEnv binds element variables during FExpr evaluation.
type FEnv map[string]value.Value

// EvalF evaluates an element-level expression. Kind errors (projecting a
// non-tuple, arithmetic on non-integers, boolean operators on non-booleans)
// are reported as errors, never panics: the languages here are dynamically
// kinded, mirroring the paper's untyped presentation.
func EvalF(e FExpr, env FEnv) (value.Value, error) {
	switch ee := e.(type) {
	case FVar:
		v, ok := env[ee.Name]
		if !ok {
			return nil, fmt.Errorf("algebra: unbound element variable %q", ee.Name)
		}
		return v, nil
	case FConst:
		return ee.V, nil
	case FField:
		v, err := EvalF(ee.Of, env)
		if err != nil {
			return nil, err
		}
		t, ok := v.(value.Tuple)
		if !ok {
			return nil, fmt.Errorf("algebra: projection .%d applied to non-tuple %v", ee.Idx, v)
		}
		if ee.Idx < 1 || ee.Idx > t.Len() {
			return nil, fmt.Errorf("algebra: projection .%d out of range for %v", ee.Idx, t)
		}
		return t.At(ee.Idx - 1), nil
	case FTuple:
		elems := make([]value.Value, len(ee.Elems))
		for i, el := range ee.Elems {
			v, err := EvalF(el, env)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return value.NewTuple(elems...), nil
	case FCmp:
		l, err := EvalF(ee.L, env)
		if err != nil {
			return nil, err
		}
		r, err := EvalF(ee.R, env)
		if err != nil {
			return nil, err
		}
		c := l.Compare(r)
		var out bool
		switch ee.Op {
		case OpEq:
			out = c == 0
		case OpNe:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		default:
			return nil, fmt.Errorf("algebra: unknown comparison %v", ee.Op)
		}
		return value.Bool(out), nil
	case FArith:
		l, err := evalInt(ee.L, env)
		if err != nil {
			return nil, err
		}
		r, err := evalInt(ee.R, env)
		if err != nil {
			return nil, err
		}
		switch ee.Op {
		case OpPlus:
			return value.Int(l + r), nil
		case OpMinus:
			return value.Int(l - r), nil
		case OpTimes:
			return value.Int(l * r), nil
		case OpMod:
			if r == 0 {
				return nil, fmt.Errorf("algebra: mod by zero")
			}
			return value.Int(l % r), nil
		default:
			return nil, fmt.Errorf("algebra: unknown arithmetic operator %v", ee.Op)
		}
	case FAnd:
		l, err := evalBool(ee.L, env)
		if err != nil {
			return nil, err
		}
		if !l {
			return value.False, nil
		}
		r, err := evalBool(ee.R, env)
		if err != nil {
			return nil, err
		}
		return value.Bool(r), nil
	case FOr:
		l, err := evalBool(ee.L, env)
		if err != nil {
			return nil, err
		}
		if l {
			return value.True, nil
		}
		r, err := evalBool(ee.R, env)
		if err != nil {
			return nil, err
		}
		return value.Bool(r), nil
	case FNot:
		b, err := evalBool(ee.E, env)
		if err != nil {
			return nil, err
		}
		return value.Bool(!b), nil
	case FMem:
		el, err := EvalF(ee.Elem, env)
		if err != nil {
			return nil, err
		}
		sv, err := EvalF(ee.Set, env)
		if err != nil {
			return nil, err
		}
		s, ok := sv.(value.Set)
		if !ok {
			return nil, fmt.Errorf("algebra: membership test against non-set %v", sv)
		}
		return value.Bool(s.Has(el)), nil
	default:
		panic(fmt.Sprintf("algebra: unknown FExpr %T", e))
	}
}

func evalInt(e FExpr, env FEnv) (int64, error) {
	v, err := EvalF(e, env)
	if err != nil {
		return 0, err
	}
	i, ok := v.(value.Int)
	if !ok {
		return 0, fmt.Errorf("algebra: expected an integer, got %v", v)
	}
	return int64(i), nil
}

func evalBool(e FExpr, env FEnv) (bool, error) {
	v, err := EvalF(e, env)
	if err != nil {
		return false, err
	}
	b, ok := v.(value.Bool)
	if !ok {
		return false, fmt.Errorf("algebra: expected a boolean, got %v", v)
	}
	return bool(b), nil
}

// EvalTest evaluates a selection test to a boolean.
func EvalTest(e FExpr, env FEnv) (bool, error) { return evalBool(e, env) }
