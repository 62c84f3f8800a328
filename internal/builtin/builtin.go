// Package builtin is the one table of interpreted functions: the operations
// on values that the paper imports from data-type specifications (§2: SUCC,
// + and the comparisons) and that both languages share. Each is defined here
// once, by its datalog name, with its argument count. Datalog applies them as
// function symbols (plus(X, 1)); an algebra λ-body writes the comparisons and
// arithmetic as operators (x + 1, x < y), the connectives as and/or/not and
// membership as in, and evaluates them with the same code. internal/translate
// maps one form onto the other through the names here, so a translation
// preserves what an operation computes, errors included.
package builtin

import (
	"errors"
	"fmt"

	"algrec/internal/value"
)

// Cmp is a comparison operator: it relates two values under the total order
// on values, so it applies to any two kinds.
type Cmp uint8

// The comparison operators, in a fixed order: generators draw them by number.
const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var (
	cmpSyms  = [...]string{"=", "!=", "<", "<=", ">", ">="}
	cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}
)

// String returns the operator's concrete syntax, the same in both languages.
func (op Cmp) String() string {
	if int(op) < len(cmpSyms) {
		return cmpSyms[op]
	}
	return fmt.Sprintf("Cmp(%d)", uint8(op))
}

// Name returns the operator's datalog function symbol.
func (op Cmp) Name() string { return cmpNames[op] }

// Holds reports whether the operator relates two values whose Compare is c.
func (op Cmp) Holds(c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	panic(fmt.Sprintf("builtin: unknown comparison %d", uint8(op)))
}

// CmpOf returns the comparison whose symbol or datalog name is s.
func CmpOf(s string) (Cmp, bool) { return lookupOp[Cmp](s, cmpSyms[:], cmpNames[:]) }

// Arith is an arithmetic operator on integers. It wraps around on overflow.
type Arith uint8

// The arithmetic operators.
const (
	Plus Arith = iota
	Minus
	Times
	Mod
)

var (
	arithSyms  = [...]string{"+", "-", "*", "mod"}
	arithNames = [...]string{"plus", "minus", "times", "mod"}
)

// String returns the operator's symbol, as an algebra λ-body prints it.
func (op Arith) String() string {
	if int(op) < len(arithSyms) {
		return arithSyms[op]
	}
	return fmt.Sprintf("Arith(%d)", uint8(op))
}

// Name returns the operator's datalog function symbol.
func (op Arith) Name() string { return arithNames[op] }

// ArithOf returns the arithmetic operator whose symbol or datalog name is s.
func ArithOf(s string) (Arith, bool) { return lookupOp[Arith](s, arithSyms[:], arithNames[:]) }

func lookupOp[Op ~uint8](s string, syms, names []string) (Op, bool) {
	for i := range syms {
		if s == syms[i] || s == names[i] {
			return Op(i), true
		}
	}
	return 0, false
}

// ErrModByZero is the one error of integer arithmetic.
var ErrModByZero = errors.New("mod by zero")

// Apply computes a op b.
func (op Arith) Apply(a, b int64) (int64, error) {
	switch op {
	case Plus:
		return a + b, nil
	case Minus:
		return a - b, nil
	case Times:
		return a * b, nil
	case Mod:
		if b == 0 {
			return 0, ErrModByZero
		}
		return a % b, nil
	}
	panic(fmt.Sprintf("builtin: unknown arithmetic operator %d", uint8(op)))
}

// Eval applies the operator to two values, which must be integers.
func (op Arith) Eval(a, b value.Value) (value.Value, error) {
	x, err := intArg(op.Name(), a)
	if err != nil {
		return nil, err
	}
	y, err := intArg(op.Name(), b)
	if err != nil {
		return nil, err
	}
	n, err := op.Apply(x, y)
	if err != nil {
		return nil, err
	}
	return value.Int(n), nil
}

// Func is one interpreted function of the table: its name, the number of
// arguments it takes and what it computes from them. A function of one or
// two arguments is called without an argument slice (Call1, Call2), one of
// any number with one (CallN).
type Func struct {
	name  string
	arity int         // -1: any number
	stop  value.Value // see Decides
	f1    func(a value.Value) (value.Value, error)
	f2    func(a, b value.Value) (value.Value, error)
	fn    func(args []value.Value) (value.Value, error)
}

// Name returns the function's name, its datalog function symbol.
func (f *Func) Name() string { return f.name }

// Arity returns the number of arguments the function takes, -1 for any.
func (f *Func) Arity() int { return f.arity }

// Decides reports whether a, the first argument of a connective, decides
// its result alone — false for band, true for bor — which is then a: an
// evaluator does not evaluate the second argument, in either language.
func (f *Func) Decides(a value.Value) bool { return f.stop != nil && a == f.stop }

// Call1 applies a function of one argument.
func (f *Func) Call1(a value.Value) (value.Value, error) { return f.f1(a) }

// Call2 applies a function of two arguments.
func (f *Func) Call2(a, b value.Value) (value.Value, error) { return f.f2(a, b) }

// CallN applies a function of any number of arguments (arity -1).
func (f *Func) CallN(args []value.Value) (value.Value, error) { return f.fn(args) }

// The functions an algebra λ-body names by an operator of its own.
var (
	Band  = bool2("band", value.False, func(a, b bool) bool { return a && b })
	Bor   = bool2("bor", value.True, func(a, b bool) bool { return a || b })
	Bnot  = &Func{name: "bnot", arity: 1, f1: bnot}
	Ismem = &Func{name: "ismem", arity: 2, f2: ismem}
)

// table holds every function by name. The connectives are named band, bor
// and bnot because `not` negates a body atom in datalog.
var table = map[string]*Func{}

func init() {
	fns := []*Func{
		Band, Bor, Bnot, Ismem,
		{name: "succ", arity: 1, f1: func(a value.Value) (value.Value, error) { return Plus.Eval(a, value.Int(1)) }},
		{name: "pred", arity: 1, f1: func(a value.Value) (value.Value, error) { return Minus.Eval(a, value.Int(1)) }},
		field("fst", 1), field("snd", 2),
		{name: "field", arity: 2, f2: fieldAt},
		{name: "tup", arity: -1, fn: func(args []value.Value) (value.Value, error) { return value.NewTuple(args...), nil }},
		{name: "set", arity: -1, fn: func(args []value.Value) (value.Value, error) { return value.NewSet(args...), nil }},
		{name: "ins", arity: 2, f2: ins},
	}
	for op := range cmpNames {
		fns = append(fns, &Func{name: Cmp(op).Name(), arity: 2, f2: func(a, b value.Value) (value.Value, error) {
			return value.Bool(Cmp(op).Holds(a.Compare(b))), nil
		}})
	}
	for op := range arithNames {
		fns = append(fns, &Func{name: Arith(op).Name(), arity: 2, f2: Arith(op).Eval})
	}
	for _, f := range fns {
		table[f.name] = f
	}
}

// Lookup returns the function named name.
func Lookup(name string) (*Func, bool) {
	f, ok := table[name]
	return f, ok
}

// Check returns the function named name when it takes n arguments, and an
// error saying why not otherwise.
func Check(name string, n int) (*Func, error) {
	f, ok := table[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown function symbol %q", name)
	case f.arity >= 0 && n != f.arity:
		s := "s"
		if f.arity == 1 {
			s = ""
		}
		return nil, fmt.Errorf("%s expects %d argument%s, got %d", name, f.arity, s, n)
	}
	return f, nil
}

// Names returns the names of all functions, in no particular order.
func Names() []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	return out
}

func bool2(name string, stop value.Bool, f func(a, b bool) bool) *Func {
	return &Func{name: name, arity: 2, stop: stop, f2: func(a, b value.Value) (value.Value, error) {
		x, err := Bool(a)
		if err != nil {
			return nil, err
		}
		y, err := Bool(b)
		if err != nil {
			return nil, err
		}
		return value.Bool(f(x, y)), nil
	}}
}

func bnot(a value.Value) (value.Value, error) {
	x, err := Bool(a)
	if err != nil {
		return nil, err
	}
	return value.Bool(!x), nil
}

func ismem(elem, set value.Value) (value.Value, error) {
	s, ok := set.(value.Set)
	if !ok {
		return nil, fmt.Errorf("ismem applied to non-set %v", set)
	}
	return value.Bool(s.Has(elem)), nil
}

func ins(elem, set value.Value) (value.Value, error) {
	s, ok := set.(value.Set)
	if !ok {
		return nil, fmt.Errorf("ins applied to non-set %v", set)
	}
	return s.Insert(elem), nil
}

func field(name string, idx int) *Func {
	return &Func{name: name, arity: 1, f1: func(a value.Value) (value.Value, error) { return Field(a, idx) }}
}

func fieldAt(a, i value.Value) (value.Value, error) {
	idx, ok := i.(value.Int)
	if !ok {
		return nil, fmt.Errorf("field index must be an int, got %v", i)
	}
	return Field(a, int(idx))
}

// Field returns the idx-th component (1-based) of a tuple: an algebra
// λ-body's projection a.idx, and datalog's field, fst and snd.
func Field(a value.Value, idx int) (value.Value, error) {
	t, ok := a.(value.Tuple)
	if !ok {
		return nil, fmt.Errorf("field %d of non-tuple %v", idx, a)
	}
	if idx < 1 || idx > t.Len() {
		return nil, fmt.Errorf("field %d out of range for %v", idx, t)
	}
	return t.At(idx - 1), nil
}

func intArg(name string, a value.Value) (int64, error) {
	x, ok := a.(value.Int)
	if !ok {
		return 0, fmt.Errorf("%s applied to non-int %v", name, a)
	}
	return int64(x), nil
}

// Bool returns a as a boolean: the one kind check of the connectives and of
// a selection test, so that a test fails alike whichever path evaluates it.
func Bool(a value.Value) (bool, error) {
	x, ok := a.(value.Bool)
	if !ok {
		return false, fmt.Errorf("expected a boolean, got %v", a)
	}
	return bool(x), nil
}
