// Package datalog implements the paper's deductive language (Section 4):
// Horn clauses with negated atoms, equality and comparison literals, and
// interpreted function symbols over the complex-object value universe. The
// function symbols and the comparisons are defined in internal/builtin's
// table, which the algebra's λ-bodies share.
//
// A program is a set of rules Q1, ..., Qn -> R(x̄), written in the concrete
// syntax R(x̄) :- Q1, ..., Qn. Facts are rules with an empty body and a ground
// head. Because domains carry functions (succ, plus, tup, ...), programs can
// define infinite relations; every evaluation path in this repository is
// therefore budgeted (see package ground).
//
// The package provides the AST, a parser for the concrete syntax (over the
// tokens of internal/lex, the tokenizer the algebra's parser reads too), the
// safety checker of Definition 4.1 (range formulas), the Proposition 4.2
// make-safe transformation, and predicate-level stratification analysis.
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"algrec/internal/builtin"
	"algrec/internal/value"
)

// Term is a term of the deductive language: a variable, a constant value, or
// an application of an interpreted function symbol. It is a sealed interface.
type Term interface {
	// String returns the concrete syntax of the term.
	String() string
	isTerm()
}

// Var is a variable (uppercase identifier in the concrete syntax).
type Var string

// Const is a constant value.
type Const struct {
	V value.Value
}

// Apply is an application of an interpreted function symbol to argument
// terms, e.g. plus(X, 1) or tup(X, Y). The available functions are listed in
// funcs.go.
type Apply struct {
	Fn   string
	Args []Term
}

func (Var) isTerm()   {}
func (Const) isTerm() {}
func (Apply) isTerm() {}

// String implements Term.
func (v Var) String() string { return string(v) }

// String implements Term.
func (c Const) String() string { return c.V.String() }

// String implements Term.
func (a Apply) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// C wraps a value as a constant term.
func C(v value.Value) Const { return Const{V: v} }

// CInt is shorthand for an integer constant term.
func CInt(i int64) Const { return Const{V: value.Int(i)} }

// CSym is shorthand for a symbol (string) constant term.
func CSym(s string) Const { return Const{V: value.String(s)} }

// Atom is a predicate applied to argument terms.
type Atom struct {
	Pred string
	Args []Term
}

// String returns the concrete syntax of the atom.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Literal is a body literal: a possibly negated atom, or a comparison between
// terms. It is a sealed interface.
type Literal interface {
	String() string
	isLiteral()
}

// LitAtom is a possibly negated predicate atom in a rule body.
type LitAtom struct {
	Neg  bool
	Atom Atom
}

// LitCmp is a comparison literal between two terms. Eq doubles as
// assignment when one side is an unbound variable (the safety checker's rule
// 4 of Definition 4.1).
type LitCmp struct {
	Op   builtin.Cmp
	L, R Term
}

func (LitAtom) isLiteral() {}
func (LitCmp) isLiteral()  {}

// String implements Literal.
func (l LitAtom) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// String implements Literal.
func (l LitCmp) String() string {
	return l.L.String() + " " + l.Op.String() + " " + l.R.String()
}

// Pos returns a positive atom literal.
func Pos(pred string, args ...Term) LitAtom {
	return LitAtom{Atom: Atom{Pred: pred, Args: args}}
}

// Neg returns a negated atom literal.
func Neg(pred string, args ...Term) LitAtom {
	return LitAtom{Neg: true, Atom: Atom{Pred: pred, Args: args}}
}

// Cmp returns a comparison literal.
func Cmp(op builtin.Cmp, l, r Term) LitCmp { return LitCmp{Op: op, L: l, R: r} }

// Rule is a Horn clause with (possibly negated) body literals.
type Rule struct {
	Head Atom
	Body []Literal
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// String returns the concrete syntax of the rule, terminated by a period.
func (r Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a deductive program: an ordered list of rules (order is
// irrelevant to every semantics; it is kept for faithful printing).
type Program struct {
	Rules []Rule
}

// String returns the concrete syntax of the program, one rule per line.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Clone returns a deep-enough copy of the program: the rule slice and each
// rule's body slice are fresh; terms are immutable and shared.
func (p *Program) Clone() *Program {
	out := &Program{Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		body := make([]Literal, len(r.Body))
		copy(body, r.Body)
		args := make([]Term, len(r.Head.Args))
		copy(args, r.Head.Args)
		out.Rules[i] = Rule{Head: Atom{Pred: r.Head.Pred, Args: args}, Body: body}
	}
	return out
}

// Preds returns the names of all predicates appearing in the program, sorted.
func (p *Program) Preds() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		seen[r.Head.Pred] = true
		for _, l := range r.Body {
			if la, ok := l.(LitAtom); ok {
				seen[la.Atom.Pred] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// IDB returns the names of predicates defined by at least one rule with a
// non-empty body (the derived predicates), sorted.
func (p *Program) IDB() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if !r.IsFact() {
			seen[r.Head.Pred] = true
		}
	}
	out := make([]string, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// EDB returns the names of predicates that appear only in facts or only in
// rule bodies (the database relations), sorted.
func (p *Program) EDB() []string {
	idb := map[string]bool{}
	for _, q := range p.IDB() {
		idb[q] = true
	}
	out := []string{}
	for _, q := range p.Preds() {
		if !idb[q] {
			out = append(out, q)
		}
	}
	return out
}

// termVars appends the variables of t to vs.
func termVars(t Term, vs map[Var]bool) {
	switch tt := t.(type) {
	case Var:
		vs[tt] = true
	case Const:
	case Apply:
		for _, a := range tt.Args {
			termVars(a, vs)
		}
	default:
		panic(fmt.Sprintf("datalog: unknown term %T", t))
	}
}

// VarsOfTerm returns the set of variables occurring in t.
func VarsOfTerm(t Term) map[Var]bool {
	vs := map[Var]bool{}
	termVars(t, vs)
	return vs
}

// VarsOfAtom returns the set of variables occurring in a.
func VarsOfAtom(a Atom) map[Var]bool {
	vs := map[Var]bool{}
	for _, t := range a.Args {
		termVars(t, vs)
	}
	return vs
}

// VarsOfLiteral returns the set of variables occurring in l.
func VarsOfLiteral(l Literal) map[Var]bool {
	vs := map[Var]bool{}
	switch ll := l.(type) {
	case LitAtom:
		for _, t := range ll.Atom.Args {
			termVars(t, vs)
		}
	case LitCmp:
		termVars(ll.L, vs)
		termVars(ll.R, vs)
	default:
		panic(fmt.Sprintf("datalog: unknown literal %T", l))
	}
	return vs
}

// VarsOfRule returns the set of variables occurring anywhere in r.
func VarsOfRule(r Rule) map[Var]bool {
	vs := VarsOfAtom(r.Head)
	for _, l := range r.Body {
		for v := range VarsOfLiteral(l) {
			vs[v] = true
		}
	}
	return vs
}

// IsGroundTerm reports whether t contains no variables.
func IsGroundTerm(t Term) bool {
	switch tt := t.(type) {
	case Var:
		return false
	case Const:
		return true
	case Apply:
		for _, a := range tt.Args {
			if !IsGroundTerm(a) {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("datalog: unknown term %T", t))
	}
}

// SubstTerm replaces variables in t by their bindings in b; unbound variables
// are left in place.
func SubstTerm(t Term, b map[Var]Term) Term {
	switch tt := t.(type) {
	case Var:
		if r, ok := b[tt]; ok {
			return r
		}
		return tt
	case Const:
		return tt
	case Apply:
		args := make([]Term, len(tt.Args))
		for i, a := range tt.Args {
			args[i] = SubstTerm(a, b)
		}
		return Apply{Fn: tt.Fn, Args: args}
	default:
		panic(fmt.Sprintf("datalog: unknown term %T", t))
	}
}

// SubstAtom applies SubstTerm to every argument of a.
func SubstAtom(a Atom, b map[Var]Term) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = SubstTerm(t, b)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// SubstLiteral applies SubstTerm throughout l.
func SubstLiteral(l Literal, b map[Var]Term) Literal {
	switch ll := l.(type) {
	case LitAtom:
		return LitAtom{Neg: ll.Neg, Atom: SubstAtom(ll.Atom, b)}
	case LitCmp:
		return LitCmp{Op: ll.Op, L: SubstTerm(ll.L, b), R: SubstTerm(ll.R, b)}
	default:
		panic(fmt.Sprintf("datalog: unknown literal %T", l))
	}
}

// Fact is a ground atom: a predicate name applied to ground values.
type Fact struct {
	Pred string
	Args []value.Value
}

// Key returns the canonical string encoding of the fact, usable as a map key.
func (f Fact) Key() string {
	var sb strings.Builder
	sb.WriteString(f.Pred)
	sb.WriteByte('(')
	for i, v := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// String returns the concrete syntax of the fact.
func (f Fact) String() string { return f.Key() }

// CompareFacts orders facts by predicate name, then argument-wise.
func CompareFacts(a, b Fact) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	n := len(a.Args)
	if len(b.Args) < n {
		n = len(b.Args)
	}
	for i := 0; i < n; i++ {
		if c := a.Args[i].Compare(b.Args[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a.Args) < len(b.Args):
		return -1
	case len(a.Args) > len(b.Args):
		return 1
	default:
		return 0
	}
}

// SortFacts sorts fs in place by CompareFacts.
func SortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool { return CompareFacts(fs[i], fs[j]) < 0 })
}

// FactRule returns the fact f as a bodyless rule.
func FactRule(f Fact) Rule {
	args := make([]Term, len(f.Args))
	for i, v := range f.Args {
		args[i] = Const{V: v}
	}
	return Rule{Head: Atom{Pred: f.Pred, Args: args}}
}

// AddFacts appends the given facts to the program as bodyless rules.
func (p *Program) AddFacts(fs ...Fact) {
	for _, f := range fs {
		p.Rules = append(p.Rules, FactRule(f))
	}
}
