package translate

import (
	"fmt"
	"strconv"

	"algrec/internal/algebra"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// This file implements the algebra-to-deduction direction of Section 5: "For
// every sub expression in the query a new predicate name is introduced, and a
// derived relation is defined." Every introduced predicate is unary — its
// argument is the set element, which may itself be a tuple. Subtraction
// becomes negation of the corresponding predicate; an IFP expression becomes
// recursion through the result predicate, which is faithful to the original
// query under the *inflationary* semantics (Proposition 5.1, Example 4) and
// may differ under the valid semantics — exactly the paper's point.

type algTranslator struct {
	prog *datalog.Program
	n    int

	// Staged mode (algebraToDatalogStaged): each IFP operator is
	// step-indexed individually, per Proposition 5.2, instead of relying on
	// the inflationary reading of flat recursion. idx holds the index
	// variables of the enclosing IFPs; indexed records how many of those
	// leading index arguments each introduced predicate carries.
	staged  bool
	bound   int64
	idx     []datalog.Var
	indexed map[string]int
	hasDom  bool
}

func (t *algTranslator) fresh() string {
	t.n++
	return "e" + strconv.Itoa(t.n) + "_"
}

// freshAt introduces a predicate carrying the current index prefix.
func (t *algTranslator) freshAt() string {
	p := t.fresh()
	if len(t.idx) > 0 {
		t.indexed[p] = len(t.idx)
	}
	return p
}

func (t *algTranslator) addRule(r datalog.Rule) { t.prog.Rules = append(t.prog.Rules, r) }

// atom builds an atom over pred with the element term, prepending the index
// prefix the predicate carries. Outside staged mode this is a plain unary
// atom.
func (t *algTranslator) atom(pred string, elem datalog.Term) datalog.Atom {
	d := t.indexed[pred]
	args := make([]datalog.Term, 0, d+1)
	for _, iv := range t.idx[:d] {
		args = append(args, iv)
	}
	args = append(args, elem)
	return datalog.Atom{Pred: pred, Args: args}
}

func (t *algTranslator) pos(pred string, elem datalog.Term) datalog.Literal {
	return datalog.LitAtom{Atom: t.atom(pred, elem)}
}

func (t *algTranslator) neg(pred string, elem datalog.Term) datalog.Literal {
	return datalog.LitAtom{Neg: true, Atom: t.atom(pred, elem)}
}

// stagedIdxDom is the index-domain predicate of staged translations: one
// fact per step index, binding index variables that the rule body does not
// bind otherwise.
const stagedIdxDom = "idxdom_"

// guardIdx appends index-domain atoms binding every enclosing index
// variable, making staged rules safe regardless of what the body binds.
func (t *algTranslator) guardIdx(body []datalog.Literal) []datalog.Literal {
	if len(t.idx) == 0 {
		return body
	}
	if !t.hasDom {
		t.hasDom = true
		for i := int64(0); i <= t.bound; i++ {
			t.addRule(datalog.Rule{Head: datalog.Atom{Pred: stagedIdxDom, Args: []datalog.Term{datalog.CInt(i)}}})
		}
	}
	out := make([]datalog.Literal, 0, len(body)+len(t.idx))
	for _, iv := range t.idx {
		out = append(out, datalog.LitAtom{Atom: datalog.Atom{Pred: stagedIdxDom, Args: []datalog.Term{iv}}})
	}
	return append(out, body...)
}

// chainRule emits one rule of a subexpression predicate: index prefix on the
// head, index-domain guards on the body.
func (t *algTranslator) chainRule(pred string, head datalog.Term, body ...datalog.Literal) {
	t.addRule(datalog.Rule{Head: t.atom(pred, head), Body: t.guardIdx(body)})
}

// AlgebraToDatalog translates an algebra or IFP-algebra expression into a
// deductive program whose predicate result holds exactly the elements of the
// expression's value when evaluated under the inflationary semantics
// (Proposition 5.1). env maps relation names free in e to predicate names;
// names not in env map to themselves. The database itself is shipped
// separately (see DBFacts). Call nodes are rejected: inline algebra=
// definitions first or use CoreToDatalog.
func AlgebraToDatalog(e algebra.Expr, result string, env map[string]string) (*datalog.Program, error) {
	t := &algTranslator{prog: &datalog.Program{}}
	full := map[string]string{}
	for k, v := range env {
		full[k] = v
	}
	p, err := t.translate(e, full)
	if err != nil {
		return nil, err
	}
	x := datalog.Var("X")
	t.addRule(datalog.Rule{
		Head: datalog.Atom{Pred: result, Args: []datalog.Term{x}},
		Body: []datalog.Literal{datalog.Pos(p, x)},
	})
	emitTranslate("alg2dlog", t.n, len(t.prog.Rules), 0)
	return t.prog, nil
}

// CoreToDatalog translates an algebra= program into a deductive program
// (Proposition 5.4): each defined constant becomes a predicate of the same
// name, and both sides then "interpret subtraction and negation (resp.)
// using valid semantics". The program is inlined first, so parameterized
// definitions disappear and recursion goes through the constants'
// predicates.
func CoreToDatalog(p *core.Program) (*datalog.Program, error) {
	q, err := p.Inline()
	if err != nil {
		return nil, err
	}
	t := &algTranslator{prog: &datalog.Program{}}
	env := map[string]string{}
	for _, d := range q.Defs {
		env[d.Name] = d.Name
	}
	x := datalog.Var("X")
	for _, d := range q.Defs {
		bp, err := t.translate(d.Body, env)
		if err != nil {
			return nil, fmt.Errorf("translate: definition of %q: %w", d.Name, err)
		}
		t.addRule(datalog.Rule{
			Head: datalog.Atom{Pred: d.Name, Args: []datalog.Term{x}},
			Body: []datalog.Literal{datalog.Pos(bp, x)},
		})
	}
	emitTranslate("core2dlog", len(q.Defs), len(t.prog.Rules), 0)
	return t.prog, nil
}

func (t *algTranslator) translate(e algebra.Expr, env map[string]string) (string, error) {
	x := datalog.Var("X")
	y := datalog.Var("Y")
	switch ee := e.(type) {
	case algebra.Rel:
		if p, ok := env[ee.Name]; ok {
			return p, nil
		}
		return ee.Name, nil
	case algebra.Lit:
		p := t.freshAt()
		for _, v := range ee.Set.Elems() {
			t.chainRule(p, datalog.C(v))
		}
		return p, nil
	case algebra.Union:
		l, err := t.translate(ee.L, env)
		if err != nil {
			return "", err
		}
		r, err := t.translate(ee.R, env)
		if err != nil {
			return "", err
		}
		p := t.freshAt()
		t.chainRule(p, x, t.pos(l, x))
		t.chainRule(p, x, t.pos(r, x))
		return p, nil
	case algebra.Diff:
		// The Flip-annotated anti-join — Diff(L, π₁(σ(Flip(L) × Q))), the
		// shape DatalogToCore emits for a negated atom — has an exact
		// fact-level image: a single negated atom over Q with the row value
		// computed from the element. This restores the correlation that the
		// generic subexpression-per-predicate translation would lose:
		// negation would otherwise range over a predicate chain containing
		// L itself, putting recursive programs into a negative cycle the
		// original never had.
		if aj, ok := antiJoinParts(ee); ok {
			pl, err := t.translate(aj.env, env)
			if err != nil {
				return "", err
			}
			pq, err := t.translate(aj.q, env)
			if err != nil {
				return "", err
			}
			rowTerm, err := fexprToTerm(aj.row, map[string]datalog.Term{antiJoinElemVar: x})
			if err != nil {
				return "", err
			}
			p := t.freshAt()
			t.chainRule(p, x, t.pos(pl, x), t.neg(pq, rowTerm))
			return p, nil
		}
		l, err := t.translate(ee.L, env)
		if err != nil {
			return "", err
		}
		r, err := t.translate(ee.R, env)
		if err != nil {
			return "", err
		}
		p := t.freshAt()
		// "E1 − E2 is represented by a rule R1(x), ¬R2(x) → R(x)."
		t.chainRule(p, x, t.pos(l, x), t.neg(r, x))
		return p, nil
	case algebra.Product:
		l, err := t.translate(ee.L, env)
		if err != nil {
			return "", err
		}
		r, err := t.translate(ee.R, env)
		if err != nil {
			return "", err
		}
		p := t.freshAt()
		t.chainRule(p, datalog.Apply{Fn: "tup", Args: []datalog.Term{x, y}}, t.pos(l, x), t.pos(r, y))
		return p, nil
	case algebra.Select:
		of, err := t.translate(ee.Of, env)
		if err != nil {
			return "", err
		}
		test, err := fexprToTerm(ee.Test, map[string]datalog.Term{ee.Var: x})
		if err != nil {
			return "", err
		}
		p := t.freshAt()
		t.chainRule(p, x, t.pos(of, x), datalog.Cmp(builtin.Eq, test, datalog.C(value.True)))
		return p, nil
	case algebra.Map:
		of, err := t.translate(ee.Of, env)
		if err != nil {
			return "", err
		}
		out, err := fexprToTerm(ee.Out, map[string]datalog.Term{ee.Var: x})
		if err != nil {
			return "", err
		}
		p := t.freshAt()
		t.chainRule(p, y, t.pos(of, x), datalog.Cmp(builtin.Eq, y, out))
		return p, nil
	case algebra.IFP:
		if t.staged {
			return t.translateIFPStaged(ee, env)
		}
		// "A fixed point expression IFP_exp is translated by first
		// translating exp and then introducing recursion in the deduction."
		p := t.freshAt()
		inner := map[string]string{}
		for k, v := range env {
			inner[k] = v
		}
		inner[ee.Var] = p
		b, err := t.translate(ee.Body, inner)
		if err != nil {
			return "", err
		}
		t.chainRule(p, x, t.pos(b, x))
		return p, nil
	case algebra.Flip:
		// The fact-level valid semantics is already exact; the polarity
		// annotation is transparent here.
		return t.translate(ee.E, env)
	case algebra.Call:
		return "", fmt.Errorf("translate: unexpanded call to %q (inline the algebra= program first or use CoreToDatalog)", ee.Name)
	default:
		panic(fmt.Sprintf("translate: unknown Expr %T", e))
	}
}

// translateIFPStaged is the staged-mode IFP case: Proposition 5.2's
// step-index transformation applied to this one operator. The accumulator
// predicate ps carries one more index argument than its surroundings; the
// body is translated with the IFP variable bound to ps, so within one index
// every body predicate reads the accumulator frozen at that index and the
// program stays locally stratified — the valid semantics then replays the
// inflationary iteration exactly, committing none of the transient
// subtraction over-approximations the flat translation commits under the
// inflationary reading.
func (t *algTranslator) translateIFPStaged(ee algebra.IFP, env map[string]string) (string, error) {
	x := datalog.Var("X")
	p := t.freshAt()
	ps := t.fresh()
	t.indexed[ps] = len(t.idx) + 1
	iv := datalog.Var("I" + strconv.Itoa(len(t.idx)+1) + "__")
	t.idx = append(t.idx, iv)
	inner := map[string]string{}
	for k, v := range env {
		inner[k] = v
	}
	inner[ee.Var] = ps
	b, err := t.translate(ee.Body, inner)
	if err != nil {
		return "", err
	}
	succ := datalog.Apply{Fn: builtin.Plus.Name(), Args: []datalog.Term{iv, datalog.CInt(1)}}
	guard := datalog.Cmp(builtin.Lt, iv, datalog.CInt(t.bound))
	outer := make([]datalog.Term, 0, len(t.idx)+1)
	for _, v := range t.idx[:len(t.idx)-1] {
		outer = append(outer, v)
	}
	// Step: ps(ī, i+1, x) ← body-at-i(x), i < bound.
	t.addRule(datalog.Rule{
		Head: datalog.Atom{Pred: ps, Args: append(append([]datalog.Term{}, outer...), succ, x)},
		Body: t.guardIdx([]datalog.Literal{t.pos(b, x), guard}),
	})
	// Accumulate: ps(ī, i+1, x) ← ps(ī, i, x), i < bound.
	t.addRule(datalog.Rule{
		Head: datalog.Atom{Pred: ps, Args: append(append([]datalog.Term{}, outer...), succ, x)},
		Body: t.guardIdx([]datalog.Literal{t.pos(ps, x), guard}),
	})
	t.idx = t.idx[:len(t.idx)-1]
	// Project the converged index: p(ī, x) ← ps(ī, bound, x).
	t.chainRule(p, x, datalog.LitAtom{Atom: datalog.Atom{
		Pred: ps, Args: append(append([]datalog.Term{}, outer...), datalog.CInt(t.bound), x),
	}})
	return p, nil
}

// algebraToDatalogStaged is AlgebraToDatalog with every IFP operator
// step-indexed up to bound iterations (Proposition 5.2 applied per
// operator): the resulting program is locally stratified, and its valid
// model computes the expression's value exactly — in result and in every
// chain predicate. bound must be at least the iteration count of every IFP
// in the expression on the intended database; extra index steps are
// harmless (the accumulator just carries its fixpoint forward).
func algebraToDatalogStaged(e algebra.Expr, result string, env map[string]string, bound int64) (*datalog.Program, error) {
	t := &algTranslator{prog: &datalog.Program{}, staged: true, bound: bound, indexed: map[string]int{}}
	full := map[string]string{}
	for k, v := range env {
		full[k] = v
	}
	p, err := t.translate(e, full)
	if err != nil {
		return nil, err
	}
	x := datalog.Var("X")
	t.addRule(datalog.Rule{
		Head: datalog.Atom{Pred: result, Args: []datalog.Term{x}},
		Body: []datalog.Literal{datalog.Pos(p, x)},
	})
	emitTranslate("alg2dlog-staged", t.n, len(t.prog.Rules), int(bound))
	return t.prog, nil
}

// fexprToTerm compiles an element-level expression to a deductive term over
// the interpreted function symbols; boolean structure compiles to the
// boolean-valued builtins band/bor/bnot/eq/... so that a selection test
// becomes the single guard literal `term = true`.
func fexprToTerm(e algebra.FExpr, vars map[string]datalog.Term) (datalog.Term, error) {
	switch ee := e.(type) {
	case algebra.FVar:
		tm, ok := vars[ee.Name]
		if !ok {
			return nil, fmt.Errorf("translate: unbound element variable %q", ee.Name)
		}
		return tm, nil
	case algebra.FConst:
		return datalog.C(ee.V), nil
	case algebra.FField:
		of, err := fexprToTerm(ee.Of, vars)
		if err != nil {
			return nil, err
		}
		return datalog.Apply{Fn: "field", Args: []datalog.Term{of, datalog.CInt(int64(ee.Idx))}}, nil
	case algebra.FTuple:
		args := make([]datalog.Term, len(ee.Elems))
		for i, el := range ee.Elems {
			a, err := fexprToTerm(el, vars)
			if err != nil {
				return nil, err
			}
			args[i] = a
		}
		return datalog.Apply{Fn: "tup", Args: args}, nil
	case algebra.FCmp:
		return apply2(ee.Op.Name(), ee.L, ee.R, vars)
	case algebra.FArith:
		return apply2(ee.Op.Name(), ee.L, ee.R, vars)
	case algebra.FAnd:
		return apply2(builtin.Band.Name(), ee.L, ee.R, vars)
	case algebra.FOr:
		return apply2(builtin.Bor.Name(), ee.L, ee.R, vars)
	case algebra.FNot:
		a, err := fexprToTerm(ee.E, vars)
		if err != nil {
			return nil, err
		}
		return datalog.Apply{Fn: builtin.Bnot.Name(), Args: []datalog.Term{a}}, nil
	case algebra.FMem:
		return apply2(builtin.Ismem.Name(), ee.Elem, ee.Set, vars)
	default:
		panic(fmt.Sprintf("translate: unknown FExpr %T", e))
	}
}

func apply2(fn string, l, r algebra.FExpr, vars map[string]datalog.Term) (datalog.Term, error) {
	lt, err := fexprToTerm(l, vars)
	if err != nil {
		return nil, err
	}
	rt, err := fexprToTerm(r, vars)
	if err != nil {
		return nil, err
	}
	return datalog.Apply{Fn: fn, Args: []datalog.Term{lt, rt}}, nil
}
