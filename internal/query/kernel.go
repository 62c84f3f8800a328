package query

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/datalog"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file runs the algebra's flat joins on the relational rule kernel: §5's
// translation (Prop 5.1, translate.AlgebraToDatalog) made column-aware. There
// every subexpression is a unary predicate over whole elements; here a stored
// relation of k-tuples is the k-ary predicate its fact base holds, and an
// element is a row of columns. σ over × is one rule body whose variables the
// test's equalities unify, MAP picks and nests the head's columns, ∪ gives a
// head several rules, and an ifp that DeltaDistributive accepts is a recursive
// predicate — for a body monotone in its variable the inflationary fixpoint is
// the least one. Only fixpoints and literal sets become predicates of their
// own. The plan's shape says which column builds which component of an
// element: alg-triangle's (((a,b),(b,c)),(c,a)) is one row of 6 columns.
//
// An algebra= script under the valid semantics compiles the same way, with
// Prop 5.4's reading of its equations: every zero-parameter def (after
// inlining) and every query is a predicate, and a def's occurrences read it.
// diff(L, S) is L's rule bodies with S negated on the element, and De Morgan
// keeps a subtrahend's product from being built: an element x of L survives
// S₁ × S₂ when x.1 ∉ S₁ or x.2 ∉ S₂ — two bodies — and survives S₁ ∪ S₂ when
// it survives both — one body. Example 3's WIN is then the kernel's `win`
// program, win(X) :- e(X,Y), not win(Y), beside a rule for π₁ MOVE that never
// fires; rel's valid / well-founded alternation gives the certain elements
// (the true rows) and the undefined ones (possible, not true). The subtrahend
// holds no diff, because under two subtractions exact sets cancel where
// three-valued rows do not; Flip has no datalog reading.
//
// The fragment is well-kinded by construction — leaves are stored relations
// and literals of flat k-tuples; λ-bodies are paths, tuples of them and
// constants, `=` and `in` a literal set under `and`; every product is joined
// by an equality — so once the stored relations have the widths the plan reads
// (fits), the value evaluator raises no error on it and the engines agree,
// budget boundaries aside: MaxSetSize bounds each answer, and MaxIFPIters
// nothing — the kernel's worklist has no rounds. A recursive unit is bounded
// by Ground.MaxAtoms and Ground.MaxRules, and converges: its rows are tuples
// of the active domain.

// elemType is an element type under inference, a union-find cell: unknown, a
// column (one ID of a row, whatever value it holds), or a tuple — left open by
// a projection out of an unknown, widening to the largest field projected,
// until a closed tuple fixes its width.
type elemType struct {
	link           *elemType
	col, tup, open bool
	kids           []*elemType
}

func (t *elemType) find() *elemType {
	for t.link != nil {
		t = t.link
	}
	return t
}

func (t *elemType) occurs(u *elemType) bool {
	t = t.find()
	return t == u || slices.ContainsFunc(t.kids, func(k *elemType) bool { return k.occurs(u) })
}

// widthIs reports whether every element of s is a tuple of width w.
func widthIs(s value.Set, w int) bool {
	for i := range s.Len() {
		if t, ok := s.At(i).(value.Tuple); !ok || t.Len() != w {
			return false
		}
	}
	return true
}

// compiler is one compilation: infer types the expressions, gen emits their
// rules, replaying the types of literals and fixpoints in walk order. Whatever
// finds an expression outside the fragment sets outside and returns a
// placeholder; the compilation is then abandoned.
type compiler struct {
	outside bool
	rels    map[string]*elemType // stored relation → its elements' type
	typeOf  map[string]*elemType // def or fixpoint predicate → its elements' type
	seen    []*elemType
	next    int
	prog    *datalog.Program
	vars    int
	fresh   []string
}

func (x *compiler) fail() *elemType { x.outside = true; return &elemType{} }

func (x *compiler) record(t *elemType) *elemType { x.seen = append(x.seen, t); return t }

func (x *compiler) replay() *elemType { x.next++; return x.seen[x.next-1] }

func (x *compiler) pred() string {
	x.fresh = append(x.fresh, "%"+strconv.Itoa(len(x.fresh)))
	return x.fresh[len(x.fresh)-1]
}

func with[T any](env map[string]T, name string, v T) map[string]T {
	out := map[string]T{name: v}
	for k, w := range env {
		if k != name {
			out[k] = w
		}
	}
	return out
}

func (x *compiler) unify(a, b *elemType) {
	if a, b = a.find(), b.find(); a == b || x.outside {
		return
	}
	if !a.col && !a.tup || !b.col && !b.tup {
		if a.col || a.tup {
			a, b = b, a
		}
		if b.occurs(a) { // ifp(s, product(s, e)) has no finite type
			x.fail()
			return
		}
		a.link = b
		return
	}
	if len(a.kids) > len(b.kids) {
		a, b = b, a
	}
	if a.col != b.col || len(a.kids) < len(b.kids) && !a.open {
		x.fail()
		return
	}
	if a.occurs(b) || b.occurs(a) { // ifp(s, union(f, product(s, e))) neither
		x.fail()
		return
	}
	a.link, b.open = b, a.open && b.open
	for i, k := range a.kids {
		x.unify(k, b.kids[i])
	}
}

// field is the type of component j of t's elements.
func (x *compiler) field(t *elemType, j int) *elemType {
	if t = t.find(); !t.col && !t.tup {
		t.tup, t.open = true, true
	}
	if t.col || j < 1 || j > len(t.kids) && !t.open {
		return x.fail()
	}
	for len(t.kids) < j {
		t.kids = append(t.kids, &elemType{})
	}
	return t.kids[j-1]
}

func (x *compiler) infer(e algebra.Expr, env map[string]*elemType) *elemType {
	switch ee := e.(type) {
	case algebra.Rel:
		if t, ok := env[ee.Name]; ok {
			return t
		}
		if t := x.typeOf[ee.Name]; t != nil { // a def
			return t
		}
		if x.rels[ee.Name] == nil {
			x.rels[ee.Name] = &elemType{}
		}
		return x.rels[ee.Name]
	case algebra.Lit:
		t := &elemType{}
		if w := 0; !ee.Set.IsEmpty() {
			if t0, ok := ee.Set.At(0).(value.Tuple); ok {
				w = t0.Len()
			}
			if w == 0 || !widthIs(ee.Set, w) {
				return x.fail()
			}
			t.tup = true
			for range w {
				t.kids = append(t.kids, &elemType{col: true})
			}
		}
		return x.record(t)
	case algebra.Union:
		t := x.infer(ee.L, env)
		x.unify(t, x.infer(ee.R, env))
		return t
	case algebra.Diff:
		t := x.infer(ee.L, env)
		x.unify(t, x.infer(ee.R, env))
		return t
	case algebra.Product:
		return &elemType{tup: true, kids: []*elemType{x.infer(ee.L, env), x.infer(ee.R, env)}}
	case algebra.Select:
		t := x.infer(ee.Of, env)
		x.inferFn(ee.Test, ee.Var, t, true)
		return t
	case algebra.Map:
		return x.inferFn(ee.Out, ee.Var, x.infer(ee.Of, env), false)
	case algebra.IFP:
		if !algebra.DeltaDistributive(ee.Body, ee.Var) {
			return x.fail()
		}
		t := x.record(&elemType{})
		x.unify(t, x.infer(ee.Body, with(env, ee.Var, t)))
		return t
	}
	return x.fail()
}

// inferFn types a λ-body over an element of type t: a test, or a value — a
// path, a constant or a tuple of values.
func (x *compiler) inferFn(f algebra.FExpr, v string, t *elemType, test bool) *elemType {
	switch ff := f.(type) {
	case algebra.FVar:
		if ff.Name == v && !test {
			return t
		}
	case algebra.FField:
		if !test {
			return x.field(x.inferFn(ff.Of, v, t, false), ff.Idx)
		}
	case algebra.FConst:
		if !test {
			return &elemType{col: true}
		}
	case algebra.FTuple:
		if !test && len(ff.Elems) > 0 {
			out := &elemType{tup: true}
			for _, el := range ff.Elems {
				out.kids = append(out.kids, x.inferFn(el, v, t, false))
			}
			return out
		}
	case algebra.FAnd:
		if test {
			x.inferFn(ff.L, v, t, true)
			return x.inferFn(ff.R, v, t, true)
		}
	case algebra.FCmp:
		if test && ff.Op == algebra.OpEq {
			x.unify(x.inferFn(ff.L, v, t, false), x.inferFn(ff.R, v, t, false))
			return nil
		}
	case algebra.FMem:
		if c, ok := ff.Set.(algebra.FConst); ok && test && c.V.Kind() == value.KindSet {
			x.unify(x.inferFn(ff.Elem, v, t, false), &elemType{col: true})
			return nil
		}
	}
	return x.fail()
}

// node is an element of a rule under construction — a column's term, or a
// tuple of nodes — and, in a plan's shape, a column's index.
type node struct {
	t    datalog.Term
	col  int
	kids []*node // nil for a column
}

// nodeOf builds a node of type t, making its columns with leaf.
func nodeOf(t *elemType, leaf func() *node) *node {
	if t = t.find(); !t.tup {
		return leaf()
	}
	n := &node{}
	for _, k := range t.kids {
		n.kids = append(n.kids, nodeOf(k, leaf))
	}
	return n
}

func (n *node) leaves(out []datalog.Term) []datalog.Term {
	if n.kids == nil {
		return append(out, n.t)
	}
	for _, k := range n.kids {
		out = k.leaves(out)
	}
	return out
}

// fn is the node a λ-body's value builds from the element.
func fn(f algebra.FExpr, elem *node) *node {
	switch ff := f.(type) {
	case algebra.FConst:
		return &node{t: datalog.C(ff.V)}
	case algebra.FField:
		return fn(ff.Of, elem).kids[ff.Idx-1]
	case algebra.FTuple:
		n := &node{}
		for _, el := range ff.Elems {
			n.kids = append(n.kids, fn(el, elem))
		}
		return n
	}
	return elem
}

// body is one rule body — its atoms, and the atoms it negates — and the
// element it produces; sub is the unification its selections' equalities made.
type body struct {
	atoms, neg []datalog.Atom
	out        *node
	sub        map[datalog.Var]datalog.Term
}

func (b *body) find(t datalog.Term) datalog.Term {
	for v, ok := t.(datalog.Var); ok && b.sub[v] != nil; v, ok = t.(datalog.Var) {
		t = b.sub[v]
	}
	return t
}

// unify equates two elements of one type, reporting false when that equates
// two different constants.
func (b *body) unify(l, r *node) bool {
	for i := range l.kids {
		if !b.unify(l.kids[i], r.kids[i]) {
			return false
		}
	}
	if l.kids != nil {
		return true
	}
	tl, tr := b.find(l.t), b.find(r.t)
	if _, ok := tl.(datalog.Var); !ok {
		tl, tr = tr, tl
	}
	if v, ok := tl.(datalog.Var); ok {
		if w, ok := tr.(datalog.Var); !ok || v != w {
			b.sub[v] = tr
		}
		return true
	}
	return value.Equal(tl.(datalog.Const).V, tr.(datalog.Const).V)
}

// test applies a selection's test to b, reporting false when it never holds.
func (x *compiler) test(b *body, f algebra.FExpr, v string) bool {
	switch ff := f.(type) {
	case algebra.FAnd:
		return x.test(b, ff.L, v) && x.test(b, ff.R, v)
	case algebra.FCmp:
		return b.unify(fn(ff.L, b.out), fn(ff.R, b.out))
	}
	m := f.(algebra.FMem)
	p := x.facts(m.Set.(algebra.FConst).V.(value.Set), false)
	// First in the body: the join planner starts from the earliest atom it
	// can, and a literal is small.
	b.atoms = slices.Insert(b.atoms, 0, datalog.Atom{Pred: p, Args: []datalog.Term{fn(m.Elem, b.out).t}})
	return true
}

// facts introduces a predicate holding s's elements, or their components.
func (x *compiler) facts(s value.Set, components bool) string {
	p := x.pred()
	for _, el := range s.Elems() {
		args := []value.Value{el}
		if components {
			args = el.(value.Tuple).Elems()
		}
		head := datalog.Atom{Pred: p}
		for _, a := range args {
			head.Args = append(head.Args, datalog.C(a))
		}
		x.prog.Rules = append(x.prog.Rules, datalog.Rule{Head: head})
	}
	return p
}

// scan is the rule body reading all of a predicate of type t.
func (x *compiler) scan(p string, t *elemType) []*body {
	n := nodeOf(t, func() *node { x.vars++; return &node{t: datalog.Var("V" + strconv.Itoa(x.vars))} })
	return []*body{{atoms: []datalog.Atom{{Pred: p, Args: n.leaves(nil)}}, out: n, sub: map[datalog.Var]datalog.Term{}}}
}

// gen is e as a union of rule bodies, emitting the rules of its literals and
// fixpoints on the way.
func (x *compiler) gen(e algebra.Expr, env map[string]string) []*body {
	switch ee := e.(type) {
	case algebra.Rel:
		if p, ok := env[ee.Name]; ok {
			return x.scan(p, x.typeOf[p])
		}
		if t := x.typeOf[ee.Name]; t != nil { // a def
			return x.scan(ee.Name, t)
		}
		return x.scan(ee.Name, x.rels[ee.Name])
	case algebra.Lit:
		return x.scan(x.facts(ee.Set, true), x.replay())
	case algebra.Union:
		return append(x.gen(ee.L, env), x.gen(ee.R, env)...)
	case algebra.Product:
		ls, rs := x.gen(ee.L, env), x.gen(ee.R, env)
		if len(ls)*len(rs) > 64 { // a product of unions multiplies them out
			x.fail()
			return nil
		}
		var out []*body
		for _, l := range ls {
			for _, r := range rs {
				b := &body{atoms: append(slices.Clone(l.atoms), r.atoms...), neg: append(slices.Clone(l.neg), r.neg...), out: &node{kids: []*node{l.out, r.out}}, sub: maps.Clone(l.sub)}
				maps.Copy(b.sub, r.sub)
				out = append(out, b)
			}
		}
		return out
	case algebra.Diff:
		ls := x.gen(ee.L, env)
		alts := x.negate(ee.R, nil, env)
		var out []*body
		for _, l := range ls {
			for _, alt := range alts {
				b := &body{atoms: slices.Clone(l.atoms), neg: slices.Clone(l.neg), out: l.out, sub: maps.Clone(l.sub)}
				for _, n := range alt {
					elem := l.out
					for _, i := range n.path {
						elem = elem.kids[i]
					}
					b.neg = append(b.neg, datalog.Atom{Pred: n.pred, Args: elem.leaves(nil)})
				}
				out = append(out, b)
			}
		}
		if len(out) > 64 {
			x.fail()
			return nil
		}
		return out
	case algebra.Select:
		return slices.DeleteFunc(x.gen(ee.Of, env), func(b *body) bool { return !x.test(b, ee.Test, ee.Var) })
	case algebra.Map:
		bs := x.gen(ee.Of, env)
		for _, b := range bs {
			b.out = fn(ee.Out, b.out)
		}
		return bs
	}
	ifp := e.(algebra.IFP)
	t, p := x.replay(), x.pred()
	x.typeOf[p] = t
	for _, b := range x.gen(ifp.Body, with(env, ifp.Var, p)) {
		x.emit(p, b)
	}
	return x.scan(p, t)
}

// negLit is a literal a subtrahend negates: pred holds the components at path
// of the minuend's elements.
type negLit struct {
	pred string
	path []int
}

// negate is "not in s" for the component at path of an element, as
// alternative conjunctions of negated literals (De Morgan): a predicate s
// names is negated as it stands, a product factor by factor, a union as both
// operands, and anything else becomes a predicate of its own.
func (x *compiler) negate(s algebra.Expr, path []int, env map[string]string) [][]negLit {
	switch ss := s.(type) {
	case algebra.Rel:
		p, ok := env[ss.Name]
		if !ok {
			p = ss.Name
		}
		return [][]negLit{{{p, path}}}
	case algebra.Product:
		l := x.negate(ss.L, append(slices.Clip(path), 0), env)
		return append(l, x.negate(ss.R, append(slices.Clip(path), 1), env)...)
	case algebra.Union:
		var out [][]negLit
		ls, rs := x.negate(ss.L, path, env), x.negate(ss.R, path, env)
		for _, l := range ls {
			for _, r := range rs {
				out = append(out, append(slices.Clone(l), r...))
			}
		}
		return out
	}
	p := x.pred()
	for _, b := range x.gen(s, env) {
		x.emit(p, b)
	}
	return [][]negLit{{{p, path}}}
}

// emit adds the rule p(b's columns) :- b's atoms, not b's negated atoms. A
// body falling apart into parts that share no variable is a cross product: the
// value evaluator's.
func (x *compiler) emit(p string, b *body) {
	lits := make([]datalog.Literal, len(b.atoms), len(b.atoms)+len(b.neg))
	for i, a := range b.atoms {
		lits[i] = datalog.Pos(a.Pred, b.args(a)...)
	}
	joined, vars := map[int]bool{}, map[datalog.Var]bool{}
	for grew := true; grew; {
		grew = false
		for i, l := range lits {
			args := l.(datalog.LitAtom).Atom.Args
			if !joined[i] && (len(joined) == 0 || slices.ContainsFunc(args, func(t datalog.Term) bool { v, ok := t.(datalog.Var); return ok && vars[v] })) {
				joined[i], grew = true, true
				for _, t := range args {
					if v, ok := t.(datalog.Var); ok {
						vars[v] = true
					}
				}
			}
		}
	}
	if len(joined) < len(lits) {
		x.fail()
		return
	}
	for _, a := range b.neg {
		lits = append(lits, datalog.Neg(a.Pred, b.args(a)...))
	}
	head := b.out.leaves(nil)
	for i, t := range head {
		head[i] = b.find(t)
	}
	x.prog.Rules = append(x.prog.Rules, datalog.Rule{Head: datalog.Atom{Pred: p, Args: head}, Body: lits})
}

// args is an atom's arguments as the body's unification resolves them.
func (b *body) args(a datalog.Atom) []datalog.Term {
	out := make([]datalog.Term, len(a.Args))
	for i, t := range a.Args {
		out[i] = b.find(t)
	}
	return out
}

// result names the predicate holding the elements of bs: a def or fixpoint
// read whole, in column order, as it stands, a new predicate otherwise.
func (x *compiler) result(bs []*body) string {
	if len(bs) == 1 && len(bs[0].atoms) == 1 && len(bs[0].neg) == 0 && len(bs[0].sub) == 0 && x.typeOf[bs[0].atoms[0].Pred] != nil &&
		slices.EqualFunc(bs[0].out.leaves(nil), bs[0].atoms[0].Args, func(a, b datalog.Term) bool { return a == b }) {
		return bs[0].atoms[0].Pred
	}
	p := x.pred()
	for _, b := range bs {
		x.emit(p, b)
	}
	return p
}

// kernelPlan is an expression, or a script's defs and queries, compiled for
// the kernel: the program, the answers it computes, and what the database
// must hold for the program to mean what the source does.
type kernelPlan struct {
	prog    *datalog.Program
	answers []answer       // the expression's; or a script's defs, then its queries
	stored  map[string]int // relation read → the width of its tuples
	derived []string       // predicates the program adds to: defs, and the ones introduced
}

// answer is a predicate holding a set's elements, and the shape of its rows.
type answer struct {
	pred  string
	shape *node
	width int // columns
}

func newCompiler() *compiler {
	return &compiler{rels: map[string]*elemType{}, typeOf: map[string]*elemType{}, prog: &datalog.Program{}}
}

// plan completes a compilation whose expressions are typed: nil when a stored
// relation the program reads does not hold flat tuples, or when anything was
// outside the fragment.
func (x *compiler) plan() *kernelPlan {
	k := &kernelPlan{prog: x.prog, stored: map[string]int{}}
	for name, rt := range x.rels {
		if rt = rt.find(); !rt.tup || slices.ContainsFunc(rt.kids, func(c *elemType) bool { return c.find().tup }) {
			return nil // a stored relation holds flat tuples
		}
		k.stored[name] = len(rt.kids)
	}
	if x.outside {
		return nil
	}
	return k
}

// addAnswer adds the answer pred holds, its elements of type t.
func (k *kernelPlan) addAnswer(pred string, t *elemType) {
	a := answer{pred: pred}
	a.shape = nodeOf(t, func() *node { a.width++; return &node{col: a.width - 1} })
	k.answers = append(k.answers, a)
}

// compileKernel compiles e for the kernel, or returns nil when e is outside
// the fragment — a bare leaf too: there is nothing to join.
func compileKernel(e algebra.Expr) *kernelPlan {
	switch e.(type) {
	case algebra.Select, algebra.Map, algebra.Union, algebra.Product, algebra.IFP:
	default:
		return nil
	}
	x := newCompiler()
	t := x.infer(e, nil)
	k := x.plan()
	if k == nil {
		return nil
	}
	k.addAnswer(x.result(x.gen(e, nil)), t)
	if x.outside {
		return nil
	}
	k.derived = x.fresh
	return k
}

// compileScript compiles an algebra= script for the kernel under the valid
// semantics — its defs, inlined, and its queries — or says why it stays with
// internal/core: "flip", "subtrahend" (a diff inside a subtrahend) or
// "outside-fragment".
func compileScript(s *parse.Script) (*kernelPlan, string) {
	prog, err := s.Program.Inline()
	if err != nil {
		return nil, "outside-fragment" // core reports the error
	}
	var sv survey
	for _, d := range prog.Defs {
		sv.expr(d.Body, false)
	}
	for _, q := range s.Queries {
		sv.expr(q.Expr, false)
	}
	switch {
	case sv.flip:
		return nil, "flip"
	case sv.subtrahend:
		return nil, "subtrahend"
	case sv.outside:
		return nil, "outside-fragment"
	}
	x := newCompiler()
	for _, d := range prog.Defs {
		x.typeOf[d.Name] = &elemType{}
	}
	for _, d := range prog.Defs {
		x.unify(x.typeOf[d.Name], x.infer(d.Body, nil))
	}
	types := make([]*elemType, len(s.Queries))
	for i, q := range s.Queries {
		types[i] = x.infer(q.Expr, nil)
	}
	k := x.plan()
	if k == nil {
		return nil, "outside-fragment"
	}
	for _, d := range prog.Defs {
		for _, b := range x.gen(d.Body, nil) {
			x.emit(d.Name, b)
		}
		k.addAnswer(d.Name, x.typeOf[d.Name])
		k.derived = append(k.derived, d.Name)
	}
	for i, q := range s.Queries {
		k.addAnswer(x.result(x.gen(q.Expr, nil)), types[i])
	}
	if x.outside {
		return nil, "outside-fragment"
	}
	k.derived = append(k.derived, x.fresh...)
	return k, ""
}

// fits says why the base's database does not hold what the program reads as
// the source does — "" when it does: every relation it names, with every
// element a tuple of the width the plan reads ("shape", read off the base's
// tables, whose rows it adds to use), and nothing under a predicate the
// program adds to ("stored-name": a def shadows what the database stores
// under its name, while rules would add to it).
func (k *kernelPlan) fits(base *rel.Base, use *rel.BaseUse) string {
	db := base.DB()
	for name, w := range k.stored {
		if _, ok := db[name]; !ok || !base.TuplesOf(name, w, use) {
			return "shape"
		}
	}
	if slices.ContainsFunc(k.derived, func(p string) bool { _, ok := db[p]; return ok }) {
		return "stored-name"
	}
	return ""
}

// run evaluates the program over the base, reporting the join work to obs when
// there is one — with the base rows fits converted (use) among what the
// request derived.
func (k *kernelPlan) run(base *rel.Base, use rel.BaseUse, opts Options, obs obsv.Collector) (*rel.Engine, error) {
	eng, err := rel.NewEngine(k.prog, rel.Config{Base: base, Limits: KernelLimits(opts), Observed: obs != nil})
	if err != nil {
		return nil, err
	}
	eng.Use.Rows += use.Rows
	if obs != nil {
		defer func() {
			st := obsv.RelStats{Engine: "algebra", Units: eng.UnitStats, Steps: eng.Steps, Probes: eng.Probes, Scans: eng.Scans, Rows: eng.NumRows()}
			fillBaseUse(&st, eng.Use)
			obs.Collect(st)
		}()
	}
	return eng, eng.Build()
}

// rows returns an answer's rows in the evaluated engine — its true rows, or
// with undef its undefined ones — back to back, in table order, when there
// are at most the budget's MaxSetSize of them.
func (a *answer) rows(eng *rel.Engine, undef bool, b algebra.Budget) ([]intern.ID, error) {
	var rows []intern.ID
	eng.EachMember(a.pred, undef, func(row []intern.ID) { rows = append(rows, row...) })
	if max := b.WithDefaults().MaxSetSize; len(rows) > max*a.width {
		return nil, fmt.Errorf("%w: the answer's %d elements exceed MaxSetSize %d", algebra.ErrBudget, len(rows)/a.width, max)
	}
	return rows, nil
}

// set converts an answer's rows in the evaluated engine (rows) to its set,
// polling the budget's interrupt as it builds the elements.
func (a *answer) set(eng *rel.Engine, undef bool, b algebra.Budget) (value.Set, error) {
	rows, err := a.rows(eng, undef, b)
	if err != nil {
		return value.Set{}, err
	}
	return a.toSet(rows, b.Stop)
}

// convertPoll is how many elements toSet builds, or appendText writes,
// between two calls of its poll, the kernel joins' interval.
const convertPoll = 1 << 12

// toSet converts the answer's rows, back to back, to the canonical set at
// once: ordered by rel.OrderRows — the value order of the elements they
// build is the order of their columns read left to right, the shape being
// every element's — and built in that order (build).
func (a *answer) toSet(ids []intern.ID, poll func() error) (value.Set, error) {
	return a.build(ids, rel.OrderRows(ids, a.width), poll)
}

// build makes the set of the answer's rows listed in order, which must be
// their value order, their tuples carved from one slab. Nothing is interned.
// It calls poll before the first element and after every convertPoll, and
// abandons the build with poll's error once that is non-nil.
func (a *answer) build(ids []intern.ID, order []int32, poll func() error) (value.Set, error) {
	if len(order) == 0 {
		return value.Set{}, nil
	}
	n, in := a.width, intern.Global()
	tuples, slots := a.shape.size()
	slab := value.NewTupleSlab(len(order)*tuples, len(order)*slots)
	elems := make([]value.Value, len(order))
	for i, o := range order {
		if i%convertPoll == 0 {
			if err := poll(); err != nil {
				return value.Set{}, err
			}
		}
		elems[i] = a.shape.build(ids[int(o)*n:], in, slab)
	}
	return value.SetFromSorted(elems), nil
}

// appendText appends the text of the set of the answer's rows listed in
// order, their value order, to buf — byte for byte build's set printed,
// without building a value. It polls as build does.
func (a *answer) appendText(buf []byte, ids []intern.ID, order []int32, poll func() error) ([]byte, error) {
	n, in := a.width, intern.Global()
	buf = slices.Grow(buf, 2+len(order)*(8*n+2))
	buf = append(buf, '{')
	for i, o := range order {
		if i%convertPoll == 0 {
			if err := poll(); err != nil {
				return buf, err
			}
		}
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = a.shape.appendText(buf, ids[int(o)*n:], in)
	}
	return append(buf, '}'), nil
}

// size counts the tuples an element of this shape is built of, and their
// components.
func (n *node) size() (tuples, slots int) {
	if n.kids != nil {
		tuples, slots = 1, len(n.kids)
	}
	for _, c := range n.kids {
		t, s := c.size()
		tuples, slots = tuples+t, slots+s
	}
	return tuples, slots
}

// build makes the element a row stands for.
func (n *node) build(row []intern.ID, in *intern.Interner, slab *value.TupleSlab) value.Value {
	if n.kids == nil {
		return in.Lookup(row[n.col])
	}
	var buf [8]value.Value
	parts := buf[:0]
	for _, c := range n.kids {
		parts = append(parts, c.build(row, in, slab))
	}
	return slab.Tuple(parts...)
}

// appendText appends the text of the element a row stands for.
func (n *node) appendText(buf []byte, row []intern.ID, in *intern.Interner) []byte {
	if n.kids == nil {
		return in.AppendText(buf, row[n.col])
	}
	buf = append(buf, '(')
	for i, c := range n.kids {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = c.appendText(buf, row, in)
	}
	return append(buf, ')')
}

// planExpr decides at compile time where an expression runs. A point plan —
// no fixpoint, and a leaf selected by `=` a constant — stays with the value
// evaluator, whose access paths answer it by probing sorted sets, and no rule
// is compiled for it; so does anything outside the fragment.
func planExpr(e algebra.Expr) (*kernelPlan, string) {
	var s survey
	s.expr(e, false)
	switch {
	case !s.ifp && s.byConst:
		return nil, "point"
	case !s.outside && !s.diff:
		if k := compileKernel(e); k != nil {
			return k, ""
		}
	}
	return nil, "outside-fragment"
}

// survey is what planExpr and compileScript learn of an expression in one walk
// that builds nothing, so that a point plan, or one plainly outside the
// fragment, costs its compilation no more than that: whether it has a
// fixpoint, whether a λ-body compares something with a constant by `=`,
// whether it has a diff, one inside a subtrahend, a flip, or another operator
// or λ-body outside the fragment. The compilers decide the rest.
type survey struct{ ifp, byConst, diff, subtrahend, flip, outside bool }

// expr walks e; sub says e is inside a subtrahend.
func (s *survey) expr(e algebra.Expr, sub bool) {
	switch ee := e.(type) {
	case algebra.Rel, algebra.Lit:
	case algebra.Union:
		s.expr(ee.L, sub)
		s.expr(ee.R, sub)
	case algebra.Diff:
		s.diff, s.subtrahend = true, s.subtrahend || sub
		s.expr(ee.L, sub)
		s.expr(ee.R, true)
	case algebra.Product:
		s.expr(ee.L, sub)
		s.expr(ee.R, sub)
	case algebra.Select:
		s.expr(ee.Of, sub)
		s.fn(ee.Test)
	case algebra.Map:
		s.expr(ee.Of, sub)
		s.fn(ee.Out)
	case algebra.IFP:
		s.ifp = true
		s.expr(ee.Body, sub)
	case algebra.Flip:
		s.flip, s.outside = true, true
	default: // call
		s.outside = true
	}
}

func (s *survey) fn(f algebra.FExpr) {
	switch ff := f.(type) {
	case algebra.FAnd:
		s.fn(ff.L)
		s.fn(ff.R)
	case algebra.FCmp:
		_, l := ff.L.(algebra.FConst)
		_, r := ff.R.(algebra.FConst)
		s.byConst = s.byConst || ff.Op == algebra.OpEq && l != r
		s.outside = s.outside || ff.Op != algebra.OpEq
		s.fn(ff.L)
		s.fn(ff.R)
	case algebra.FTuple:
		for _, el := range ff.Elems {
			s.fn(el)
		}
	case algebra.FArith, algebra.FOr, algebra.FNot:
		s.outside = true
	}
}

// route says why the plan's kernel program does not answer it over the base
// — "" when it does: Compile found the source outside the fragment (a plan
// built by hand is not compiled), or the base's database does not fit the
// program (fits, which adds the rows it converts to use).
func route(plan *Plan, base *rel.Base, use *rel.BaseUse) string {
	if plan.kernel == nil {
		return cmp.Or(plan.fallback, "outside-fragment")
	}
	return plan.kernel.fits(base, use)
}

// report tells the process-default collector, when there is one, which engine
// answers — the kernel, or else the one named — and why, and returns it.
func report(engine, reason string) obsv.Collector {
	obs := obsv.Default()
	if obs != nil {
		if reason == "" {
			engine = "kernel"
		}
		obs.Collect(obsv.AlgebraStats{Engine: engine, Fallback: reason})
	}
	return obs
}

// executeAlgebra evaluates an expression on the kernel when the plan compiled
// for it and the database fits, on the value evaluator otherwise. A kernel
// answer stays rows, in their value order.
func executeAlgebra(plan *Plan, db algebra.DB, base *rel.Base, opts Options) (*exprAnswer, error) {
	if base == nil {
		base = rel.NewBase(db)
	}
	var use rel.BaseUse
	reason := route(plan, base, &use)
	obs := report("value", reason)
	if reason != "" {
		set, err := algebra.NewEvaluator(db, opts.Budget).Eval(plan.Expr)
		return &exprAnswer{set: set}, err
	}
	eng, err := plan.kernel.run(base, use, opts, obs)
	if err != nil {
		return nil, err
	}
	a := &plan.kernel.answers[0]
	ids, err := a.rows(eng, false, opts.Budget)
	if err != nil {
		return nil, err
	}
	return &exprAnswer{kernel: a, ids: ids, order: rel.OrderRows(ids, a.width)}, nil
}

// executeValidKernel evaluates an algebra= script that route sent to the
// kernel under the valid semantics over the base of its database: a def's or
// query's certain elements are its true rows, its undefined ones the rows
// possible but not true.
func executeValidKernel(plan *Plan, base *rel.Base, use rel.BaseUse, opts Options, obs obsv.Collector, out *Outcome) (*Outcome, error) {
	eng, err := plan.kernel.run(base, use, opts, obs)
	if err != nil {
		return nil, err
	}
	defs := len(plan.kernel.answers) - len(plan.Script.Queries)
	for i := range plan.kernel.answers {
		a := &plan.kernel.answers[i]
		set, err := a.set(eng, false, opts.Budget)
		if err != nil {
			return nil, err
		}
		undef, err := a.set(eng, true, opts.Budget)
		if err != nil {
			return nil, err
		}
		if i < defs {
			out.WellDefined = out.WellDefined && undef.IsEmpty()
			out.Defs = append(out.Defs, NamedSet{Name: a.pred, Set: set, Undef: undef})
		} else {
			out.Queries = append(out.Queries, QueryAnswer{Src: plan.Script.Queries[i-defs].Src, Set: set, Undef: undef})
		}
	}
	return out, nil
}
