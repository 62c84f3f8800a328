package diffcheck

import (
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/randgen"
	"algrec/internal/value"
)

// Shrink greedily minimizes a diverging instance: it repeatedly tries
// one-step reductions (replace an expression node by a child or by EMPTY,
// drop a database element, drop a definition, drop a rule or body literal,
// drop a schedule batch or fact)
// and keeps any strictly smaller candidate that still diverges. The result
// still fails Check; instances that do not diverge are returned unchanged.
//
// Candidates with dangling relation names or unsafe rules are filtered
// before Check (see candidates); remaining uninteresting breakage
// self-filters because both pipelines reject it, which Check reports as
// agreement.
func (in *Instance) Shrink() *Instance {
	cur := in
	if _, diverging := IsDivergence(cur.Check()); !diverging {
		return cur
	}
	for {
		improved := false
		for _, cand := range cur.candidates() {
			if cand.Size() >= cur.Size() {
				continue
			}
			if _, diverging := IsDivergence(cand.Check()); diverging {
				cur, improved = cand, true
				break
			}
		}
		if !improved {
			return cur
		}
	}
}

// candidates returns every one-step reduction of the instance. Reductions
// that leave a relation name dangling are dropped by closed: stripping an
// IFP binder or a defining equation can free its variable, and the engines
// disagree only on how they reject such programs (core errors on the
// unknown relation, the deductive translation reads it as empty), which
// would surface as a bogus divergence rather than a smaller witness.
func (in *Instance) candidates() []*Instance {
	var out []*Instance
	add := func(c *Instance) {
		if c.closed() {
			out = append(out, c)
		}
	}
	switch {
	case in.Expr != nil:
		for _, e := range exprCandidates(in.Expr) {
			add(&Instance{Oracle: in.Oracle, Expr: e, DB: in.DB})
		}
		for _, db := range dbCandidates(in.DB) {
			add(&Instance{Oracle: in.Oracle, Expr: in.Expr, DB: db})
		}
	case in.Core != nil:
		for _, p := range coreCandidates(in.Core) {
			add(&Instance{Oracle: in.Oracle, Core: p, DB: in.DB})
		}
		for _, db := range dbCandidates(in.DB) {
			add(&Instance{Oracle: in.Oracle, Core: in.Core, DB: db})
		}
	default:
		for _, p := range dlogCandidates(in.Dlog) {
			add(&Instance{Oracle: in.Oracle, Dlog: p, Sched: in.Sched, DB: in.DB})
		}
		for _, s := range schedCandidates(in.Sched) {
			add(&Instance{Oracle: in.Oracle, Dlog: in.Dlog, Sched: s})
		}
		for _, db := range dbCandidates(in.DB) {
			add(&Instance{Oracle: in.Oracle, Dlog: in.Dlog, DB: db})
		}
	}
	return out
}

// schedCandidates returns every one-step reduction of a mutation schedule:
// drop one whole batch, or drop one inserted or deleted fact from a batch.
func schedCandidates(sched []randgen.FactBatch) [][]randgen.FactBatch {
	var out [][]randgen.FactBatch
	clone := func() []randgen.FactBatch {
		c := make([]randgen.FactBatch, len(sched))
		copy(c, sched)
		return c
	}
	for i := range sched {
		c := clone()
		out = append(out, append(c[:i:i], c[i+1:]...))
	}
	dropFact := func(fs []datalog.Fact, j int) []datalog.Fact {
		c := make([]datalog.Fact, 0, len(fs)-1)
		c = append(c, fs[:j]...)
		return append(c, fs[j+1:]...)
	}
	for i, b := range sched {
		for j := range b.Insert {
			c := clone()
			c[i].Insert = dropFact(b.Insert, j)
			out = append(out, c)
		}
		for j := range b.Delete {
			c := clone()
			c[i].Delete = dropFact(b.Delete, j)
			out = append(out, c)
		}
	}
	return out
}

// closed reports whether every free relation name of the instance resolves:
// to a database relation, a defined equation, or (inside a definition body)
// one of the definition's own parameters.
func (in *Instance) closed() bool {
	known := map[string]bool{}
	for n := range in.DB {
		known[n] = true
	}
	switch {
	case in.Expr != nil:
		for _, r := range algebra.FreeRels(in.Expr) {
			if !known[r] {
				return false
			}
		}
	case in.Core != nil:
		for _, d := range in.Core.Defs {
			known[d.Name] = true
		}
		for _, d := range in.Core.Defs {
			params := map[string]bool{}
			for _, p := range d.Params {
				params[p] = true
			}
			for _, r := range algebra.FreeRels(d.Body) {
				if !known[r] && !params[r] {
					return false
				}
			}
		}
	}
	return true
}

// countNodes counts the set-valued nodes of an expression; literal sets
// additionally count their elements, so replacing a literal by EMPTY is a
// strict reduction.
func countNodes(e algebra.Expr) int {
	if l, ok := e.(algebra.Lit); ok {
		return 1 + l.Set.Len()
	}
	n := 1
	for _, k := range algebra.Children(e) {
		n += countNodes(k)
	}
	return n
}

// exprCandidates returns all one-step reductions of an expression: the node
// itself replaced by one of its children or by EMPTY, or the same reduction
// applied at any subexpression.
func exprCandidates(e algebra.Expr) []algebra.Expr {
	kids := algebra.Children(e)
	out := append([]algebra.Expr{}, kids...)
	if l, isLit := e.(algebra.Lit); !isLit || l.Set.Len() > 0 {
		out = append(out, algebra.EmptyLit)
	}
	for i, k := range kids {
		for _, kc := range exprCandidates(k) {
			nk := append([]algebra.Expr{}, kids...)
			nk[i] = kc
			out = append(out, algebra.WithChildren(e, nk))
		}
	}
	return out
}

// dbCandidates returns copies of the database with one element removed, in
// sorted relation order.
func dbCandidates(db algebra.DB) []algebra.DB {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []algebra.DB
	for _, n := range names {
		for _, el := range db[n].Elems() {
			nd := algebra.DB{}
			for k, s := range db {
				nd[k] = s
			}
			nd[n] = db[n].Diff(value.NewSet(el))
			out = append(out, nd)
		}
	}
	return out
}

// coreCandidates returns one-step reductions of an algebra= program: a
// definition dropped, or one definition body reduced.
func coreCandidates(p *core.Program) []*core.Program {
	var out []*core.Program
	for i := range p.Defs {
		q := &core.Program{Defs: append(append([]core.Def{}, p.Defs[:i]...), p.Defs[i+1:]...)}
		out = append(out, q)
	}
	for i, d := range p.Defs {
		for _, bc := range exprCandidates(d.Body) {
			defs := append([]core.Def{}, p.Defs...)
			defs[i] = core.Def{Name: d.Name, Params: d.Params, Body: bc}
			out = append(out, &core.Program{Defs: defs})
		}
	}
	return out
}

// dlogCandidates returns one-step reductions of a deductive program: a rule
// (or fact) dropped, or one body literal dropped. Candidates that violate
// Definition 4.1 safety are filtered here so every oracle sees well-formed
// programs.
func dlogCandidates(p *datalog.Program) []*datalog.Program {
	var out []*datalog.Program
	add := func(q *datalog.Program) {
		if datalog.CheckProgramSafe(q) == nil {
			out = append(out, q)
		}
	}
	for i := range p.Rules {
		add(&datalog.Program{Rules: append(append([]datalog.Rule{}, p.Rules[:i]...), p.Rules[i+1:]...)})
	}
	for i, r := range p.Rules {
		for j := range r.Body {
			body := append(append([]datalog.Literal{}, r.Body[:j]...), r.Body[j+1:]...)
			rules := append([]datalog.Rule{}, p.Rules...)
			rules[i] = datalog.Rule{Head: r.Head, Body: body}
			add(&datalog.Program{Rules: rules})
		}
	}
	return out
}
