package randgen

import (
	"fmt"
	"strconv"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/builtin"
	"algrec/internal/core"
	"algrec/internal/value"
)

// shape is the element type of a set-valued expression: plain integers or
// pairs of integers. Tracking it during generation is what makes the output
// well-kinded — σ tests and MAP bodies only project fields that exist and
// only do arithmetic on integers.
type shape uint8

const (
	shInt shape = iota
	shPair
)

// scopeEntry is one named set visible to an expression: a database relation,
// a defined constant, or an enclosing IFP variable, with its element shape.
type scopeEntry struct {
	name string
	sh   shape
}

// ExprInstance is a generated database plus an expression over it.
type ExprInstance struct {
	DB   algebra.DB
	Expr algebra.Expr
}

// CoreInstance is a generated database plus an algebra= program over it.
type CoreInstance struct {
	DB   algebra.DB
	Prog *core.Program
}

// exprGen holds the per-instance generation state: the active integer domain
// [0, n) and a counter for fresh IFP variable names.
type exprGen struct {
	g    *Gen
	n    int // integer constants range over [0, n)
	vars int
}

func (x *exprGen) fresh() string {
	x.vars++
	return "v" + strconv.Itoa(x.vars)
}

// randInt returns a random integer value in the active domain.
func (x *exprGen) randInt() value.Value { return value.Int(int64(x.g.intn(x.n))) }

// randElem returns a random element of the given shape.
func (x *exprGen) randElem(sh shape) value.Value {
	if sh == shPair {
		return value.Pair(x.randInt(), x.randInt())
	}
	return x.randInt()
}

// randSet returns a random set of elements of the given shape, possibly
// empty (empty relations are a prime source of edge cases).
func (x *exprGen) randSet(sh shape) value.Set {
	k := x.g.intn(2 * x.g.cfg.Size)
	b := value.NewSetBuilder(k)
	for i := 0; i < k; i++ {
		b.Add(x.randElem(sh))
	}
	return b.Set()
}

// db generates a database of two integer-shaped and two pair-shaped
// relations, returning it with the matching scope.
func (x *exprGen) db() (algebra.DB, []scopeEntry) {
	db := algebra.DB{}
	var scope []scopeEntry
	for _, e := range []scopeEntry{{"a", shInt}, {"b", shInt}, {"e", shPair}, {"f", shPair}} {
		db[e.name] = x.randSet(e.sh)
		scope = append(scope, e)
	}
	return db, scope
}

// leaf emits a depth-0 expression: a scoped relation of the wanted shape
// when one exists (usually), otherwise a literal set.
func (x *exprGen) leaf(sh shape, scope []scopeEntry) algebra.Expr {
	var names []string
	for _, e := range scope {
		if e.sh == sh {
			names = append(names, e.name)
		}
	}
	if len(names) > 0 && !x.g.chance(4) {
		return algebra.Rel{Name: names[x.g.intn(len(names))]}
	}
	return algebra.Lit{Set: x.randSet(sh)}
}

// test generates a selection test over an element variable of the shape.
func (x *exprGen) test(sh shape, v string, depth int) algebra.FExpr {
	elem := func() algebra.FExpr {
		if sh == shPair {
			return algebra.FField{Of: algebra.FVar{Name: v}, Idx: 1 + x.g.intn(2)}
		}
		return algebra.FVar{Name: v}
	}
	atom := func() algebra.FExpr {
		op := builtin.Cmp(x.g.intn(6))
		switch x.g.intn(3) {
		case 0: // compare against a constant
			return algebra.FCmp{Op: op, L: elem(), R: algebra.FConst{V: x.randInt()}}
		case 1: // parity test: elem % 2 = 0
			return algebra.FCmp{Op: builtin.Eq,
				L: algebra.FArith{Op: builtin.Mod, L: elem(), R: algebra.FConst{V: value.Int(2)}},
				R: algebra.FConst{V: value.Int(0)}}
		default: // compare two projections (or the variable against itself)
			return algebra.FCmp{Op: op, L: elem(), R: elem()}
		}
	}
	if depth <= 0 || !x.g.chance(3) {
		return atom()
	}
	l, r := x.test(sh, v, depth-1), x.test(sh, v, depth-1)
	switch x.g.intn(3) {
	case 0:
		return algebra.FAnd{L: l, R: r}
	case 1:
		return algebra.FOr{L: l, R: r}
	default:
		return algebra.FNot{E: l}
	}
}

// out generates a MAP body restructuring an element of shape from into an
// element of shape to. All arithmetic is reduced mod a small constant, so
// mapped sets stay inside a finite domain and fixpoints converge.
func (x *exprGen) out(from, to shape, v string) algebra.FExpr {
	c := algebra.FConst{V: value.Int(int64(1 + x.g.intn(x.n)))}
	modc := func(e algebra.FExpr) algebra.FExpr {
		return algebra.FArith{Op: builtin.Mod, L: e, R: algebra.FConst{V: value.Int(int64(x.n))}}
	}
	var fst, snd algebra.FExpr
	if from == shPair {
		fst = algebra.FField{Of: algebra.FVar{Name: v}, Idx: 1}
		snd = algebra.FField{Of: algebra.FVar{Name: v}, Idx: 2}
	} else {
		fst, snd = algebra.FVar{Name: v}, algebra.FVar{Name: v}
	}
	comp := func() algebra.FExpr {
		switch x.g.intn(4) {
		case 0:
			return fst
		case 1:
			return snd
		case 2:
			return modc(algebra.FArith{Op: builtin.Plus, L: fst, R: c})
		default:
			return modc(algebra.FArith{Op: builtin.Plus, L: fst, R: snd})
		}
	}
	if to == shPair {
		return algebra.FTuple{Elems: []algebra.FExpr{comp(), comp()}}
	}
	return comp()
}

// expr generates an expression of the given shape with the given remaining
// depth over the scope.
func (x *exprGen) expr(sh shape, depth int, scope []scopeEntry) algebra.Expr {
	if depth <= 0 || x.g.chance(6) {
		return x.leaf(sh, scope)
	}
	// Operator weights: binary set operators and σ dominate; × only builds
	// pairs; IFP appears often enough to exercise every fixpoint path.
	for {
		switch x.g.intn(9) {
		case 0:
			return algebra.Union{L: x.expr(sh, depth-1, scope), R: x.expr(sh, depth-1, scope)}
		case 1:
			return algebra.Diff{L: x.expr(sh, depth-1, scope), R: x.expr(sh, depth-1, scope)}
		case 2:
			if sh != shPair {
				continue
			}
			if x.g.chance(2) {
				return x.joinPipeline(depth-1, scope)
			}
			return algebra.Product{L: x.expr(shInt, depth-1, scope), R: x.expr(shInt, depth-1, scope)}
		case 3:
			v := x.fresh()
			return algebra.Select{Of: x.expr(sh, depth-1, scope), Var: v, Test: x.test(sh, v, 1)}
		case 4:
			from := shape(x.g.intn(2))
			v := x.fresh()
			return algebra.Map{Of: x.expr(from, depth-1, scope), Var: v, Out: x.out(from, sh, v)}
		case 5:
			v := x.fresh()
			inner := append(append([]scopeEntry{}, scope...), scopeEntry{v, sh})
			return algebra.IFP{Var: v, Body: x.expr(sh, depth-1, inner)}
		case 6, 7:
			if sh != shPair {
				continue
			}
			if x.g.chance(2) {
				return x.pointJoin(depth-1, scope)
			}
			return x.pointSelect(depth-1, scope, false)
		default:
			return x.leaf(sh, scope)
		}
	}
}

// conj folds atoms into a left-nested conjunction.
func conj(atoms []algebra.FExpr) algebra.FExpr {
	t := atoms[0]
	for _, a := range atoms[1:] {
		t = algebra.FAnd{L: t, R: a}
	}
	return t
}

// misfit returns an element that is not a pair, for planting in the operand
// of a root point select: a scalar (a string — nothing else generates one,
// so tests can tell a planted misfit from an integer literal), the empty
// tuple or a set — .1 applies to none of them — or a 1-tuple, on which only
// .2 fails, and only where the test gets that far.
func (x *exprGen) misfit() value.Value {
	switch x.g.intn(4) {
	case 0:
		return value.String("misfit")
	case 1:
		return value.NewTuple()
	case 2:
		return value.NewSet(x.randInt())
	default:
		return value.NewTuple(x.randInt())
	}
}

// pointAtom emits a conjunct fixing a component of the projection to
// constants: field = c, c = field, or field in {literal set}.
func (x *exprGen) pointAtom(field algebra.FExpr) algebra.FExpr {
	c := algebra.FConst{V: x.randInt()}
	switch x.g.intn(3) {
	case 0:
		return algebra.FCmp{Op: builtin.Eq, L: field, R: c}
	case 1:
		return algebra.FCmp{Op: builtin.Eq, L: c, R: field}
	default:
		return algebra.FMem{Elem: field, Set: algebra.FConst{V: x.randSet(shInt)}}
	}
}

// pointSelect emits the access-path shape: σ over a pair-shaped operand
// whose test is one to three conjuncts, each fixing .1 or .2 to constants or
// (one in four) being an ordinary atom — so a test may start with a
// probe-able run on .1 (the first conjunct leans that way), continue it on
// .2, start on .2 (no probe), or bury the constant behind another conjunct.
// With misfit set, one operand in three also holds an element that is not a
// pair: whether a projection applies to every element is exactly what
// decides if the selection may be answered from the sorted order, and the
// evaluator pairs must fail alike when it does not. The result shape is
// shPair.
func (x *exprGen) pointSelect(depth int, scope []scopeEntry, misfit bool) algebra.Expr {
	v := x.fresh()
	atoms := make([]algebra.FExpr, 1+x.g.intn(3))
	for i := range atoms {
		if x.g.chance(4) {
			atoms[i] = x.test(shPair, v, 0)
			continue
		}
		field := 1 + x.g.intn(2)
		if i == 0 && x.g.chance(2) {
			field = 1
		}
		atoms[i] = x.pointAtom(algebra.FField{Of: algebra.FVar{Name: v}, Idx: field})
	}
	of := x.expr(shPair, depth, scope)
	if misfit && x.g.chance(3) {
		of = algebra.Union{L: of, R: algebra.Lit{Set: value.NewSet(x.misfit())}}
	}
	return algebra.Select{Of: of, Var: v, Test: conj(atoms)}
}

// pointJoin emits the two-hop shape: σ over a product of two pair-shaped
// leaves — the left one usually a pointSelect — joined on components of the
// right leaf (.1, .2 or both, so the step can read the right leaf's sorted
// order), sometimes with a constant conjunct on either leaf for the planner
// to push, then MAP back onto a pair.
func (x *exprGen) pointJoin(depth int, scope []scopeEntry) algebra.Expr {
	v := x.fresh()
	path := func(side, field int) algebra.FExpr {
		return algebra.FField{Of: algebra.FField{Of: algebra.FVar{Name: v}, Idx: side}, Idx: field}
	}
	var atoms []algebra.FExpr
	switch x.g.intn(4) {
	case 0:
		atoms = append(atoms, algebra.FCmp{Op: builtin.Eq, L: path(1, 1), R: path(2, 2)})
	case 1:
		atoms = append(atoms,
			algebra.FCmp{Op: builtin.Eq, L: path(1, 1), R: path(2, 1)},
			algebra.FCmp{Op: builtin.Eq, L: path(2, 2), R: path(1, 2)})
	default:
		atoms = append(atoms, algebra.FCmp{Op: builtin.Eq, L: path(1, 2), R: path(2, 1)})
	}
	if x.g.chance(2) {
		a := x.pointAtom(path(1+x.g.intn(2), 1+x.g.intn(2)))
		if x.g.chance(2) {
			atoms = append([]algebra.FExpr{a}, atoms...)
		} else {
			atoms = append(atoms, a)
		}
	}
	left := x.expr(shPair, depth-1, scope)
	if !x.g.chance(3) {
		left = x.pointSelect(depth-1, scope, false)
	}
	sel := algebra.Select{
		Of:   algebra.Product{L: left, R: x.expr(shPair, depth-1, scope)},
		Var:  v,
		Test: conj(atoms),
	}
	w := x.fresh()
	return algebra.Map{Of: sel, Var: w, Out: algebra.FTuple{Elems: []algebra.FExpr{
		algebra.FField{Of: algebra.FField{Of: algebra.FVar{Name: w}, Idx: 1}, Idx: 1},
		algebra.FField{Of: algebra.FField{Of: algebra.FVar{Name: w}, Idx: 2}, Idx: 2},
	}}}
}

// joinPipeline emits the join planner's target shape — σ over a
// (possibly nested) product of integer-shaped leaves — with a test mixing
// cross-leaf equalities (join edges), single-leaf conjuncts (pushdown
// candidates), and constant comparisons, so the differential oracles
// exercise multi-leaf plans, not just whatever σ(×) falls out of the
// generic recursion. Every projection path is integer-typed, so the test
// never errors and the planned join and the reference stay comparable
// beyond budget boundaries. The result shape is shPair.
func (x *exprGen) joinPipeline(depth int, scope []scopeEntry) algebra.Expr {
	v := x.fresh()
	path := func(idx ...int) algebra.FExpr {
		var e algebra.FExpr = algebra.FVar{Name: v}
		for _, i := range idx {
			e = algebra.FField{Of: e, Idx: i}
		}
		return e
	}
	atom := func(e algebra.FExpr) algebra.FExpr {
		if x.g.chance(2) {
			return algebra.FCmp{Op: builtin.Cmp(x.g.intn(6)), L: e, R: algebra.FConst{V: x.randInt()}}
		}
		return algebra.FCmp{Op: builtin.Eq,
			L: algebra.FArith{Op: builtin.Mod, L: e, R: algebra.FConst{V: value.Int(2)}},
			R: algebra.FConst{V: value.Int(0)}}
	}
	leaf := func() algebra.Expr { return x.expr(shInt, depth-1, scope) }
	if depth >= 1 && x.g.chance(3) {
		// Three leaves: σ over a nested product, then MAP projects the
		// triple back onto a pair of integers so the result is well-kinded.
		atoms := []algebra.FExpr{algebra.FCmp{Op: builtin.Eq, L: path(1, 2), R: path(2)}}
		if x.g.chance(2) {
			atoms = append(atoms, algebra.FCmp{Op: builtin.Eq, L: path(1, 1), R: path(2)})
		}
		for _, pp := range [][]int{{1, 1}, {1, 2}, {2}} {
			if x.g.chance(2) {
				atoms = append(atoms, atom(path(pp...)))
			}
		}
		sel := algebra.Select{
			Of:   algebra.Product{L: algebra.Product{L: leaf(), R: leaf()}, R: leaf()},
			Var:  v,
			Test: conj(atoms),
		}
		w := x.fresh()
		return algebra.Map{Of: sel, Var: w, Out: algebra.FTuple{Elems: []algebra.FExpr{
			algebra.FField{Of: algebra.FField{Of: algebra.FVar{Name: w}, Idx: 1}, Idx: 1},
			algebra.FField{Of: algebra.FVar{Name: w}, Idx: 2},
		}}}
	}
	var atoms []algebra.FExpr
	if x.g.chance(4) {
		atoms = append(atoms, algebra.FCmp{Op: builtin.Le, L: path(1), R: path(2)})
	} else {
		atoms = append(atoms, algebra.FCmp{Op: builtin.Eq, L: path(1), R: path(2)})
	}
	for _, pp := range [][]int{{1}, {2}} {
		if x.g.chance(2) {
			atoms = append(atoms, atom(path(pp...)))
		}
	}
	return algebra.Select{Of: algebra.Product{L: leaf(), R: leaf()}, Var: v, Test: conj(atoms)}
}

// newExprGen starts per-instance state: the integer domain scales with the
// size budget.
func (g *Gen) newExprGen() *exprGen {
	return &exprGen{g: g, n: 2 + g.intn(1+g.cfg.Size)}
}

// depth returns the expression depth budget for the configured size.
func (g *Gen) depth() int { return 2 + g.cfg.Size/2 }

// ExprInstance generates a database and an expression over it, of a random
// element shape. Expressions may contain IFP (including non-positive bodies —
// IFP is inflationary regardless) but no Call and no Flip. They are
// well-kinded with one exception: a quarter of the instances are rooted at a
// point shape, so the access paths are reached on every such draw rather
// than only where the generic recursion happens to emit one, and a root
// point select may hold a misfit in its operand — at the root only, where no
// operator above can see the ill-kinded element: the oracles of this family
// pair two evaluators, which must fail alike, while join pipelines promise
// equal results on error-free evaluations only, and the families that feed
// translation oracles must stay well-kinded altogether (deduction drops a
// non-matching element where the algebra raises a kind error).
func (g *Gen) ExprInstance() *ExprInstance {
	x := g.newExprGen()
	db, scope := x.db()
	sh := shape(g.intn(2))
	switch {
	case sh != shPair || g.chance(2):
		return &ExprInstance{DB: db, Expr: x.expr(sh, g.depth(), scope)}
	case g.chance(2):
		return &ExprInstance{DB: db, Expr: x.pointJoin(g.depth()-1, scope)}
	default:
		return &ExprInstance{DB: db, Expr: x.pointSelect(g.depth()-1, scope, true)}
	}
}

// SubtractProduct extends an ExprInstance's draw stream by one decision, taken
// after the instance is complete — so no instance drawn before it moves and
// the pinned goldens stand, the way FactSchedule extends a program's. One time
// in eight the expression e becomes diff(e, s) for a subtrahend s whose ∪/×
// spine reaches a product of the database's integer relations: the shape that
// decides how a difference is evaluated (the algebra's evaluator probes such a spine
// instead of building it), which the generic recursion emits in under half a
// percent of instances. e stays the minuend, evaluated whole, so whatever the
// instance exercised before, it still does.
func (g *Gen) SubtractProduct(ei *ExprInstance) {
	if !g.chance(8) {
		return
	}
	a, b := algebra.Rel{Name: "a"}, algebra.Rel{Name: "b"}
	var sub algebra.Expr = algebra.Product{L: a, R: b}
	switch g.intn(4) {
	case 0: // an integer-shaped minuend loses something too
		sub = algebra.Union{L: sub, R: a}
	case 1:
		sub = algebra.Union{L: algebra.Product{L: b, R: b}, R: sub}
	case 2: // a factor that is itself a difference
		sub = algebra.Product{L: algebra.Diff{L: a, R: b}, R: algebra.Union{L: a, R: b}}
	}
	ei.Expr = algebra.Diff{L: ei.Expr, R: sub}
}

// flatJoins are FlatJoin's shapes: %[1]s and %[2]s are pair relations, %[3]s
// and %[4]s literal sets of pairs with a set-valued second and first
// component.
var flatJoins = []string{
	`map(select(product(%[1]s, %[2]s), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`,
	`select(product(product(%[1]s, %[2]s), %[1]s), \p -> p.1.1.2 = p.1.2.1 and p.1.2.2 = p.2.1 and p.2.2 = p.1.1.1)`,
	`ifp(s, union(%[1]s, map(select(product(s, %[2]s), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`,
	`union(map(select(product(%[1]s, %[2]s), \p -> p.1.1 = p.2.2), \p -> (p.2.1, p.1.2)), map(select(product(%[2]s, %[1]s), \p -> p.1.2 = p.2.1 and p.2.2 in {0, 1}), \p -> p.2))`,
	`map(select(product(%[1]s, product(%[3]s, %[4]s)), \p -> p.1.1 = p.2.1.1 and p.2.1.2 = p.2.2.1), \p -> (p.1.2, p.2.1.2, p.2.2.2))`,
}

// FlatJoin extends an ExprInstance's draw stream by one more decision, taken
// after SubtractProduct's and in the same way, so no instance drawn before it
// moves. One time in eight the expression is replaced by a flat join over the
// database — the fragment query.Execute evaluates on the relational rule
// kernel, which the generic recursion reaches in under a tenth of instances:
// an equi-join mapped back to pairs, a three-way join of nested shape, a
// distributive closure, a union of joins, or a join on the set-valued
// components of two literals. One such join in four also finds a triple
// planted among the pairs of the relation it reads first: a heterogeneous
// leaf, which sends it back to the value evaluator — a triple, not a scalar,
// because the projections apply to it, so no evaluator errs (the planned and
// materialized joins agree on error-free evaluations only).
func (g *Gen) FlatJoin(ei *ExprInstance) {
	if !g.chance(8) {
		return
	}
	l, r := string(rune('e'+g.intn(2))), string(rune('e'+g.intn(2)))
	var lits [2]value.Set
	for i := range lits {
		b := value.NewSetBuilder(3)
		for range 3 {
			key, v := value.NewSet(value.Int(int64(g.intn(3))), value.Int(int64(g.intn(3)))), value.Int(int64(g.intn(4)))
			if i == 0 {
				b.Add(value.Pair(v, key))
			} else {
				b.Add(value.Pair(key, v))
			}
		}
		lits[i] = b.Set()
	}
	e, err := parse.ParseExpr(fmt.Sprintf(flatJoins[g.intn(len(flatJoins))], l, r, lits[0], lits[1]))
	if err != nil {
		panic(err)
	}
	ei.Expr = e
	if g.chance(4) {
		ei.DB[l] = ei.DB[l].Insert(value.NewTuple(value.Int(int64(g.intn(4))), value.Int(int64(g.intn(4))), value.Int(int64(g.intn(4)))))
	}
}

// flatCores are FlatCore's programs over the pair relations e and f: Example
// 3's WIN, a closure, a def negating a lower one, two games negating each
// other, an IFP inside a negative cycle, and a subtrahend that is a union.
var flatCores = []string{
	`def s0 = map(diff(e, product(map(e, \x -> x.1), s0)), \x -> x.1);`,
	`def s0 = union(e, map(select(product(s0, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)));`,
	`def s0 = union(e, map(select(product(s0, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))); def s1 = diff(f, s0);`,
	`def s0 = map(diff(e, product(map(e, \x -> x.1), s1)), \x -> x.1); def s1 = map(diff(union(f, {(0, 1), (1, 0)}), product(map(f, \x -> x.1), s0)), \x -> x.1);`,
	`def s0 = diff(map(select(product(e, f), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)), s1); def s1 = ifp(v, union(f, map(select(product(v, s0), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))));`,
	`def s0 = map(diff(e, union(product(map(f, \x -> x.1), s0), f)), \x -> x.2);`,
}

// FlatCore extends a CoreInstance's draw stream by one decision, taken after
// the instance is complete, as FlatJoin extends an ExprInstance's. One time
// in three the program is replaced by one in the flat fragment that
// query.Execute evaluates on the relational rule kernel under the valid
// semantics, which the generic recursion — integer relations, arithmetic,
// order comparisons — reaches in about a tenth of instances, and with little
// negation through recursion.
func (g *Gen) FlatCore(ci *CoreInstance) {
	if !g.chance(3) {
		return
	}
	s, err := parse.ParseScript(flatCores[g.intn(len(flatCores))])
	if err != nil {
		panic(err)
	}
	ci.Prog = s.Program
}

// IFPExprInstance generates a database and an expression guaranteed to
// contain at least one IFP operator: the top level is an IFP whose body is
// generated normally. This is the instance family for the Theorem 3.5
// elimination oracle, where the IFP operator is the whole point.
func (g *Gen) IFPExprInstance() *ExprInstance {
	x := g.newExprGen()
	db, scope := x.db()
	sh := shape(g.intn(2))
	v := x.fresh()
	inner := append(append([]scopeEntry{}, scope...), scopeEntry{v, sh})
	e := algebra.IFP{Var: v, Body: x.expr(sh, g.depth()-1, inner)}
	return &ExprInstance{DB: db, Expr: e}
}

// CoreInstance generates a database and an algebra= program over it: a block
// of mutually recursive 0-ary defined constants (with positive and negative
// cross-references — subtraction of a defined constant is what makes the
// valid semantics interesting), plus occasionally a parameterized macro
// definition called from a constant body, exercising Inline. With allowFlip,
// leaf references are occasionally wrapped in the Flip polarity annotation,
// which keeps a program on internal/core and makes Γ's round order visible;
// pass false for
// oracles that translate the program (translation reads Flip as identity, so
// annotated programs are not comparable across that boundary).
func (g *Gen) CoreInstance(allowFlip bool) *CoreInstance {
	x := g.newExprGen()
	db, scope := x.db()
	k := 1 + g.intn(1+g.cfg.Size/2)
	defs := make([]scopeEntry, k)
	for i := range defs {
		defs[i] = scopeEntry{"s" + strconv.Itoa(i), shape(g.intn(2))}
	}
	full := append(append([]scopeEntry{}, scope...), defs...)

	prog := &core.Program{}
	var macro *core.Def
	if g.cfg.Size >= 2 && g.chance(3) {
		// A non-recursive unary macro over its parameter and the database.
		body := algebra.Union{L: algebra.Rel{Name: "par"}, R: x.expr(shInt, 2, scope)}
		macro = &core.Def{Name: "m", Params: []string{"par"}, Body: body}
	}
	for _, d := range defs {
		body := x.expr(d.sh, g.depth(), full)
		if macro != nil && d.sh == shInt && g.chance(3) {
			body = algebra.Union{L: body, R: algebra.Call{Name: "m", Args: []algebra.Expr{x.expr(shInt, 1, full)}}}
		}
		if allowFlip && g.chance(4) {
			body = algebra.Union{L: body, R: algebra.Flip{E: x.leaf(d.sh, full)}}
		}
		prog.Defs = append(prog.Defs, core.Def{Name: d.name, Body: body})
	}
	if macro != nil {
		prog.Defs = append(prog.Defs, *macro)
	}
	return &CoreInstance{DB: db, Prog: prog}
}
