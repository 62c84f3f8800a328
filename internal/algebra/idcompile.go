package algebra

import (
	"errors"
	"fmt"

	"algrec/internal/obsv"
	"algrec/internal/value"
	"algrec/internal/value/idset"
	"algrec/internal/value/intern"
)

// idCompiler translates a delta-distributive IFP body into an idNode tree.
// Compilation is per fixpoint execution: variable-free subexpressions are
// evaluated through leaf (the host evaluator, closing over its environment
// and, in core, its polarity) and frozen. compile returns nil when the shape
// cannot be ID-compiled or a leaf evaluation failed; the caller then falls
// back to the value-space RunIFP, which reproduces the value path's exact
// result or error.
type idCompiler struct {
	in      *intern.Interner
	varName string
	leaf    LeafEval
}

func (c *idCompiler) constSet(e Expr) (idset.Set, bool) {
	s, err := c.leaf(e)
	if err != nil {
		return idset.Empty, false
	}
	return idset.FromValueSet(c.in, s), true
}

func (c *idCompiler) compile(e Expr) idNode {
	if !occursFree(e, c.varName) {
		s, ok := c.constSet(e)
		if !ok {
			return nil
		}
		return &idConst{set: s}
	}
	switch ee := e.(type) {
	case Rel:
		// occursFree and Rel imply ee.Name == varName.
		return idDelta{}
	case Union:
		l, r := c.compile(ee.L), c.compile(ee.R)
		if l == nil || r == nil {
			return nil
		}
		return &idUnion{parts: []idNode{l, r}}
	case Diff:
		if occursFree(ee.R, c.varName) {
			return nil // not delta-distributive; defensive
		}
		l := c.compile(ee.L)
		if l == nil {
			return nil
		}
		sub, ok := c.constSet(ee.R)
		if !ok {
			return nil
		}
		return &idDiff{l: l, sub: sub}
	case Product:
		l, r := c.compile(ee.L), c.compile(ee.R)
		if l == nil || r == nil {
			return nil
		}
		return &idProduct{l: l, r: r}
	case Select:
		if prod, isProd := ee.Of.(Product); isProd {
			// A join-shaped selection either compiles as an indexed ID join
			// or refuses outright: compiling it as σ over an interned full
			// product would cons every pair, a regression against the value
			// path's own hash join.
			return c.compileJoin(prod, ee.Var, ee.Test, nil, false)
		}
		of := c.compile(ee.Of)
		if of == nil {
			return nil
		}
		return &idSelect{of: of, v: ee.Var, test: ee.Test}
	case Map:
		if sel, isSel := ee.Of.(Select); isSel {
			if prod, isProd := sel.Of.(Product); isProd {
				outs, single, ok := projSpecs(ee.Out, ee.Var)
				if !ok {
					return nil
				}
				return c.compileJoin(prod, sel.Var, sel.Test, outs, single)
			}
		}
		of := c.compile(ee.Of)
		if of == nil {
			return nil
		}
		if path, ok := varPath(ee.Out, ee.Var); ok {
			return &idMapPath{of: of, path: path}
		}
		return &idMap{of: of, v: ee.Var, out: ee.Out}
	default:
		// Flip would detach nested constants from the host's polarity; IFP
		// and Call with the variable free are not delta-distributive. All
		// are variable-free here or not compiled.
		return nil
	}
}

// compileJoin builds an idJoin for σ_test(L × R) when the test is exactly a
// conjunction of side-to-side equality paths and exactly one product side is
// variable-free. outs/single carry a fused MAP projection (nil: emit pairs).
func (c *idCompiler) compileJoin(prod Product, v string, test FExpr, outs []projSpec, single bool) idNode {
	lks, rks, ok := allEquiKeys(v, test)
	if !ok {
		return nil
	}
	lFree, rFree := !occursFree(prod.L, c.varName), !occursFree(prod.R, c.varName)
	var probe idNode
	var constExpr Expr
	var probeKeys, constKeys []KeyPath
	var probeLeft bool
	switch {
	case rFree && !lFree:
		probe, probeLeft = c.compile(prod.L), true
		probeKeys, constKeys = lks, rks
		constExpr = prod.R
	case lFree && !rFree:
		probe, probeLeft = c.compile(prod.R), false
		probeKeys, constKeys = rks, lks
		constExpr = prod.L
	default:
		return nil
	}
	if probe == nil {
		return nil
	}
	side, ok := c.constSet(constExpr)
	if !ok {
		return nil
	}
	index := make(map[intern.ID][]intern.ID, side.Len())
	buildCtx := &idCtx{in: c.in}
	for i := 0; i < side.Len(); i++ {
		id := side.At(i)
		key, ok := joinKeyIDPath(buildCtx, id, constKeys)
		if !ok {
			return nil // a key path does not apply: the value path decides
		}
		index[key] = append(index[key], id)
	}
	return &idJoin{
		probe: probe, probeLeft: probeLeft, index: index,
		probeKeys: probeKeys, outs: outs, outSingle: single,
	}
}

// allEquiKeys is the strict variant of EquiJoinKeys: it succeeds only when
// EVERY conjunct of the test is a side1-path = side2-path equality. Such a
// test is completely decided by join-key equality and, where the key paths
// apply, cannot error (Compare is total), so the ID join needs no re-check.
func allEquiKeys(v string, test FExpr) (lks, rks []KeyPath, ok bool) {
	for _, a := range conjuncts(test) {
		cmp, isCmp := a.(FCmp)
		if !isCmp || cmp.Op != OpEq {
			return nil, nil, false
		}
		ls, lp, lok := sidePath(cmp.L, v)
		rs, rp, rok := sidePath(cmp.R, v)
		if !lok || !rok {
			return nil, nil, false
		}
		switch {
		case ls == 1 && rs == 2:
			lks = append(lks, lp)
			rks = append(rks, rp)
		case ls == 2 && rs == 1:
			lks = append(lks, rp)
			rks = append(rks, lp)
		default:
			return nil, nil, false
		}
	}
	return lks, rks, len(lks) > 0
}

// projSpecs decomposes a MAP body over join pairs into per-side projection
// paths: a tuple of paths, or (single=true) one bare path.
func projSpecs(out FExpr, v string) (specs []projSpec, single, ok bool) {
	if tup, isTup := out.(FTuple); isTup {
		for _, el := range tup.Elems {
			side, path, ok := sidePath(el, v)
			if !ok {
				return nil, false, false
			}
			specs = append(specs, projSpec{left: side == 1, path: path})
		}
		return specs, false, len(specs) > 0
	}
	side, path, pok := sidePath(out, v)
	if !pok {
		return nil, false, false
	}
	return []projSpec{{left: side == 1, path: path}}, true, true
}

// varPath decomposes a MAP body that is a pure projection chain on the
// element variable: v.i1.i2... (or v itself, the identity path).
func varPath(e FExpr, v string) (KeyPath, bool) {
	var rev []int
	for {
		switch ee := e.(type) {
		case FField:
			rev = append(rev, ee.Idx)
			e = ee.Of
		case FVar:
			if ee.Name != v {
				return nil, false
			}
			path := make(KeyPath, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, rev[i])
			}
			return path, true
		default:
			return nil, false
		}
	}
}

// RunIFPIDSets attempts the ID-native semi-naive fixpoint of body over
// varName. It returns ok=false — with no error and no observable effect
// beyond compile-time leaf evaluations — when the body does not ID-compile
// or the engine aborted to preserve equivalence; the caller then runs the
// value-space RunIFP. When ok is true the result (or the round-aligned
// budget/interrupt error) is exactly what RunIFP would produce. The caller
// has already checked DeltaDistributive and Budget.NoIDSets.
func RunIFPIDSets(varName string, budget Budget, obs obsv.Collector, body Expr, leaf LeafEval) (value.Set, bool, error) {
	in := intern.Global()
	c := &idCompiler{in: in, varName: varName, leaf: leaf}
	root := c.compile(body)
	if root == nil {
		return value.Set{}, false, nil
	}
	sc := &idset.Scratch{}
	ctx := &idCtx{in: in, sc: sc, max: budget.MaxSetSize, env: make(FEnv, 1)}
	acc, delta := idset.Empty, idset.Empty
	var deltas []int
	for iter := 0; ; iter++ {
		if iter >= budget.MaxIFPIters {
			return value.Set{}, true, fmt.Errorf("%w: IFP did not converge within %d iterations (the fixed point may be an infinite set)", ErrBudget, budget.MaxIFPIters)
		}
		if err := budget.Stop(); err != nil {
			return value.Set{}, true, err
		}
		ctx.delta, ctx.round = delta, iter
		out, owned, err := root.eval(ctx)
		if err != nil {
			if errors.Is(err, errIDAbort) {
				return value.Set{}, false, nil
			}
			return value.Set{}, true, err
		}
		next := sc.Union(acc, out)
		if next.Len() > budget.MaxSetSize {
			return value.Set{}, true, fmt.Errorf("%w: intermediate set of %d elements exceeds MaxSetSize %d", ErrBudget, next.Len(), budget.MaxSetSize)
		}
		grown := next.Len() - acc.Len()
		if obs != nil {
			deltas = append(deltas, grown)
		}
		if grown == 0 {
			result := next.Materialize(in)
			if obs != nil {
				obs.IFP(obsv.IFPStats{Mode: "idsets", Rounds: iter + 1, Result: next.Len(), Deltas: deltas})
			}
			return result, true, nil
		}
		// out − acc MUST be computed before acc's buffer is recycled; the old
		// delta dies here (out may alias it, in which case owned is false and
		// the single release below covers both names).
		newDelta := sc.Diff(out, acc)
		sc.Release(acc)
		sc.Release(delta)
		if owned {
			sc.Release(out)
		}
		acc, delta = next, newDelta
	}
}
