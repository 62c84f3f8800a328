package core

import (
	"runtime"
	"sort"
	"sync"

	"algrec/internal/algebra"
	"algrec/internal/value"
)

// This file builds the evaluation schedule for an inlined program's defining
// equations: a dependency graph over the defined constants, its strongly-
// connected components in topological (dependencies-first) order, and a
// bounded worker pool that evaluates independent definitions of one round
// concurrently with a deterministic merge. The scheduled engine computes the
// same sets as the naive sequential one (gammaNaive) whenever Γ is monotone
// in the pos environment: then by the chaotic-iteration theorem any fair
// update order reaches the identical least fixpoint, and sets are canonical,
// so equal sets are identical representations. Budget.NoStreaming, the
// reference, restores the naive engine.
//
// The analysis tracks two parities per occurrence of a defined constant,
// because the evaluator's two inverters differ semantically:
//
//   - environment parity (which of pos/neg the occurrence reads): toggled by
//     both Diff's right operand and Flip — Flip's whole point is to switch
//     the environment without subtracting.
//   - monotonicity parity (whether the occurrence's value contributes
//     positively or through a subtraction): toggled by Diff's right operand
//     only, because Flip is the identity on values.
//
// The two agree except under Flip. An occurrence with an odd number of
// enclosing Flips and an odd number of enclosing subtrahend positions —
// e.g. x in flip(diff(y, x)) — reads the evolving pos environment but is
// subtracted, making Γ anti-monotone in that input. The inflationary
// Gauss-Seidel reference engine then genuinely depends on its update order
// (a transient small pos value can derive elements the final value would
// not, and the inflationary accumulator keeps them), so gammaMonotone is
// false and EvalValid falls back to gammaNaive for the whole program.
//
// Two dependency relations are tracked, because the two core semantics can
// exploit different structure:
//
//   - posDeps: defined constants read from the pos environment (environment
//     parity even). During one Γ pass only these read the evolving pos
//     environment, so they alone drive gamma's strata and its
//     skip-unchanged tracking.
//   - allDeps: defined constants read at either polarity. EvalInflationary
//     sets pos = neg = the current accumulation, so every occurrence is an
//     input; a definition may be skipped in a round only when none of its
//     allDeps changed in the previous round. Inflationary evaluation is NOT
//     stratifiable (def A = {1} − B; def B = {1} gives A = {1} under global
//     rounds but A = ∅ under strata), so it keeps global rounds and uses the
//     schedule only for skipping and parallelism — both sound regardless of
//     monotonicity, since a skipped definition's inputs, and hence its
//     already-absorbed body value, are unchanged.
type schedule struct {
	index   map[string]int // defined name -> index into the program's Defs
	posDeps [][]int        // per def: sorted pos-environment deps
	allDeps [][]int        // per def: sorted any-polarity deps
	strata  [][]int        // SCCs of the posDeps graph, dependencies first
	// levels groups the strata by condensation depth: two SCCs at the same
	// depth have no posDeps path between them (an edge would order their
	// depths), so their members can iterate to their joint fixpoint in the
	// same Jacobi rounds — one wider parallel batch per level instead of one
	// narrow batch per SCC. Under gammaMonotone the chaotic-iteration
	// theorem gives the identical least fixpoint; members keep definition
	// order inside each level, so the merge stays deterministic.
	levels [][]int
	// gammaMonotone reports that no occurrence reads the pos environment
	// anti-monotonically (odd Flips under odd subtractions), so Γ is monotone
	// in pos and gammaScheduled computes gammaNaive's fixpoint.
	gammaMonotone bool
}

// newSchedule analyzes an inlined program (no Call nodes, 0-ary defs).
func newSchedule(p *Program) *schedule {
	sc := &schedule{index: make(map[string]int, len(p.Defs)), gammaMonotone: true}
	for i, d := range p.Defs {
		sc.index[d.Name] = i
	}
	sc.posDeps = make([][]int, len(p.Defs))
	sc.allDeps = make([][]int, len(p.Defs))
	for i, d := range p.Defs {
		pos, all := map[int]bool{}, map[int]bool{}
		sc.depWalk(d.Body, true, true, false, nil, pos, all)
		sc.posDeps[i] = sortedKeys(pos)
		sc.allDeps[i] = sortedKeys(all)
	}
	sc.strata = tarjanSCC(len(p.Defs), sc.posDeps)
	sc.levels = condensationLevels(len(p.Defs), sc.posDeps, sc.strata)
	return sc
}

// condensationLevels assigns each SCC a depth — 1 + the maximum depth of the
// SCCs its members depend on (0 for none) — and returns the defs of each
// depth as one level, sorted by definition index. strata arrive
// dependencies-first, so a single pass computes the depths.
func condensationLevels(n int, deps [][]int, strata [][]int) [][]int {
	sccOf := make([]int, n)
	for s, comp := range strata {
		for _, i := range comp {
			sccOf[i] = s
		}
	}
	depth := make([]int, len(strata))
	maxDepth := 0
	for s, comp := range strata {
		d := 0
		for _, i := range comp {
			for _, dep := range deps[i] {
				if ds := sccOf[dep]; ds != s && depth[ds]+1 > d {
					d = depth[ds] + 1
				}
			}
		}
		depth[s] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]int, maxDepth+1)
	for s, comp := range strata {
		levels[depth[s]] = append(levels[depth[s]], comp...)
	}
	for _, l := range levels {
		sort.Ints(l)
	}
	return levels
}

// depWalk records the defined constants e reads, by polarity. positive is
// the environment parity (which of pos/neg a Rel reads — the dual
// evaluator's polarity flag); mono is the monotonicity parity (whether the
// occurrence's value is subtracted an even number of times). Diff's right
// operand toggles both; Flip toggles only positive. tainted marks positions
// inside an IFP whose body is non-monotone in its own accumulator: such an
// IFP's value is not monotone in ANY of its free inputs (a larger input can
// grow an early accumulator and thereby suppress later derivations), so
// every pos-environment read under it is unordered. A pos-environment read
// with mono false or tainted true clears gammaMonotone. bound holds names
// shadowed by enclosing IFP binders (a Rel of a bound name is the local
// accumulator, not the defined constant).
func (sc *schedule) depWalk(e algebra.Expr, positive, mono, tainted bool, bound []string, pos, all map[int]bool) {
	switch ee := e.(type) {
	case algebra.Rel:
		for _, b := range bound {
			if b == ee.Name {
				return
			}
		}
		if i, ok := sc.index[ee.Name]; ok {
			all[i] = true
			if positive {
				pos[i] = true
				if !mono || tainted {
					sc.gammaMonotone = false
				}
			}
		}
	case algebra.Lit:
	case algebra.Union:
		sc.depWalk(ee.L, positive, mono, tainted, bound, pos, all)
		sc.depWalk(ee.R, positive, mono, tainted, bound, pos, all)
	case algebra.Diff:
		sc.depWalk(ee.L, positive, mono, tainted, bound, pos, all)
		sc.depWalk(ee.R, !positive, !mono, tainted, bound, pos, all)
	case algebra.Product:
		sc.depWalk(ee.L, positive, mono, tainted, bound, pos, all)
		sc.depWalk(ee.R, positive, mono, tainted, bound, pos, all)
	case algebra.Select:
		sc.depWalk(ee.Of, positive, mono, tainted, bound, pos, all)
	case algebra.Map:
		sc.depWalk(ee.Of, positive, mono, tainted, bound, pos, all)
	case algebra.IFP:
		t := tainted || !monoInVar(ee.Body, ee.Var, true)
		sc.depWalk(ee.Body, positive, mono, t, append(bound, ee.Var), pos, all)
	case algebra.Flip:
		sc.depWalk(ee.E, !positive, mono, tainted, bound, pos, all)
	case algebra.Call:
		// Inlined programs have no Calls (the dual evaluator rejects them);
		// walking the arguments keeps the analysis conservative if one slips
		// through.
		for _, a := range ee.Args {
			sc.depWalk(a, positive, mono, tainted, bound, pos, all)
		}
	}
}

// monoInVar reports whether e is monotone in the set named name: every free
// occurrence sits under an even number of subtrahend positions (mono parity;
// Flip does not count — it switches environments, not values), and no
// occurrence is inside a nested IFP whose own accumulator is non-monotone.
// Used on IFP bodies with their binder: a body non-monotone in its
// accumulator makes the IFP value non-monotone in every input.
func monoInVar(e algebra.Expr, name string, mono bool) bool {
	switch ee := e.(type) {
	case algebra.Rel:
		return ee.Name != name || mono
	case algebra.Lit:
		return true
	case algebra.Union:
		return monoInVar(ee.L, name, mono) && monoInVar(ee.R, name, mono)
	case algebra.Diff:
		return monoInVar(ee.L, name, mono) && monoInVar(ee.R, name, !mono)
	case algebra.Product:
		return monoInVar(ee.L, name, mono) && monoInVar(ee.R, name, mono)
	case algebra.Select:
		return monoInVar(ee.Of, name, mono)
	case algebra.Map:
		return monoInVar(ee.Of, name, mono)
	case algebra.IFP:
		if ee.Var == name {
			return true // shadowed: the free name does not occur below
		}
		if !monoInVar(ee.Body, ee.Var, true) {
			// The nested IFP is non-monotone in its own accumulator; its value
			// is then monotone in name only if name does not occur at all.
			return !mentionsFree(ee.Body, name)
		}
		return monoInVar(ee.Body, name, mono)
	case algebra.Flip:
		return monoInVar(ee.E, name, mono)
	case algebra.Call:
		// Conservative: a call argument mentioning name has unknown use.
		for _, a := range ee.Args {
			if mentionsFree(a, name) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// mentionsFree reports whether name occurs free (not IFP-shadowed) in e.
func mentionsFree(e algebra.Expr, name string) bool {
	switch ee := e.(type) {
	case algebra.Rel:
		return ee.Name == name
	case algebra.Union:
		return mentionsFree(ee.L, name) || mentionsFree(ee.R, name)
	case algebra.Diff:
		return mentionsFree(ee.L, name) || mentionsFree(ee.R, name)
	case algebra.Product:
		return mentionsFree(ee.L, name) || mentionsFree(ee.R, name)
	case algebra.Select:
		return mentionsFree(ee.Of, name)
	case algebra.Map:
		return mentionsFree(ee.Of, name)
	case algebra.IFP:
		return ee.Var != name && mentionsFree(ee.Body, name)
	case algebra.Flip:
		return mentionsFree(ee.E, name)
	case algebra.Call:
		for _, a := range ee.Args {
			if mentionsFree(a, name) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// tarjanSCC returns the strongly-connected components of the graph with
// edges i -> deps[i][j]. Tarjan emits a component only after every component
// reachable from it, and edges here point user -> dependency, so components
// come out dependencies-first — the evaluation order. Members of each
// component are sorted by definition index for determinism.
func tarjanSCC(n int, deps [][]int) [][]int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var sccs [][]int
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range deps[v] {
			if index[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			sccs = append(sccs, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}
	return sccs
}

// activate returns the members of stratum with a dependency (per deps) in
// changed, preserving stratum order.
func activate(stratum []int, deps [][]int, changed map[int]bool) []int {
	var out []int
	for _, i := range stratum {
		for _, d := range deps[i] {
			if changed[d] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// maxCoreWorkers caps the worker pool for one evaluation round.
var maxCoreWorkers = runtime.GOMAXPROCS(0)

// evalRound evaluates the bodies of the active definitions against de's
// current environments — a Jacobi round: de's environments are not mutated
// until every evaluation has finished, so the evaluations are independent
// and safe to run concurrently (value.Set is immutable, collectors are
// concurrency-safe). Results come back indexed like active; the merge is the
// caller's, sequential in definition order, so parallelism never changes the
// outcome. On error the returned error is the first by definition index, the
// one the sequential engine would have hit first. The returned worker count
// is 1 for the serial path.
func evalRound(de *dualEvaluator, defs []Def, active []int) ([]value.Set, int, error) {
	results := make([]value.Set, len(active))
	if len(active) < 2 || maxCoreWorkers < 2 {
		for k, i := range active {
			s, err := de.eval(defs[i].Body, true, nil)
			if err != nil {
				return nil, 1, err
			}
			results[k] = s
		}
		return results, 1, nil
	}
	workers := maxCoreWorkers
	if workers > len(active) {
		workers = len(active)
	}
	errs := make([]error, len(active))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(active) {
					return
				}
				results[k], errs[k] = de.eval(defs[active[k]].Body, true, nil)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, workers, err
		}
	}
	return results, workers, nil
}

// coreCounters accumulates the bookkeeping behind one CoreEvalStats event.
type coreCounters struct {
	gammas, rounds, evals, skips, workers int
}

func (c *coreCounters) round(stratumSize, activeCount, workers int) {
	c.rounds++
	c.evals += activeCount
	c.skips += stratumSize - activeCount
	if workers > c.workers {
		c.workers = workers
	}
}
