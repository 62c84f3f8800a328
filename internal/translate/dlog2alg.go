package translate

import (
	"fmt"
	"sort"
	"strconv"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// This file implements the deduction-to-algebra direction of Section 6: each
// derived predicate P_i gets a *simulation function* exp_i — an algebra
// expression over the predicates' set representations that performs one
// simultaneous derivation step of P_i's rules — and the algebra= program
// defines P_i^a as the fixed point P_i^a = exp_i(P̄^a, R̄^a) (Proposition
// 6.1). Rule bodies are range formulas (the program must be safe, Definition
// 4.1), so each body compiles to a join-select-map pipeline whose
// intermediate elements are flat tuples of the rule's bound variables;
// negated atoms compile to subtraction of the matching environment tuples,
// the classical relational-algebra treatment.

// DatalogToCore translates a safe deductive program into an equivalent
// algebra= program plus the extracted database (Proposition 6.1). The
// returned program has one 0-ary definition per derived predicate, named
// after it; evaluating it with core.EvalValid yields the same relations, as
// three-valued sets, as evaluating the original program under the valid
// semantics (Theorem 6.2).
func DatalogToCore(p *datalog.Program) (*core.Program, algebra.DB, error) {
	if err := datalog.CheckProgramSafe(p); err != nil {
		return nil, nil, err
	}
	arities, err := Arities(p)
	if err != nil {
		return nil, nil, err
	}
	db, idbFacts, rules, err := SplitProgram(p)
	if err != nil {
		return nil, nil, err
	}
	relOf := func(pred string) (algebra.Expr, error) {
		return algebra.Rel{Name: pred}, nil
	}
	byHead := map[string][]datalog.Rule{}
	var headOrder []string
	for _, r := range rules {
		if _, ok := byHead[r.Head.Pred]; !ok {
			headOrder = append(headOrder, r.Head.Pred)
		}
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], r)
	}
	// Predicates that only have IDB facts but no rules still need a def.
	for pred := range idbFacts {
		if _, ok := byHead[pred]; !ok {
			headOrder = append(headOrder, pred)
		}
	}
	sort.Strings(headOrder)

	prog := &core.Program{}
	for _, pred := range headOrder {
		var body algebra.Expr
		if fs := idbFacts[pred]; len(fs) > 0 {
			body = algebra.Lit{Set: FactsToSet(fs)}
		}
		for _, r := range byHead[pred] {
			re, err := ruleExpr(r, arities, relOf)
			if err != nil {
				return nil, nil, err
			}
			if body == nil {
				body = re
			} else {
				body = algebra.Union{L: body, R: re}
			}
		}
		if body == nil {
			body = algebra.EmptyLit
		}
		prog.Defs = append(prog.Defs, core.Def{Name: pred, Body: body})
	}
	emitTranslate("dlog2core", len(p.Rules), len(prog.Defs), 0)
	return prog, db, nil
}

// StratifiedToPositiveIFP translates a stratified safe program into a
// positive IFP-algebra program: a core.Program with *no recursive
// definitions*, where all recursion happens inside IFP operators whose
// variables occur only positively (the constructive direction of Theorem
// 4.3). Each stratum becomes one IFP over a tagged union of its predicates'
// rule expressions; negated predicates always belong to lower strata and are
// referenced as already-defined constants.
func StratifiedToPositiveIFP(p *datalog.Program) (*core.Program, algebra.DB, error) {
	if err := datalog.CheckProgramSafe(p); err != nil {
		return nil, nil, err
	}
	arities, err := Arities(p)
	if err != nil {
		return nil, nil, err
	}
	stratumOf, err := datalog.Stratify(p)
	if err != nil {
		return nil, nil, err
	}
	db, idbFacts, rules, err := SplitProgram(p)
	if err != nil {
		return nil, nil, err
	}
	isIDB := map[string]bool{}
	for _, r := range rules {
		isIDB[r.Head.Pred] = true
	}
	for pred := range idbFacts {
		isIDB[pred] = true
	}
	maxStratum := 0
	var idbPreds []string
	for pred := range isIDB {
		idbPreds = append(idbPreds, pred)
		if s := stratumOf[pred]; s > maxStratum {
			maxStratum = s
		}
	}
	sort.Strings(idbPreds)

	prog := &core.Program{}
	for s := 0; s <= maxStratum; s++ {
		var stratumPreds []string
		for _, pred := range idbPreds {
			if stratumOf[pred] == s {
				stratumPreds = append(stratumPreds, pred)
			}
		}
		if len(stratumPreds) == 0 {
			continue
		}
		wName := "w" + strconv.Itoa(s) + "__"
		stratumName := "stratum" + strconv.Itoa(s) + "__"
		inStratum := map[string]bool{}
		for _, pred := range stratumPreds {
			inStratum[pred] = true
		}
		// untag extracts the relation of pred from the tagged stratum set.
		untag := func(of algebra.Expr, pred string) algebra.Expr {
			sel := algebra.Select{
				Of:  of,
				Var: "t",
				Test: algebra.FCmp{Op: algebra.OpEq,
					L: algebra.FField{Of: algebra.FVar{Name: "t"}, Idx: 1},
					R: algebra.FConst{V: value.String(pred)}},
			}
			return algebra.Map{Of: sel, Var: "t", Out: algebra.FField{Of: algebra.FVar{Name: "t"}, Idx: 2}}
		}
		tag := func(e algebra.Expr, pred string) algebra.Expr {
			return algebra.Map{Of: e, Var: "u", Out: algebra.FTuple{Elems: []algebra.FExpr{
				algebra.FConst{V: value.String(pred)},
				algebra.FVar{Name: "u"},
			}}}
		}
		relOf := func(pred string) (algebra.Expr, error) {
			if inStratum[pred] {
				return untag(algebra.Rel{Name: wName}, pred), nil
			}
			// lower-stratum IDB predicates and EDB relations are closed.
			return algebra.Rel{Name: pred}, nil
		}
		var body algebra.Expr
		add := func(e algebra.Expr) {
			if body == nil {
				body = e
			} else {
				body = algebra.Union{L: body, R: e}
			}
		}
		for _, pred := range stratumPreds {
			if fs := idbFacts[pred]; len(fs) > 0 {
				add(tag(algebra.Lit{Set: FactsToSet(fs)}, pred))
			}
		}
		for _, r := range rules {
			if stratumOf[r.Head.Pred] != s {
				continue
			}
			re, err := ruleExpr(r, arities, relOf)
			if err != nil {
				return nil, nil, err
			}
			add(tag(re, r.Head.Pred))
		}
		if body == nil {
			body = algebra.EmptyLit
		}
		prog.Defs = append(prog.Defs, core.Def{Name: stratumName, Body: algebra.IFP{Var: wName, Body: body}})
		for _, pred := range stratumPreds {
			prog.Defs = append(prog.Defs, core.Def{Name: pred, Body: untag(algebra.Rel{Name: stratumName}, pred)})
		}
	}
	emitTranslate("strat2ifp", len(p.Rules), len(prog.Defs), 0)
	return prog, db, nil
}

// unitSet is {()}: the environment of a rule before any variable is bound.
var unitSet = value.NewSet(value.NewTuple())

// ruleExpr compiles one safe rule into its simulation expression: an algebra
// expression computing the head tuples derivable by a single application of
// the rule, given relation expressions for the body predicates (relOf).
func ruleExpr(r datalog.Rule, arities map[string]int, relOf func(pred string) (algebra.Expr, error)) (algebra.Expr, error) {
	plan, err := datalog.PlanRule(r)
	if err != nil {
		return nil, err
	}
	env := ruleEnv{
		cur:    algebra.Expr(algebra.Lit{Set: unitSet}),
		varIdx: map[datalog.Var]int{},
	}
	for _, st := range plan.Steps {
		switch st.Kind {
		case datalog.StepMatch:
			if err := env.match(st.Atom, arities, relOf, false); err != nil {
				return nil, err
			}
		case datalog.StepAssign:
			fe, err := env.termFExpr(st.Term, algebra.FVar{Name: "x"})
			if err != nil {
				return nil, err
			}
			env.extend(st.AssignVar, fe)
		case datalog.StepTest:
			x := algebra.FVar{Name: "x"}
			l, err := env.termFExpr(st.Cmp.L, x)
			if err != nil {
				return nil, err
			}
			rt, err := env.termFExpr(st.Cmp.R, x)
			if err != nil {
				return nil, err
			}
			env.cur = algebra.Select{Of: env.cur, Var: "x", Test: algebra.FCmp{Op: cmpOp(st.Cmp.Op), L: l, R: rt}}
		default:
			panic("translate: unknown plan step")
		}
	}
	for _, na := range plan.Negs {
		if err := env.match(na, arities, relOf, true); err != nil {
			return nil, err
		}
	}
	// Head projection.
	x := algebra.FVar{Name: "x"}
	var out algebra.FExpr
	switch len(r.Head.Args) {
	case 1:
		fe, err := env.termFExpr(r.Head.Args[0], x)
		if err != nil {
			return nil, err
		}
		out = fe
	default:
		elems := make([]algebra.FExpr, len(r.Head.Args))
		for i, a := range r.Head.Args {
			fe, err := env.termFExpr(a, x)
			if err != nil {
				return nil, err
			}
			elems[i] = fe
		}
		out = algebra.FTuple{Elems: elems}
	}
	return algebra.Map{Of: env.cur, Var: "x", Out: out}, nil
}

// ruleEnv tracks the compilation state of one rule body: cur is an
// expression whose elements are flat tuples of the bound variables' values,
// in binding order (varIdx gives each variable's 1-based position).
type ruleEnv struct {
	cur    algebra.Expr
	vars   []datalog.Var
	varIdx map[datalog.Var]int
}

// envField projects the bound variable v out of the environment element.
func (env *ruleEnv) envField(of algebra.FExpr, v datalog.Var) (algebra.FExpr, error) {
	idx, ok := env.varIdx[v]
	if !ok {
		return nil, fmt.Errorf("translate: variable %s used before it is bound", v)
	}
	return algebra.FField{Of: of, Idx: idx}, nil
}

// extend appends a computed field to every environment tuple, binding v.
func (env *ruleEnv) extend(v datalog.Var, fe algebra.FExpr) {
	x := algebra.FVar{Name: "x"}
	elems := make([]algebra.FExpr, 0, len(env.vars)+1)
	for i := range env.vars {
		elems = append(elems, algebra.FField{Of: x, Idx: i + 1})
	}
	elems = append(elems, fe)
	env.cur = algebra.Map{Of: env.cur, Var: "x", Out: algebra.FTuple{Elems: elems}}
	env.vars = append(env.vars, v)
	env.varIdx[v] = len(env.vars)
}

// match joins (or, when negated, subtracts) the atom's relation against the
// environment. Elements of the joined product are pairs p = (envTuple, row).
func (env *ruleEnv) match(a datalog.Atom, arities map[string]int, relOf func(string) (algebra.Expr, error), negated bool) error {
	rel, err := relOf(a.Pred)
	if err != nil {
		return err
	}
	arity := arities[a.Pred]
	p := algebra.FVar{Name: "p"}
	envSide := algebra.FExpr(algebra.FField{Of: p, Idx: 1})
	rowField := func(i int) algebra.FExpr {
		if arity == 1 {
			return algebra.FField{Of: p, Idx: 2}
		}
		return algebra.FField{Of: algebra.FField{Of: p, Idx: 2}, Idx: i}
	}
	var conds []algebra.FExpr
	type newBinding struct {
		v   datalog.Var
		idx int
	}
	var fresh []newBinding
	seenNew := map[datalog.Var]int{}
	for i, arg := range a.Args {
		if v, isVar := arg.(datalog.Var); isVar {
			if _, bound := env.varIdx[v]; bound {
				ef, err := env.envField(envSide, v)
				if err != nil {
					return err
				}
				conds = append(conds, algebra.FCmp{Op: algebra.OpEq, L: rowField(i + 1), R: ef})
				continue
			}
			if prev, dup := seenNew[v]; dup {
				// Repeated fresh variable within the atom: equality between
				// the two row positions.
				conds = append(conds, algebra.FCmp{Op: algebra.OpEq, L: rowField(i + 1), R: rowField(prev + 1)})
				continue
			}
			if negated {
				return fmt.Errorf("translate: negated atom %s binds variable %s (unsafe rule)", a, v)
			}
			seenNew[v] = i
			fresh = append(fresh, newBinding{v: v, idx: i})
			continue
		}
		fe, err := env.termFExprWith(arg, envSide)
		if err != nil {
			return err
		}
		conds = append(conds, algebra.FCmp{Op: algebra.OpEq, L: rowField(i + 1), R: fe})
	}
	left := env.cur
	if negated {
		// The env copy inside the subtrahend must be read at the same
		// polarity as the outer occurrence; see algebra.Flip.
		left = algebra.Flip{E: env.cur}
	}
	joined := algebra.Expr(algebra.Product{L: left, R: rel})
	if len(conds) > 0 {
		test := conds[0]
		for _, c := range conds[1:] {
			test = algebra.FAnd{L: test, R: c}
		}
		joined = algebra.Select{Of: joined, Var: "p", Test: test}
	}
	if negated {
		// Subtract the environments that match: env' = env − π_env(joined).
		matched := algebra.Map{Of: joined, Var: "p", Out: algebra.FField{Of: p, Idx: 1}}
		env.cur = algebra.Diff{L: env.cur, R: matched}
		return nil
	}
	// Project to the extended environment tuple.
	elems := make([]algebra.FExpr, 0, len(env.vars)+len(fresh))
	for i := range env.vars {
		elems = append(elems, algebra.FField{Of: envSide, Idx: i + 1})
	}
	for _, nb := range fresh {
		elems = append(elems, rowField(nb.idx+1))
	}
	env.cur = algebra.Map{Of: joined, Var: "p", Out: algebra.FTuple{Elems: elems}}
	for _, nb := range fresh {
		env.vars = append(env.vars, nb.v)
		env.varIdx[nb.v] = len(env.vars)
	}
	return nil
}

// termFExpr compiles a deductive term into an element-level expression over
// the environment element x (a flat tuple of bound variables).
func (env *ruleEnv) termFExpr(t datalog.Term, x algebra.FExpr) (algebra.FExpr, error) {
	return env.termFExprWith(t, x)
}

func (env *ruleEnv) termFExprWith(t datalog.Term, envTuple algebra.FExpr) (algebra.FExpr, error) {
	switch tt := t.(type) {
	case datalog.Var:
		return env.envField(envTuple, tt)
	case datalog.Const:
		return algebra.FConst{V: tt.V}, nil
	case datalog.Apply:
		if datalog.IsGroundTerm(tt) {
			v, err := datalog.EvalTerm(tt, nil)
			if err != nil {
				return nil, err
			}
			return algebra.FConst{V: v}, nil
		}
		args := make([]algebra.FExpr, len(tt.Args))
		for i, a := range tt.Args {
			fe, err := env.termFExprWith(a, envTuple)
			if err != nil {
				return nil, err
			}
			args[i] = fe
		}
		return applyFExpr(tt.Fn, args, tt)
	default:
		panic(fmt.Sprintf("translate: unknown term %T", t))
	}
}

// applyFExpr maps an interpreted function symbol to its element-level
// counterpart.
func applyFExpr(fn string, args []algebra.FExpr, orig datalog.Apply) (algebra.FExpr, error) {
	arith := func(op algebra.ArithOp) (algebra.FExpr, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: %s expects 2 arguments in %s", fn, orig)
		}
		return algebra.FArith{Op: op, L: args[0], R: args[1]}, nil
	}
	cmp := func(op algebra.CmpOp) (algebra.FExpr, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: %s expects 2 arguments in %s", fn, orig)
		}
		return algebra.FCmp{Op: op, L: args[0], R: args[1]}, nil
	}
	switch fn {
	case "plus":
		return arith(algebra.OpPlus)
	case "minus":
		return arith(algebra.OpMinus)
	case "times":
		return arith(algebra.OpTimes)
	case "mod":
		return arith(algebra.OpMod)
	case "succ":
		if len(args) != 1 {
			return nil, fmt.Errorf("translate: succ expects 1 argument in %s", orig)
		}
		return algebra.FArith{Op: algebra.OpPlus, L: args[0], R: algebra.FConst{V: value.Int(1)}}, nil
	case "pred":
		if len(args) != 1 {
			return nil, fmt.Errorf("translate: pred expects 1 argument in %s", orig)
		}
		return algebra.FArith{Op: algebra.OpMinus, L: args[0], R: algebra.FConst{V: value.Int(1)}}, nil
	case "tup":
		return algebra.FTuple{Elems: args}, nil
	case "fst":
		if len(args) != 1 {
			return nil, fmt.Errorf("translate: fst expects 1 argument in %s", orig)
		}
		return algebra.FField{Of: args[0], Idx: 1}, nil
	case "snd":
		if len(args) != 1 {
			return nil, fmt.Errorf("translate: snd expects 1 argument in %s", orig)
		}
		return algebra.FField{Of: args[0], Idx: 2}, nil
	case "field":
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: field expects 2 arguments in %s", orig)
		}
		idxConst, ok := orig.Args[1].(datalog.Const)
		if !ok {
			return nil, fmt.Errorf("translate: field index must be a constant in %s", orig)
		}
		idx, ok := idxConst.V.(value.Int)
		if !ok {
			return nil, fmt.Errorf("translate: field index must be an integer in %s", orig)
		}
		return algebra.FField{Of: args[0], Idx: int(idx)}, nil
	case "eq":
		return cmp(algebra.OpEq)
	case "ne":
		return cmp(algebra.OpNe)
	case "lt":
		return cmp(algebra.OpLt)
	case "le":
		return cmp(algebra.OpLe)
	case "gt":
		return cmp(algebra.OpGt)
	case "ge":
		return cmp(algebra.OpGe)
	case "band":
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: band expects 2 arguments in %s", orig)
		}
		return algebra.FAnd{L: args[0], R: args[1]}, nil
	case "bor":
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: bor expects 2 arguments in %s", orig)
		}
		return algebra.FOr{L: args[0], R: args[1]}, nil
	case "bnot":
		if len(args) != 1 {
			return nil, fmt.Errorf("translate: bnot expects 1 argument in %s", orig)
		}
		return algebra.FNot{E: args[0]}, nil
	case "ismem":
		if len(args) != 2 {
			return nil, fmt.Errorf("translate: ismem expects 2 arguments in %s", orig)
		}
		return algebra.FMem{Elem: args[0], Set: args[1]}, nil
	default:
		return nil, fmt.Errorf("translate: function %q has no algebraic counterpart (set constructors are not translatable)", fn)
	}
}

func cmpOp(op datalog.CmpOp) algebra.CmpOp {
	switch op {
	case datalog.OpEq:
		return algebra.OpEq
	case datalog.OpNe:
		return algebra.OpNe
	case datalog.OpLt:
		return algebra.OpLt
	case datalog.OpLe:
		return algebra.OpLe
	case datalog.OpGt:
		return algebra.OpGt
	case datalog.OpGe:
		return algebra.OpGe
	default:
		panic(fmt.Sprintf("translate: unknown comparison %v", op))
	}
}
