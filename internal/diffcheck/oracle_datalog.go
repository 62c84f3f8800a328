package diffcheck

import (
	"errors"

	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/semantics"
	"algrec/internal/translate"
)

// diffInterpPred compares one predicate of a deductive interpretation
// against the lower/undef reading of a core result for the same predicate.
func diffInterpPred(oracle, pred string, in *semantics.Interp, res *core.Result) error {
	if err := diffSets(oracle, "certain part of "+pred, translate.TrueSet(in, pred), res.Set(pred)); err != nil {
		return err
	}
	return diffSets(oracle, "undefined part of "+pred, translate.UndefSet(in, pred), res.UndefElems(pred))
}

// checkDlogTheorem62 runs a free-polarity deductive program under the valid
// semantics directly, and through the Theorem 6.2 route: translate to
// algebra= (Proposition 6.1 machinery) and evaluate with core.EvalValid.
// Certain and undefined parts of every IDB predicate must coincide.
func checkDlogTheorem62(p *datalog.Program) error {
	const oracle = "dlog-theorem62"
	in, errD := semantics.Eval(p, semantics.SemValid, GroundBudget)
	cp, db, errT := translate.DatalogToCore(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	res, errC := core.EvalValid(cp, db, ExprBudget)
	if done, err := pairErr(oracle, "deductive valid", "algebra= valid", errD, errC); done {
		return err
	}
	for _, pred := range p.IDB() {
		if err := diffInterpPred(oracle, pred, in, res); err != nil {
			return err
		}
	}
	return nil
}

// checkDlogTheorem43 runs a stratifiable program through stratified
// evaluation and through the constructive direction of Theorem 4.3: the
// positive-IFP translation evaluated under the valid semantics. The theorem
// demands the translated program be total on every IDB predicate and agree
// with the stratified model.
func checkDlogTheorem43(p *datalog.Program) error {
	const oracle = "dlog-theorem43"
	strat, err := datalog.Stratify(p)
	if err != nil {
		return nil // generator contract violated elsewhere; not this oracle's bug
	}
	g, errG := ground.Ground(p, GroundBudget)
	var in *semantics.Interp
	var errD error
	if errG != nil {
		errD = errG
	} else {
		in, errD = semantics.NewEngine(g).Stratified(strat)
	}
	cp, db, errT := translate.StratifiedToPositiveIFP(p)
	if errT != nil {
		return nil // translation gap: not comparable
	}
	res, errC := core.EvalValid(cp, db, ExprBudget)
	if done, err := pairErr(oracle, "stratified", "positive-IFP", errD, errC); done {
		return err
	}
	for _, pred := range p.IDB() {
		if !res.IsTotal(pred) {
			return diverge(oracle, "positive-IFP program left %q three-valued: undef %v",
				pred, res.UndefElems(pred))
		}
		if err := diffSets(oracle, "stratum content of "+pred,
			translate.TrueSet(in, pred), res.Set(pred)); err != nil {
			return err
		}
	}
	return nil
}

// groundEngine grounds a program under GroundBudget and returns a fresh
// engine over it. Each pipeline gets its own engine so no scratch state is
// shared between the sides being compared.
func groundEngine(p *datalog.Program) (*ground.Program, error) {
	return ground.Ground(p, GroundBudget)
}

// diffInterps compares two interpretations of the same ground program on
// every IDB predicate, by certain and undefined parts.
func diffInterps(oracle, left, right string, p *datalog.Program, a, b *semantics.Interp) error {
	for _, pred := range p.IDB() {
		if err := diffSets(oracle, left+" vs "+right+": certain part of "+pred,
			translate.TrueSet(a, pred), translate.TrueSet(b, pred)); err != nil {
			return err
		}
		if err := diffSets(oracle, left+" vs "+right+": undefined part of "+pred,
			translate.UndefSet(a, pred), translate.UndefSet(b, pred)); err != nil {
			return err
		}
	}
	return nil
}

// checkDlogMinimal checks the positive-program collapse: on negation-free
// programs the minimal model, the inflationary semantics and the valid
// semantics compute the same model (the valid one totally).
func checkDlogMinimal(p *datalog.Program) error {
	const oracle = "dlog-minimal"
	g, err := groundEngine(p)
	if err != nil {
		return nil // grounding budget
	}
	min, err := semantics.NewEngine(g).Minimal()
	if err != nil {
		return nil // not a positive program: the collapse does not apply
	}
	infl, _ := semantics.NewEngine(g).Inflationary()
	if err := diffInterps(oracle, "minimal", "inflationary", p, min, infl); err != nil {
		return err
	}
	valid := semantics.NewEngine(g).Valid()
	if !valid.IsTotal() {
		return diverge(oracle, "valid semantics is partial on a positive program: %d undef atoms", valid.CountUndef())
	}
	return diffInterps(oracle, "minimal", "valid", p, min, valid)
}

// checkDlogStratified checks the stratifiable-program collapse: stratified,
// well-founded and valid evaluation agree and are total. (The inflationary
// semantics is deliberately absent: it disagrees with stratified evaluation
// even on stratifiable programs — deriving q from "q :- not r" before r's
// rule fires is not undone later.)
func checkDlogStratified(p *datalog.Program) error {
	const oracle = "dlog-stratified"
	strat, err := datalog.Stratify(p)
	if err != nil {
		return nil
	}
	g, err := groundEngine(p)
	if err != nil {
		return nil
	}
	st, errS := semantics.NewEngine(g).Stratified(strat)
	if errS != nil {
		return diverge(oracle, "stratified evaluation rejected a stratifiable program: %v", errS)
	}
	wf := semantics.NewEngine(g).WellFounded()
	if !wf.IsTotal() {
		return diverge(oracle, "well-founded model is partial on a stratifiable program: %d undef atoms", wf.CountUndef())
	}
	valid := semantics.NewEngine(g).Valid()
	if !valid.IsTotal() {
		return diverge(oracle, "valid model is partial on a stratifiable program: %d undef atoms", valid.CountUndef())
	}
	if err := diffInterps(oracle, "stratified", "well-founded", p, st, wf); err != nil {
		return err
	}
	return diffInterps(oracle, "stratified", "valid", p, st, valid)
}

// stableMaxUndef bounds the residual for the stable-model oracle: programs
// whose well-founded residual is larger are skipped rather than searched.
const stableMaxUndef = 14

// checkDlogStable checks the stable-model search against the well-founded
// model it starts from: every stable model is total and extends it — true
// atoms stay true, false ones false — and when the well-founded model is
// total it is the one stable model.
func checkDlogStable(p *datalog.Program) error {
	const oracle = "dlog-stable"
	g, err := groundEngine(p)
	if err != nil {
		return nil
	}
	wf := semantics.NewEngine(g).WellFounded()
	models, err := semantics.NewEngine(g).StableModels(stableMaxUndef)
	if errors.Is(err, semantics.ErrTooManyUndef) {
		return nil
	}
	if err != nil {
		return diverge(oracle, "stable-model search failed: %v", err)
	}
	for i, m := range models {
		if !m.IsTotal() {
			return diverge(oracle, "stable model %d is partial: %d undef atoms", i, m.CountUndef())
		}
		for id := 0; id < g.NumAtoms(); id++ {
			if w := wf.Truth(id); w != semantics.Undef && m.Truth(id) != w {
				return diverge(oracle, "stable model %d does not extend the well-founded model on atom %v: %v, well-founded %v",
					i, g.Atom(id), m.Truth(id), w)
			}
		}
	}
	if wf.IsTotal() && (len(models) != 1 || !semantics.SameTruths(models[0], wf)) {
		return diverge(oracle, "the well-founded model is total, but the search found %d stable models, not it alone", len(models))
	}
	return nil
}
