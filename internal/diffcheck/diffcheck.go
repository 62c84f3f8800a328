// Package diffcheck is the differential oracle layer over the repository's
// theorem inventory: it runs one random instance (from internal/randgen)
// through paired evaluation pipelines that the paper — or an engine
// invariant — proves equivalent, and demands bit-identical results.
//
// The oracle matrix pairs, per instance family:
//
//   - expressions: the served path (query.Execute: the relational kernel, or
//     the value evaluator's planned joins, access paths and semi-naive IFP)
//     vs the reference evaluator, algebra.NewReference's materialized
//     operators and naive IFP rounds (expr-stream), the value evaluator's
//     planned joins and semi-naive IFP, kernel aside, vs the same reference
//     (expr-seminaive),
//     and the Theorem 3.5 constructive IFP elimination vs direct evaluation;
//   - algebra= programs: the served valid evaluation (the relational kernel's
//     alternation, or internal/core) vs core's reference Γ rounds, core's
//     inflationary rounds vs the same over the reference's operators, and
//     the valid interpretation vs the well-founded reading through the
//     Proposition 5.4 deductive translation;
//   - deductive programs: the Proposition 6.1/Theorem 6.2 algebra=
//     translation vs direct valid evaluation, the Theorem 4.3 positive-IFP
//     translation vs stratified evaluation, the minimal, inflationary and
//     valid collapse on positive programs, the three-way stratified/well-founded/valid agreement on
//     stratifiable programs, stable models vs the well-founded model they
//     extend, and
//     valid models through the Proposition 6.1 translation on the production
//     path vs the reference (dlog-stream);
//   - incremental view maintenance: replaying a random insert/delete
//     schedule through the counting/DRed delta engine (internal/ivm) must
//     match from-scratch recompute (ivm.NewRecompute's view) bit-for-bit,
//     per-step deltas and outcomes alike (dlog-ivm);
//   - the engine choice inside query.Execute: a program over stored
//     relations, evaluated relationally, must match the grounded reference
//     bit-for-bit — stratified (dlog-relational) or with negation through
//     recursion and a three-valued model (dlog-relational-free).
//
// A disagreement is reported as a *Divergence. Resource exhaustion (a
// budget error from either pipeline) skips the instance: the budgets turn
// the paper's undecidability concessions into typed errors, and a pipeline
// hitting its cap earlier than its partner is not a soundness bug. Both
// pipelines failing is likewise agreement.
//
// The package also provides greedy instance minimization (Instance.Shrink)
// and a deliberate fault hook (InjectFault) used to validate that the
// harness catches and shrinks a planted engine bug — see cmd/fuzzdiff for
// campaign driving and docs/fuzzing.md for operation.
package diffcheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/randgen"
	"algrec/internal/value"
)

// Divergence reports that two pipelines the theorems prove equivalent
// disagreed on an instance. It is the only error kind Instance.Check
// returns; anything else an oracle encounters is a skip.
type Divergence struct {
	// Oracle is the name of the oracle pair that disagreed.
	Oracle string
	// Detail describes the disagreement, including both sides' values.
	Detail string
}

// Error implements error.
func (d *Divergence) Error() string { return "diffcheck: " + d.Oracle + ": " + d.Detail }

// diverge builds a *Divergence.
func diverge(oracle, format string, args ...any) error {
	return &Divergence{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// IsDivergence reports whether err is a *Divergence, returning it.
func IsDivergence(err error) (*Divergence, bool) {
	var d *Divergence
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}

// Kind identifies the instance family an oracle consumes.
type Kind uint8

// The instance families. Core instances come in two flavors because the
// Flip polarity annotation is engine-visible but translation-transparent:
// oracles that cross the translation boundary need Flip-free programs.
const (
	// KindExpr is a database plus an algebra/IFP-algebra expression.
	KindExpr Kind = iota
	// KindIFPExpr is KindExpr with at least one IFP operator guaranteed.
	KindIFPExpr
	// KindCore is a database plus an algebra= program (may contain Flip).
	KindCore
	// KindCoreNoFlip is KindCore restricted to Flip-free programs.
	KindCoreNoFlip
	// KindDatalogPositive is a negation-free deductive program.
	KindDatalogPositive
	// KindDatalogStratified is a stratifiable deductive program.
	KindDatalogStratified
	// KindDatalogFree is a deductive program with unrestricted safe negation.
	KindDatalogFree
	// KindDatalogIVM is a stratifiable deductive program plus a random
	// insert/delete schedule over its extensional schema.
	KindDatalogIVM
	// KindDatalogStored is a stratifiable (one time in four negation-free)
	// deductive program with part of its facts stored in a database
	// (randgen.StoredDatalog).
	KindDatalogStored
	// KindDatalogStoredFree is a deductive program with unrestricted safe
	// negation, so possibly negation through recursion, with part of its
	// facts stored in a database (randgen.StoredFreeDatalog).
	KindDatalogStoredFree
)

// Oracle is one differential oracle pair: a named equivalence with the
// instance family it consumes and the paired-pipeline check.
type Oracle struct {
	// Name identifies the oracle on command lines and in reports.
	Name string
	// Doc is a one-line statement of the equivalence being checked.
	Doc string
	// Kind is the instance family the oracle consumes.
	Kind Kind

	checkExpr    func(e algebra.Expr, db algebra.DB) error
	checkCore    func(p *core.Program, db algebra.DB) error
	checkDatalog func(p *datalog.Program) error
	checkDlogIVM func(p *datalog.Program, sched []randgen.FactBatch) error
	checkDlogDB  func(p *datalog.Program, db algebra.DB) error
}

// Oracles is the oracle matrix, in stable presentation order.
var Oracles = []*Oracle{
	{Name: "expr-stream", Kind: KindExpr,
		Doc:       "the served path (flat joins on the relational kernel; planned joins, probing and semi-naive IFP otherwise) changes cost only: it agrees with the reference evaluator",
		checkExpr: checkExprStream},
	{Name: "expr-seminaive", Kind: KindExpr,
		Doc:       "the value evaluator, kernel aside — its planned joins and semi-naive delta IFP rounds — computes the same sets and text as the reference's built products and naive rounds",
		checkExpr: checkExprSemiNaive},
	{Name: "expr-ifp-elim", Kind: KindIFPExpr,
		Doc:       "Theorem 3.5: eliminating IFP through the deductive pipeline preserves the value",
		checkExpr: checkExprIFPElim},
	{Name: "core-valid", Kind: KindCore,
		Doc:       "served valid evaluation (the rule kernel's alternation in the flat fragment, core's planned and probing operators outside it) matches the naive Γ alternation over materialized operators",
		checkCore: checkCoreValid},
	{Name: "core-inflationary", Kind: KindCore,
		Doc:       "inflationary Jacobi rounds over core's production operators match them over the reference's",
		checkCore: checkCoreInflationary},
	{Name: "core-wellfounded", Kind: KindCoreNoFlip,
		Doc:       "valid interpretation matches the well-founded reading via Proposition 5.4",
		checkCore: checkCoreWellFounded},
	{Name: "dlog-theorem62", Kind: KindDatalogFree,
		Doc:          "Theorem 6.2: the algebra= translation preserves certain and undefined parts",
		checkDatalog: checkDlogTheorem62},
	{Name: "dlog-theorem43", Kind: KindDatalogStratified,
		Doc:          "Theorem 4.3: the positive-IFP translation matches stratified evaluation",
		checkDatalog: checkDlogTheorem43},
	{Name: "dlog-minimal", Kind: KindDatalogPositive,
		Doc:          "positive programs: minimal = inflationary = valid",
		checkDatalog: checkDlogMinimal},
	{Name: "dlog-stratified", Kind: KindDatalogStratified,
		Doc:          "stratifiable programs: stratified = well-founded = valid, all total",
		checkDatalog: checkDlogStratified},
	{Name: "dlog-stable", Kind: KindDatalogFree,
		Doc:          "every stable model is total and extends the well-founded model, which is the only one when it is total",
		checkDatalog: checkDlogStable},
	{Name: "dlog-stream", Kind: KindDatalogFree,
		Doc:          "valid models through Prop 6.1 agree on the production path and on the reference evaluator",
		checkDatalog: checkDlogStream},
	{Name: "dlog-ivm", Kind: KindDatalogIVM,
		Doc:          "incremental view maintenance replays a mutation schedule bit-for-bit like from-scratch recompute",
		checkDlogIVM: checkDlogIVM},
	{Name: "dlog-storage", Kind: KindDatalogIVM,
		Doc:          "memory and disk storage backends stay bit-for-bit identical under a mutation schedule, through evaluation and reopen",
		checkDlogIVM: checkDlogStorage},
	{Name: "dlog-relational", Kind: KindDatalogStored,
		Doc:         "stratified programs over stored relations: relational evaluation is bit-for-bit the grounded reference, under every semantics that reads them",
		checkDlogDB: checkDlogRelational("dlog-relational")},
	{Name: "dlog-relational-free", Kind: KindDatalogStoredFree,
		Doc:         "programs with negation through recursion over stored relations: the relational three-valued evaluation is bit-for-bit the grounded reference, undefined facts included, under valid and well-founded",
		checkDlogDB: checkDlogRelational("dlog-relational-free")},
}

// ByName returns the oracle with the given name.
func ByName(name string) (*Oracle, bool) {
	for _, o := range Oracles {
		if o.Name == name {
			return o, true
		}
	}
	return nil, false
}

// ExprBudget bounds the algebra/core pipelines inside every oracle. The caps
// are deliberately modest: instances are small, and a cheap cap turns the
// occasional divergent fixpoint into a skip instead of a stall.
var ExprBudget = algebra.Budget{MaxIFPIters: 500, MaxSetSize: 100_000}

// GroundBudget bounds grounding inside every deductive pipeline.
var GroundBudget = ground.Budget{MaxAtoms: 60_000, MaxRules: 250_000}

// skippable reports whether the error is resource exhaustion (an algebra or
// grounding budget) rather than a comparable outcome.
func skippable(err error) bool {
	var be *ground.BudgetError
	return errors.Is(err, algebra.ErrBudget) || errors.As(err, &be)
}

// pairErr folds the error results of two paired pipelines into the oracle
// verdict for the error dimension: skip (nil, done=true) when either side
// exhausted a budget or both failed, a Divergence when exactly one side
// failed outright, and done=false when both succeeded and the caller should
// compare values.
func pairErr(oracle, left, right string, errL, errR error) (done bool, err error) {
	if errL == nil && errR == nil {
		return false, nil
	}
	if skippable(errL) || skippable(errR) {
		return true, nil
	}
	if errL != nil && errR != nil {
		return true, nil // agreeing failure (e.g. both reject the instance)
	}
	if errL != nil {
		return true, diverge(oracle, "%s failed where %s succeeded: %v", left, right, errL)
	}
	return true, diverge(oracle, "%s failed where %s succeeded: %v", right, left, errR)
}

// diffSets returns a Divergence when two sets differ, naming what they are.
func diffSets(oracle, what string, a, b value.Set) error {
	if value.Equal(a, b) {
		return nil
	}
	return diverge(oracle, "%s differs:\n  left:  %v\n  right: %v\n  left−right: %v\n  right−left: %v",
		what, a, b, a.Diff(b), b.Diff(a))
}

// diffSetMaps compares two named-set maps key by key (and requires equal key
// sets).
func diffSetMaps(oracle, what string, a, b map[string]value.Set) error {
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if aok != bok {
			return diverge(oracle, "%s: set %q present on one side only", what, k)
		}
		if err := diffSets(oracle, fmt.Sprintf("%s: set %q", what, k), av, bv); err != nil {
			return err
		}
	}
	return nil
}

// Instance is one generated instance bound to its oracle. Exactly the
// fields matching the oracle's Kind are set.
type Instance struct {
	// Oracle is the oracle pair this instance feeds.
	Oracle *Oracle
	// Expr and DB are set for the expression kinds.
	Expr algebra.Expr
	// Core and DB are set for the algebra= kinds.
	Core *core.Program
	// Dlog is set for the deductive kinds.
	Dlog *datalog.Program
	// Sched is the mutation schedule for KindDatalogIVM.
	Sched []randgen.FactBatch
	// DB is the database for the expression and algebra= kinds, and the
	// stored part of a KindDatalogStored or KindDatalogStoredFree instance.
	DB algebra.DB
}

// Generate draws the oracle's instance family from the generator.
func Generate(o *Oracle, g *randgen.Gen) *Instance {
	in := &Instance{Oracle: o}
	switch o.Kind {
	case KindExpr:
		ei := g.ExprInstance()
		g.SubtractProduct(ei)
		g.FlatJoin(ei)
		in.Expr, in.DB = ei.Expr, ei.DB
	case KindIFPExpr:
		ei := g.IFPExprInstance()
		in.Expr, in.DB = ei.Expr, ei.DB
	case KindCore:
		ci := g.CoreInstance(true)
		g.FlatCore(ci)
		in.Core, in.DB = ci.Prog, ci.DB
	case KindCoreNoFlip:
		ci := g.CoreInstance(false)
		in.Core, in.DB = ci.Prog, ci.DB
	case KindDatalogPositive:
		in.Dlog = g.Datalog(randgen.DlogPositive)
	case KindDatalogStratified:
		in.Dlog = g.Datalog(randgen.DlogStratified)
	case KindDatalogFree:
		in.Dlog = g.Datalog(randgen.DlogFree)
	case KindDatalogIVM:
		// The schedule draws from the same Gen after the program, extending
		// the deterministic stream without touching other kinds' output.
		in.Dlog = g.Datalog(randgen.DlogStratified)
		in.Sched = g.FactSchedule()
	case KindDatalogStored:
		si := g.StoredDatalog()
		in.Dlog, in.DB = si.Prog, si.DB
	case KindDatalogStoredFree:
		si := g.StoredFreeDatalog()
		in.Dlog, in.DB = si.Prog, si.DB
	default:
		panic(fmt.Sprintf("diffcheck: unknown kind %d", o.Kind))
	}
	return in
}

// Check runs the instance through the oracle's paired pipelines. It returns
// nil when they agree (or the instance was skipped on a budget), and a
// *Divergence when they disagree.
func (in *Instance) Check() error {
	switch {
	case in.Oracle.checkExpr != nil:
		return in.Oracle.checkExpr(in.Expr, in.DB)
	case in.Oracle.checkCore != nil:
		return in.Oracle.checkCore(in.Core, in.DB)
	case in.Oracle.checkDlogIVM != nil:
		return in.Oracle.checkDlogIVM(in.Dlog, in.Sched)
	case in.Oracle.checkDlogDB != nil:
		return in.Oracle.checkDlogDB(in.Dlog, in.DB)
	default:
		return in.Oracle.checkDatalog(in.Dlog)
	}
}

// Size is the instance's size in atoms: expression AST nodes plus database
// elements for the algebraic kinds, rules plus body literals for the
// deductive kinds (plus schedule facts and stored elements where the kind has
// them). Shrinking minimizes this metric.
func (in *Instance) Size() int {
	switch {
	case in.Expr != nil:
		return countNodes(in.Expr) + dbElems(in.DB)
	case in.Core != nil:
		n := 0
		for _, d := range in.Core.Defs {
			n += 1 + countNodes(d.Body)
		}
		return n + dbElems(in.DB)
	default:
		n := 0
		for _, r := range in.Dlog.Rules {
			n += 1 + len(r.Body)
		}
		for _, b := range in.Sched {
			n += len(b.Insert) + len(b.Delete)
		}
		return n + dbElems(in.DB)
	}
}

// Render returns a stable, human-readable dump of the instance for repro
// files: database relations in sorted name order, then the program or
// expression text.
func (in *Instance) Render() string {
	var sb strings.Builder
	if in.DB != nil {
		names := make([]string, 0, len(in.DB))
		for n := range in.DB {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "%s = %s\n", n, in.DB[n])
		}
	}
	switch {
	case in.Expr != nil:
		fmt.Fprintf(&sb, "expr: %s\n", in.Expr)
	case in.Core != nil:
		sb.WriteString(in.Core.String())
	default:
		sb.WriteString(in.Dlog.String())
		if len(in.Sched) > 0 {
			sb.WriteString(randgen.RenderSchedule(in.Sched))
		}
	}
	return sb.String()
}

// dbElems counts the elements across all database relations.
func dbElems(db algebra.DB) int {
	n := 0
	for _, s := range db {
		n += s.Len()
	}
	return n
}
