package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/semantics"
	"algrec/internal/translate"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Options are the per-request knobs of one Execute call. The zero value
// applies the engines' default budgets, no cancellation, and the CLIs'
// default stable-search bound.
type Options struct {
	// Budget caps the algebra-side evaluation (IFP iterations, set sizes,
	// call depth) and carries the Interrupt cancellation channel polled
	// between fixpoint rounds.
	Budget algebra.Budget
	// Ground caps the deductive pipelines (datalog, and the translation-based
	// wellfounded/stable readings of algebra=); its Interrupt channel also
	// cancels the stable-model search. Where a datalog program is grounded,
	// MaxAtoms and MaxRules bound the ground program's atoms and rules; where
	// it is evaluated relationally (see Execute) they bound the facts the
	// evaluation stores — database facts it reads included; of a three-valued
	// predicate the possible ones, true or undefined — and its join steps, all
	// rounds of an alternation together. Either way exceeding one is
	// "budget-exceeded".
	Ground ground.Budget
	// MaxUndef bounds the residual size of a stable-model search
	// (0 = the CLIs' default of 24).
	MaxUndef int
}

// DefaultMaxUndef is the stable-search residual bound used when
// Options.MaxUndef is zero — the same default as the -max-undef CLI flag.
const DefaultMaxUndef = 24

// NamedSet is one defined constant's content in an Outcome: the certain
// elements and, under three-valued semantics, the elements whose membership
// is undefined.
type NamedSet struct {
	Name  string
	Set   value.Set
	Undef value.Set
}

// QueryAnswer is the answer to one `query` statement of an algebra= script.
type QueryAnswer struct {
	Src   string
	Set   value.Set
	Undef value.Set
}

// PredFacts is one predicate's content in a datalog Outcome, as fact keys
// ("tc(a, b)") in the engines' deterministic order (datalog.CompareFacts).
// Every path that builds an outcome renders a predicate's facts once
// (rel.SortedKeys, rel.FactKeys): TrueJSON and UndefJSON hold the keys as JSON
// strings, comma-separated — the body of the JSON array a response sends —
// and the keys in True and Undef are views into them. All four are read-only:
// for a predicate the program does not add to, True and TrueJSON are the
// database version's own (rel.Base.Keys), shared by every outcome computed
// over that version.
type PredFacts struct {
	Pred      string
	True      []string
	Undef     []string
	TrueJSON  string
	UndefJSON string
}

// DatalogModel is one interpretation of a datalog program: the facts of
// every predicate occurring in the program, sorted by predicate.
type DatalogModel struct {
	Preds []PredFacts
}

// Outcome is the structured result of one Execute call; it may share memory
// with the database it was computed over and with other outcomes (see
// PredFacts), so callers treat it as read-only. Which fields are populated
// depends on the plan's language and semantics:
//
//   - expression languages: HasValue, and the answer through Set and
//     AppendValue;
//   - algebra= under valid/inflationary/wellfounded: Defs, Queries,
//     WellDefined;
//   - algebra= under stable: Models (one per stable reading);
//   - datalog under non-stable semantics: Datalog, IDB;
//   - datalog under stable: DatalogModels, IDB.
type Outcome struct {
	Language  Language
	Semantics Semantics
	// WellDefined reports whether every defined set is total (algebra=
	// under the valid semantics; true elsewhere).
	WellDefined bool
	// HasValue says the outcome is an expression's, whose one answer Set and
	// AppendValue give.
	HasValue bool
	answer   *exprAnswer
	// Defs lists the zero-parameter defined constants in program order.
	Defs []NamedSet
	// Queries answers the script's query statements in order. Under the
	// wellfounded reading the answers are evaluated over the certain
	// (lower-bound) sets, with no undefined part reported.
	Queries []QueryAnswer
	// Models are the stable readings of an algebra= program.
	Models [][]NamedSet
	// Datalog is the interpretation of a datalog program; DatalogModels
	// are its stable models.
	Datalog       *DatalogModel
	DatalogModels []DatalogModel
	// IDB is the sorted list of derived predicates — the default set a
	// renderer prints.
	IDB []string
}

// exprAnswer is an expression's answer: the set the value evaluator computed,
// or the kernel's rows, back to back, with their value order and the answer
// whose shape builds an element from a row — its set built on first demand.
type exprAnswer struct {
	kernel *answer // nil: set is the answer
	ids    []intern.ID
	order  []int32
	once   sync.Once
	set    value.Set
}

// Set returns an expression's answer (the empty set for any other outcome).
// A kernel answer's set is built on the first call, once for every caller.
func (o *Outcome) Set() value.Set {
	ans := o.answer
	if ans == nil {
		return value.Set{}
	}
	ans.once.Do(func() {
		if ans.kernel != nil {
			ans.set, _ = ans.kernel.build(ans.ids, ans.order, algebra.Budget{}.Stop) // no interrupt, no error
		}
	})
	return ans.set
}

// AppendValue appends the text of an expression's answer, byte for byte
// Set().String(), to buf. A kernel answer is written from its rows, without
// building its set; that calls poll, when not nil, before the first element
// and every 4 096 after, and stops at the first error it returns.
func (o *Outcome) AppendValue(buf []byte, poll func() error) ([]byte, error) {
	ans := o.answer
	if ans == nil || ans.kernel == nil {
		return append(buf, o.Set().String()...), nil
	}
	if poll == nil {
		poll = algebra.Budget{}.Stop
	}
	return ans.kernel.appendText(buf, ans.ids, ans.order, poll)
}

// Execute runs a compiled plan against a database under the given options.
// db may be nil (an empty database); the plan is never mutated, so one plan
// can execute concurrently against many databases. For algebra= scripts the
// script's own rel statements overlay the database on name collisions.
//
// A datalog plan is evaluated by one of two engines, chosen by the program
// and the semantics alone (RelationalOK): relationally, straight on ID
// tables, under the valid and well-founded semantics — a stratified program's
// one total model; with negation through recursion the three-valued model
// both assign it, true and possible facts alternating until neither moves —
// under stratified, and under minimal when the program is negation-free; or by
// grounding it and running the semantics' fixpoint over the ground program
// otherwise (inflationary, stable). The outcomes are bit-for-bit the same
// where both apply: grounding is the reference. An
// expression plan that Compile found to be a flat join runs on the same
// kernel when the database fits it, on the value evaluator otherwise
// (kernel.go). Execute is ExecuteBase on a fact base made for this one call;
// a caller that evaluates many plans over one database makes the base once.
func Execute(plan *Plan, db algebra.DB, opts Options) (*Outcome, error) {
	return execute(plan, db, nil, opts, false)
}

// ExecuteBase is Execute against the database a fact base describes (nil:
// the empty database). What evaluation on the relational kernel derives from
// the database before the first rule runs — ID tables, and the rendered keys
// and fact rules read off them — is taken from the base, which derives each
// once and shares it with every concurrent and later call; the value
// evaluator and internal/core only read base.DB().
func ExecuteBase(plan *Plan, base *rel.Base, opts Options) (*Outcome, error) {
	return execute(plan, base.DB(), base, opts, false)
}

// execute is the one path behind the exported entries: base is nil when the
// caller has none for db, and grounded takes the datalog engine choice away.
func execute(plan *Plan, db algebra.DB, base *rel.Base, opts Options, grounded bool) (*Outcome, error) {
	if opts.MaxUndef <= 0 {
		opts.MaxUndef = DefaultMaxUndef
	}
	out := &Outcome{Language: plan.Language, Semantics: plan.Semantics, WellDefined: true}
	switch plan.Language {
	case LangAlgebra, LangIFPAlgebra:
		ans, err := executeAlgebra(plan, db, base, opts)
		if err != nil {
			return nil, err
		}
		out.HasValue, out.answer = true, ans
		return out, nil
	case LangAlgebraEq:
		return executeScript(plan, db, base, opts, out)
	case LangDatalog:
		if base == nil {
			base = rel.NewBase(db)
		}
		return executeDatalog(plan, base, opts, out, grounded)
	default:
		return nil, fmt.Errorf("query: unknown language %q", plan.Language)
	}
}

// ExecuteGrounded is Execute for a datalog plan with the engine choice taken
// away: the program is grounded whatever its shape. It is the reference the
// relational engine is checked against (the dlog-relational oracle), and the
// very path Execute itself takes for programs outside the relational
// fragment.
func ExecuteGrounded(plan *Plan, db algebra.DB, opts Options) (*Outcome, error) {
	if plan.Language != LangDatalog {
		return nil, fmt.Errorf("query: ExecuteGrounded wants a datalog plan, not %s", plan.Language)
	}
	return execute(plan, db, nil, opts, true)
}

// executeScript evaluates an algebra= script under the plan's semantics: under
// valid on the kernel when route allows — over base, which describes db, or
// over a base of its own when the script's rel statements add to db — and on
// internal/core otherwise.
func executeScript(plan *Plan, db algebra.DB, base *rel.Base, opts Options, out *Outcome) (*Outcome, error) {
	script := plan.Script
	merged := db.Clone()
	for k, v := range script.DB {
		merged[k] = v
	}
	var lower, upper map[string]value.Set
	var res *core.Result
	var err error
	switch plan.Semantics {
	case SemValid:
		if base == nil || len(script.DB) > 0 {
			base = rel.NewBase(merged)
		}
		var use rel.BaseUse
		reason := route(plan, base, &use)
		if obs := report("core", reason, use); reason == "" {
			return executeValidKernel(plan, base, use, opts, obs, out)
		}
		if res, err = core.EvalValid(script.Program, merged, opts.Budget); err != nil {
			return nil, err
		}
		lower, upper = res.Lower, res.Upper
	case SemInflationary:
		report("core", "semantics", rel.BaseUse{})
		if lower, err = core.EvalInflationary(script.Program, merged, opts.Budget); err != nil {
			return nil, err
		}
	case SemWellFounded:
		report("grounded", "semantics", rel.BaseUse{})
		if lower, upper, err = translate.WellFoundedSetsBudget(script.Program, merged, opts.Ground); err != nil {
			return nil, err
		}
	case SemStable:
		report("grounded", "semantics", rel.BaseUse{})
		models, err := translate.StableSetsBudget(script.Program, merged, opts.MaxUndef, opts.Ground)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			out.Models = append(out.Models, defSets(script.Program, m, nil))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %s under %s", ErrUnsupportedSemantics, plan.Language, plan.Semantics)
	}
	out.Defs = defSets(script.Program, lower, upper)
	for _, d := range out.Defs {
		out.WellDefined = out.WellDefined && d.Undef.IsEmpty()
	}
	// Under valid a query is read at both bounds of the result; otherwise it
	// reads the certain sets alone.
	certain := algebra.NewEvaluator(merged, opts.Budget)
	certain.Pos, certain.Neg = lower, lower
	for _, q := range script.Queries {
		ans := QueryAnswer{Src: q.Src}
		if res == nil {
			ans.Set, err = certain.Eval(q.Expr)
		} else if ans.Set, err = res.QueryLower(q.Expr); err == nil {
			var up value.Set
			up, err = res.QueryUpper(q.Expr)
			ans.Undef = up.Diff(ans.Set)
		}
		if err != nil {
			return nil, err
		}
		out.Queries = append(out.Queries, ans)
	}
	return out, nil
}

// defSets lists the program's zero-parameter definitions in definition
// order with their certain sets from lower and, when upper is given, their
// undefined elements upper − lower.
func defSets(prog *core.Program, lower, upper map[string]value.Set) []NamedSet {
	var out []NamedSet
	for _, d := range prog.Defs {
		if len(d.Params) > 0 {
			continue
		}
		ns := NamedSet{Name: d.Name, Set: lower[d.Name]}
		if upper != nil {
			ns.Undef = upper[d.Name].Diff(lower[d.Name])
		}
		out = append(out, ns)
	}
	return out
}

// groundingReason says why Execute grounds the plan's program instead of
// evaluating it relationally — "" when it does evaluate it relationally. The
// relational engine computes the one total model of a stratified program,
// which is what the stratified, valid and well-founded semantics all assign
// it (the dlog-stratified oracle pins the agreement) and, for a negation-free
// program, the minimal model; and of a program with negation through
// recursion the three-valued model the valid and well-founded semantics
// share. Everything else goes to the ground program: a program its semantics
// has no reading of ("unstratified": the semantics' engine rejects it), the
// inflationary and stable semantics, or a rule no join order exists for
// (grounding reports it).
func groundingReason(plan *Plan) string {
	switch plan.Semantics {
	case SemValid, SemWellFounded:
	case SemStratified:
		if !datalog.IsStratified(plan.Program) {
			return "unstratified"
		}
	case SemMinimal:
		// The minimal model is only defined engine-side for positive
		// programs; those are trivially stratified.
		if !datalog.IsPositive(plan.Program) {
			return "unstratified"
		}
	default: // stable, inflationary
		return "semantics"
	}
	for _, r := range plan.Program.Rules {
		if r.IsFact() {
			continue
		}
		if _, err := datalog.PlanRuleFrom(r, nil, -1); err != nil {
			return "unplannable rule"
		}
	}
	return ""
}

// RelationalOK reports whether Execute evaluates the datalog plan on the
// relational rule kernel (internal/datalog/rel) — a property of the program
// and the semantics, never of an option.
// The stratified programs among these are what internal/ivm maintains
// incrementally.
func RelationalOK(plan *Plan) bool {
	return plan.Language == LangDatalog && plan.Program != nil && groundingReason(plan) == ""
}

// KernelLimits maps the options' budgets onto the relational kernel's: Ground.
// MaxAtoms bounds the stored facts, Ground.MaxRules the join steps (of one
// evaluation, or of one maintenance batch), with the grounder's defaults for
// zero fields; either interrupt channel cancels.
func KernelLimits(opts Options) rel.Limits {
	lim := rel.Limits{
		MaxRows:    opts.Ground.MaxAtoms,
		MaxSteps:   opts.Ground.MaxRules,
		Interrupts: [2]<-chan struct{}{opts.Budget.Interrupt, opts.Ground.Interrupt},
	}
	if lim.MaxRows <= 0 {
		lim.MaxRows = ground.DefaultBudget.MaxAtoms
	}
	if lim.MaxSteps <= 0 {
		lim.MaxSteps = ground.DefaultBudget.MaxRules
	}
	return lim
}

// executeDatalog evaluates a datalog program over the base's database under
// the plan's semantics: relationally when it can (groundingReason), grounded
// otherwise or when the caller insists. Whichever engine runs reports itself
// — and what it cost, even when it failed — to the process-default collector,
// when there is one.
func executeDatalog(plan *Plan, base *rel.Base, opts Options, out *Outcome, grounded bool) (*Outcome, error) {
	obs := obsv.Default()
	reason := groundingReason(plan)
	if reason == "" && !grounded {
		return executeRelational(plan, base, opts, out, obs)
	}
	var use rel.BaseUse
	out, err := executeGrounded(plan, base, opts, out, &use)
	if obs != nil {
		st := obsv.RelStats{Engine: "grounded", Fallback: reason}
		fillBaseUse(&st, use)
		obs.Collect(st)
	}
	return out, err
}

func fillBaseUse(st *obsv.RelStats, use rel.BaseUse) {
	st.BaseHit = use == rel.BaseUse{}
	st.BaseRows, st.BaseIndexes, st.BaseKeys = use.Rows, use.Indexes, use.Keys
}

// outcomePreds lists the predicates a datalog outcome reports: every
// predicate of the program plus every relation the database stores a fact
// under, sorted.
func outcomePreds(prog *datalog.Program, base *rel.Base) []string {
	preds := prog.Preds()
	stored := base.Names()
	if len(stored) == 0 {
		return preds
	}
	seen := make(map[string]bool, len(preds))
	for _, p := range preds {
		seen[p] = true
	}
	for _, name := range stored {
		if !seen[name] {
			preds = append(preds, name)
		}
	}
	sort.Strings(preds)
	return preds
}

// executeRelational evaluates a program on the relational kernel: the
// relations it only reads are the base's frozen tables, the ones it derives
// into are private to this call, and the components of its dependency graph
// are evaluated bottom-up, semi-naively where recursive. A stratified
// program's model is total; from a component with negation through recursion
// upward a fact may be possible without being true, and is reported
// undefined.
func executeRelational(plan *Plan, base *rel.Base, opts Options, out *Outcome, obs obsv.Collector) (*Outcome, error) {
	eng, err := rel.NewEngine(plan.Program, rel.Config{Base: base, Limits: KernelLimits(opts), Observed: obs != nil})
	if err != nil {
		return nil, err
	}
	if obs != nil {
		defer func() {
			st := obsv.RelStats{
				Engine: "relational", Units: eng.UnitStats,
				Steps: eng.Steps, Probes: eng.Probes, Scans: eng.Scans, Rows: eng.NumRows(),
			}
			fillBaseUse(&st, eng.Use)
			obs.Collect(st)
		}()
	}
	if err := eng.Build(); err != nil {
		return nil, err
	}
	out.IDB = plan.Program.IDB()
	m := &DatalogModel{}
	for _, pred := range outcomePreds(plan.Program, base) {
		pf := PredFacts{Pred: pred}
		if eng.Derives(pred) {
			pf.True, pf.TrueJSON = eng.Keys(pred, false)
			pf.Undef, pf.UndefJSON = eng.Keys(pred, true)
			out.WellDefined = out.WellDefined && len(pf.Undef) == 0
		} else {
			pf.True, pf.TrueJSON = base.Keys(pred, &eng.Use)
		}
		m.Preds = append(m.Preds, pf)
	}
	out.Datalog = m
	return out, nil
}

// executeGrounded evaluates a datalog program by grounding: the database's
// facts are merged into the program as bodyless rules (the base keeps them,
// sorted, per database version), the merged program is grounded, and the
// semantics' engine runs over the ground program.
func executeGrounded(plan *Plan, base *rel.Base, opts Options, out *Outcome, use *rel.BaseUse) (*Outcome, error) {
	prog := plan.Program
	if stored := base.Names(); len(stored) > 0 {
		merged := &datalog.Program{Rules: append([]datalog.Rule{}, prog.Rules...)}
		for _, name := range stored {
			merged.Rules = append(merged.Rules, base.FactRules(name, use)...)
		}
		prog = merged
	}
	out.IDB = plan.Program.IDB()
	// A predicate the plan's program does not add to is, in every model of
	// every semantics, exactly the database's facts: its keys are the base's.
	adds := map[string]bool{}
	for _, r := range plan.Program.Rules {
		adds[r.Head.Pred] = true
	}
	preds := outcomePreds(plan.Program, base)
	snapshot := func(in *semantics.Interp) DatalogModel {
		var m DatalogModel
		for _, pred := range preds {
			pf := PredFacts{Pred: pred}
			if adds[pred] {
				pf.True, pf.TrueJSON = rel.FactKeys(in.FactsWith(pred, semantics.True))
			} else {
				pf.True, pf.TrueJSON = base.Keys(pred, use)
			}
			pf.Undef, pf.UndefJSON = rel.FactKeys(in.FactsWith(pred, semantics.Undef))
			m.Preds = append(m.Preds, pf)
		}
		return m
	}
	if plan.Semantics == SemStable {
		g, err := ground.Ground(prog, opts.Ground)
		if err != nil {
			return nil, err
		}
		e := semantics.NewEngine(g)
		e.SetInterrupt(opts.Ground.Interrupt)
		models, err := e.StableModels(opts.MaxUndef)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			out.DatalogModels = append(out.DatalogModels, snapshot(m))
		}
		return out, nil
	}
	sem, err := mapDatalogSemantics(plan.Semantics)
	if err != nil {
		return nil, err
	}
	in, err := semantics.Eval(prog, sem, opts.Ground)
	if err != nil {
		return nil, err
	}
	m := snapshot(in)
	// Only rule heads can be undefined, and every head's predicate is reported.
	out.Datalog, out.WellDefined = &m, in.IsTotal()
	return out, nil
}

// DBFacts converts a database to datalog facts in the relational idiom:
// each tuple element becomes one fact with the tuple's components as
// arguments (an n-ary relation), each scalar element a unary fact
// (rel.ElemFact). This differs from translate.DBFacts, whose unary
// complex-object encoding serves the paper's simulation theorems — a user
// writing `edge(X, Y)` against a database relation of pairs expects the
// relational reading. It is exported for the callers that replay a
// database as facts outside Execute: the relational diffcheck oracle and
// the benchmark's traced run.
func DBFacts(db algebra.DB) []datalog.Fact {
	var out []datalog.Fact
	for name, s := range db {
		s.Scan(func(elem value.Value) bool {
			out = append(out, rel.ElemFact(name, elem))
			return true
		})
	}
	datalog.SortFacts(out)
	return out
}

// ErrorCode classifies an error from Compile or Execute into the structured
// outcome codes of the serving layer:
//
//	"canceled"              the Interrupt channel fired (the server refines
//	                        this to "timeout" when a deadline caused it)
//	"budget-exceeded"       an evaluation or grounding budget was exhausted,
//	                        or a stable search exceeded its residual bound
//	"unsupported-semantics" the (language, semantics) pair has no reading
//	"parse-error"           Compile rejected the query text
//	"eval-error"            anything else (unknown relation, type error, ...)
func ErrorCode(err error, compile bool) string {
	var be *ground.BudgetError
	switch {
	case errors.Is(err, algebra.ErrCanceled), errors.Is(err, ground.ErrCanceled), errors.Is(err, semantics.ErrCanceled):
		return "canceled"
	case errors.Is(err, algebra.ErrBudget), errors.As(err, &be), errors.Is(err, semantics.ErrTooManyUndef):
		return "budget-exceeded"
	case errors.Is(err, ErrUnsupportedSemantics):
		return "unsupported-semantics"
	case compile:
		return "parse-error"
	default:
		return "eval-error"
	}
}
