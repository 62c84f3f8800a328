package algebra

import (
	"errors"
	"fmt"

	"algrec/internal/obsv"
	"algrec/internal/value"
)

// Budget caps evaluation work. Because the paper's framework has functions
// on domains ("the fixed point operator may generate infinite sets"),
// fixpoint iteration can diverge; the budget turns divergence into a typed
// error.
type Budget struct {
	MaxIFPIters int // maximum iterations of any single IFP (0 = default)
	MaxSetSize  int // maximum cardinality of any intermediate set (0 = default)
	MaxDepth    int // maximum Call nesting depth (0 = default)
	// NoStreaming selects the reference evaluator, the one every production
	// path is checked against:
	//   - operators are materialized one by one instead of planned into lazy
	//     join iterators (streameval.go) — σ over a product builds the product
	//     and scans it — prefix probes are off (access.go), and a diff
	//     materializes its subtrahend even where that means building the
	//     products it subtracts (EvalDiff);
	//   - every IFP iterates naively, re-evaluating its body on the whole
	//     accumulator, instead of semi-naively on the last round's delta;
	//   - internal/core evaluates defining equations in unscheduled
	//     sequential rounds instead of its SCC schedule;
	//   - query.Execute answers an algebra expression on the value evaluator,
	//     not the relational kernel, and internal/ivm maintains a view by
	//     recomputation instead of counting/DRed.
	// Results are identical either way on error-free evaluations, and for diff
	// on failing ones too; only budget boundaries differ (the materialized
	// path also bounds intermediate products). WithDefaults ORs in
	// DefaultBudget.NoStreaming, so a process can select the reference for
	// every evaluator it builds (the CLI golden tests do).
	NoStreaming bool
	// Interrupt, when non-nil, is polled between fixpoint rounds and, inside
	// one, every 4 096 elements of any loop over a set: the pairs of a product
	// being built, the elements a difference probes, a σ or MAP scan, the rows
	// a join pipeline tries. Once the channel is closed, evaluation stops with
	// an error wrapping ErrCanceled. Callers with a context map ctx.Done()
	// here, which turns a deadline or client disconnect into a structured
	// outcome instead of a wedged evaluation.
	Interrupt <-chan struct{}
}

// DefaultBudget is used for zero-valued Budget fields.
var DefaultBudget = Budget{MaxIFPIters: 100_000, MaxSetSize: 5_000_000, MaxDepth: 1_000}

// WithDefaults returns b with every zero-valued cap replaced by the
// corresponding DefaultBudget value, and NoStreaming ORed with
// DefaultBudget's.
func (b Budget) WithDefaults() Budget {
	if b.MaxIFPIters <= 0 {
		b.MaxIFPIters = DefaultBudget.MaxIFPIters
	}
	if b.MaxSetSize <= 0 {
		b.MaxSetSize = DefaultBudget.MaxSetSize
	}
	if b.MaxDepth <= 0 {
		b.MaxDepth = DefaultBudget.MaxDepth
	}
	b.NoStreaming = b.NoStreaming || DefaultBudget.NoStreaming
	return b
}

// ErrBudget is wrapped by all budget-exhaustion errors from evaluation.
var ErrBudget = errors.New("algebra: evaluation budget exceeded")

// ErrCanceled is wrapped by errors reporting that evaluation stopped because
// Budget.Interrupt fired (a timeout or an explicit cancellation).
var ErrCanceled = errors.New("algebra: evaluation canceled")

// Stop returns a non-nil error wrapping ErrCanceled once Interrupt has
// fired, and nil otherwise (including when no Interrupt is set). Fixpoint
// loops call it once per round, product and difference loops every pollEvery
// elements.
func (b Budget) Stop() error {
	if b.Interrupt == nil {
		return nil
	}
	select {
	case <-b.Interrupt:
		return fmt.Errorf("%w (interrupt fired during evaluation)", ErrCanceled)
	default:
		return nil
	}
}

// DB is a database: named finite sets ("a collection of named sets (every
// set is a database 'relation')").
type DB map[string]value.Set

// Clone returns a shallow copy (sets are immutable, so shallow is deep).
func (db DB) Clone() DB {
	out := make(DB, len(db))
	for k, v := range db {
		out[k] = v
	}
	return out
}

// CallResolver resolves a Call node to a result set. It is an extension
// hook for embedding the evaluator with externally-defined operations;
// plain evaluation leaves it nil and rejects Call nodes. Note that algebra=
// programs do NOT go through this hook: internal/core expands definitions
// as macros and gives recursive constants their valid-model semantics.
type CallResolver func(name string, args []value.Set) (value.Set, error)

// Evaluator evaluates algebra expressions against a database.
type Evaluator struct {
	DB     DB
	Budget Budget
	Call   CallResolver

	depth int
	obs   obsv.Collector
}

// NewEvaluator returns an evaluator over db with the given budget. The
// process-default observability collector is captured at construction.
func NewEvaluator(db DB, budget Budget) *Evaluator {
	return &Evaluator{DB: db, Budget: budget.WithDefaults(), obs: obsv.Default()}
}

// SetCollector replaces the observability collector captured at
// construction; nil disables event reporting.
func (ev *Evaluator) SetCollector(c obsv.Collector) { ev.obs = c }

// Eval evaluates the expression to a finite set.
func (ev *Evaluator) Eval(e Expr) (value.Set, error) {
	return ev.eval(e, nil)
}

// eval evaluates under local bindings of IFP variables (nil-safe lookup
// chain kept as a simple map copied on IFP entry — IFP nesting is shallow in
// practice).
func (ev *Evaluator) eval(e Expr, local map[string]value.Set) (value.Set, error) {
	switch ee := e.(type) {
	case Rel:
		if s, ok := local[ee.Name]; ok {
			return s, nil
		}
		if s, ok := ev.DB[ee.Name]; ok {
			return s, nil
		}
		return value.Set{}, fmt.Errorf("algebra: unknown relation %q", ee.Name)
	case Lit:
		return ee.Set, nil
	case Union:
		l, err := ev.eval(ee.L, local)
		if err != nil {
			return value.Set{}, err
		}
		r, err := ev.eval(ee.R, local)
		if err != nil {
			return value.Set{}, err
		}
		return ev.checkSize(l.Union(r))
	case Diff:
		leaf := func(sub Expr) (value.Set, error) { return ev.eval(sub, local) }
		return EvalDiff(ee, ev.Budget, ev.obs, leaf, leaf)
	case Product:
		l, err := ev.eval(ee.L, local)
		if err != nil {
			return value.Set{}, err
		}
		r, err := ev.eval(ee.R, local)
		if err != nil {
			return value.Set{}, err
		}
		return EvalProduct(l, r, ev.Budget)
	case Select:
		return EvalSelect(ee, ev.Budget, ev.obs, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, local)
		})
	case Map:
		return EvalMap(ee, ev.Budget, ev.obs, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, local)
		})
	case IFP:
		useDelta := !ev.Budget.NoStreaming && DeltaDistributive(ee.Body, ee.Var)
		return RunIFP(ee.Var, local, ev.Budget, useDelta, ev.obs, func(inner map[string]value.Set) (value.Set, error) {
			return ev.eval(ee.Body, inner)
		})
	case Flip:
		// Identity on total databases; the annotation only matters to the
		// three-valued evaluator in internal/core.
		return ev.eval(ee.E, local)
	case Call:
		if ev.Call == nil {
			return value.Set{}, fmt.Errorf("algebra: call to %q but no definitions are in scope (use internal/core for algebra= programs)", ee.Name)
		}
		if ev.depth >= ev.Budget.MaxDepth {
			return value.Set{}, fmt.Errorf("%w: call nesting exceeded MaxDepth %d", ErrBudget, ev.Budget.MaxDepth)
		}
		args := make([]value.Set, len(ee.Args))
		for i, a := range ee.Args {
			s, err := ev.eval(a, local)
			if err != nil {
				return value.Set{}, err
			}
			args[i] = s
		}
		ev.depth++
		out, err := ev.Call(ee.Name, args)
		ev.depth--
		return out, err
	default:
		panic(fmt.Sprintf("algebra: unknown Expr %T", e))
	}
}

func (ev *Evaluator) checkSize(s value.Set) (value.Set, error) {
	if s.Len() > ev.Budget.MaxSetSize {
		return value.Set{}, fmt.Errorf("%w: intermediate set of %d elements exceeds MaxSetSize %d", ErrBudget, s.Len(), ev.Budget.MaxSetSize)
	}
	return s, nil
}

// Eval is a convenience wrapper: evaluate e against db with the default
// budget and no definitions in scope.
func Eval(e Expr, db DB) (value.Set, error) {
	return NewEvaluator(db, Budget{}).Eval(e)
}
