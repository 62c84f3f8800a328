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
	// Interrupt, when non-nil, is polled between fixpoint rounds and, inside
	// one, every 4 096 elements of any loop over a set: the pairs of a product
	// being built, the elements a difference probes, a σ or MAP scan, the rows
	// a join tries. Once the channel is closed, evaluation stops with
	// an error wrapping ErrCanceled. Callers with a context map ctx.Done()
	// here, which turns a deadline or client disconnect into a structured
	// outcome instead of a wedged evaluation.
	Interrupt <-chan struct{}
}

// The caps a zero-valued Budget field stands for.
const (
	defaultMaxIFPIters = 100_000
	defaultMaxSetSize  = 5_000_000
)

// WithDefaults returns b with every zero-valued cap replaced by its default.
func (b Budget) WithDefaults() Budget {
	if b.MaxIFPIters <= 0 {
		b.MaxIFPIters = defaultMaxIFPIters
	}
	if b.MaxSetSize <= 0 {
		b.MaxSetSize = defaultMaxSetSize
	}
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

// Evaluator evaluates algebra expressions against a database. It is the one
// value evaluator: the two-valued algebra's, and — with the Pos and Neg
// overlays set — the three-valued one internal/core reads algebra= through.
type Evaluator struct {
	DB     DB
	Budget Budget
	// Pos and Neg overlay DB for names at positive and negative occurrences:
	// an occurrence is negative inside an odd number of subtrahends and
	// flips, which is the paper's "inversion of T and F for membership" in
	// executable form. internal/core sets them to the current bounds of the
	// defined sets — Pos = lower and Neg = upper computes a certain lower
	// bound, swapped a possible upper bound. Left nil, every occurrence reads
	// DB and Flip is the identity.
	Pos, Neg map[string]value.Set

	obs obsv.Collector
	ref bool // NewReference's evaluator
}

// NewEvaluator returns the production evaluator over db with the given
// budget. The process-default observability collector is captured at
// construction.
func NewEvaluator(db DB, budget Budget) *Evaluator {
	return &Evaluator{DB: db, Budget: budget.WithDefaults(), obs: obsv.Default()}
}

// NewReference returns the reference evaluator over db, the one every
// production path is checked against:
//   - operators are materialized one by one instead of planned into joins
//     (join.go): σ over a product builds the product and scans it, prefix probes are off (access.go), and a diff
//     materializes its subtrahend even where that means building the
//     products it subtracts (evalDiff);
//   - every IFP iterates naively, re-evaluating its body on the whole
//     accumulator, instead of semi-naively on the last round's delta.
//
// Results are identical to NewEvaluator's on error-free evaluations, and for
// diff on failing ones too; only budget boundaries differ (the reference
// also bounds intermediate products, a join only its output). Only oracles and tests call it.
func NewReference(db DB, budget Budget) *Evaluator {
	ev := NewEvaluator(db, budget)
	ev.ref = true
	return ev
}

// SetCollector replaces the observability collector captured at
// construction; nil disables event reporting.
func (ev *Evaluator) SetCollector(c obsv.Collector) { ev.obs = c }

// Eval evaluates the expression, at positive polarity, to a finite set.
func (ev *Evaluator) Eval(e Expr) (value.Set, error) {
	return ev.eval(e, true, nil)
}

// eval evaluates at the given polarity under local bindings of IFP
// variables (a simple map copied on IFP entry — IFP nesting is shallow in
// practice). ∪, ×, σ, MAP and IFP preserve polarity; − and Flip invert it
// for their subtrahend and operand. An IFP variable is a local binding,
// identical at both polarities.
func (ev *Evaluator) eval(e Expr, positive bool, local map[string]value.Set) (value.Set, error) {
	switch ee := e.(type) {
	case Rel:
		if s, ok := local[ee.Name]; ok {
			return s, nil
		}
		env := ev.Pos
		if !positive {
			env = ev.Neg
		}
		if s, ok := env[ee.Name]; ok {
			return s, nil
		}
		if s, ok := ev.DB[ee.Name]; ok {
			return s, nil
		}
		return value.Set{}, fmt.Errorf("algebra: unknown relation %q", ee.Name)
	case Lit:
		return ee.Set, nil
	case Union:
		l, err := ev.eval(ee.L, positive, local)
		if err != nil {
			return value.Set{}, err
		}
		r, err := ev.eval(ee.R, positive, local)
		if err != nil {
			return value.Set{}, err
		}
		return ev.checkSize(l.Union(r))
	case Diff:
		return ev.evalDiff(ee, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, positive, local)
		}, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, !positive, local)
		})
	case Product:
		l, err := ev.eval(ee.L, positive, local)
		if err != nil {
			return value.Set{}, err
		}
		r, err := ev.eval(ee.R, positive, local)
		if err != nil {
			return value.Set{}, err
		}
		return evalProduct(l, r, ev.Budget)
	case Select:
		return ev.evalSelect(ee, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, positive, local)
		})
	case Map:
		return ev.evalMap(ee, func(sub Expr) (value.Set, error) {
			return ev.eval(sub, positive, local)
		})
	case IFP:
		useDelta := !ev.ref && DeltaDistributive(ee.Body, ee.Var)
		return runIFP(ee.Var, local, ev.Budget, useDelta, ev.obs, func(inner map[string]value.Set) (value.Set, error) {
			return ev.eval(ee.Body, positive, inner)
		})
	case Flip:
		// Correlation annotation (see Flip): the operand is read at the
		// opposite polarity.
		return ev.eval(ee.E, !positive, local)
	case Call:
		return value.Set{}, fmt.Errorf("algebra: call to %q but no definitions are in scope (use internal/core for algebra= programs)", ee.Name)
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
