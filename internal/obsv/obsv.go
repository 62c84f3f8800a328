// Package obsv is the observability layer of the repository: a small event
// vocabulary describing what the engines did — fixpoint passes, delta sizes,
// grounding passes, translation sizes, view maintenance batches, which engine
// evaluated a datalog request or an algebra query, what a difference probed,
// experiment run cost — plus collectors that aggregate or stream those
// events.
//
// A Collector has one method, Collect(Event). An Event is a value of one of
// the *Stats types below, each of which names its own JSONL kind. Instrumented
// code holds a Collector and reports events at *call* granularity (one event
// per fixpoint computation, one per grounding, one per translation), never
// from inside a hot loop; a nil Collector means disabled, and every
// instrumentation site is guarded by a nil check, so the kernels pay nothing
// when observability is off. That contract is benchmark-verified:
// BenchmarkCollectorOff (repository root) must stay within noise of the
// pre-instrumentation kernel.
//
// Collectors:
//
//   - *Stats folds events into named counters (thread-safe; Snapshot /
//     Snapshot.Sub give per-phase deltas). cmd/bench attributes counters to
//     experiments with it and embeds them in the machine-readable record
//     that EXPERIMENTS.md's tables are generated from.
//   - *JSONL streams every event as one JSON object per line (cmd/bench
//     -trace).
//   - Multi fans one event out to several collectors.
//   - Func adapts a function, for a collector that picks out a few kinds
//     with a type switch (the Theorem 3.5 construction reads IFP rounds so).
//
// A new event kind is one struct, one kind line beside the others, and one
// case in Stats.Collect naming its counters; every collector above handles
// it from then on.
//
// The process-wide default collector (SetDefault / Default) is how events
// escape code that constructs its own engines internally: engine
// constructors capture Default() at construction time, so installing a
// collector before a run observes everything the run does, at zero cost to
// runs that never install one.
package obsv

import "sync/atomic"

// FixpointStats describes one completed fixpoint computation of a semantics
// engine: one call to Minimal, Inflationary, WellFounded, Valid or
// Stratified.
type FixpointStats struct {
	// Semantics names the entry point: "minimal", "inflationary",
	// "wellfounded", "valid", "stratified".
	Semantics string
	// Passes counts the semantics' own iteration unit: alternating gamma
	// iterations for wellfounded/valid, inflationary steps after step 0,
	// strata for stratified, and 1 for the single least-fixpoint pass of
	// minimal.
	Passes int
	// Atoms is the size of the ground program's atom universe.
	Atoms int
	// Derived is the number of atoms true in the computed model (the
	// true entries of the final truth vector; for three-valued semantics,
	// the certainly-true set).
	Derived int
	// Deltas holds per-pass growth where the semantics computes it anyway
	// (the inflationary engine's per-step head counts). Nil when the
	// semantics has no per-pass delta.
	Deltas []int
}

// StableSearchStats describes one StableModels search.
type StableSearchStats struct {
	Undef      int    // residual size after the well-founded model
	Candidates uint64 // candidate masks checked (2^Undef)
	Models     int    // stable models found
}

// IFPStats describes one completed IFP fixpoint evaluation of a set
// expression by internal/algebra's Evaluator — two-valued, or inside one of
// internal/core's bound passes.
type IFPStats struct {
	// Mode is "seminaive" when the delta engine evaluated the body only on
	// the per-round delta (the body is distributive over union in the
	// fixpoint variable), "naive" when every round re-evaluated the body on
	// the full accumulator (a non-distributive body, or the reference,
	// algebra.NewReference).
	Mode string
	// Rounds counts body evaluations, including the final unchanged round
	// that detects the fixpoint.
	Rounds int
	// Result is the cardinality of the fixpoint.
	Result int
	// Deltas holds the per-round growth of the accumulator (the delta sizes
	// driving the semi-naive engine; the last entry is always 0).
	Deltas []int
}

// CoreEvalStats describes one algebra= program evaluation by internal/core:
// one EvalValid or EvalInflationary call.
type CoreEvalStats struct {
	// Semantics is "valid" or "inflationary".
	Semantics string
	// Defs is the number of defined constants after inlining.
	Defs int
	// Gammas counts Γ passes: two per alternation round for "valid", always
	// 1 for "inflationary" (its rounds are global).
	Gammas int
	// Rounds is the total number of evaluation rounds summed over Γ passes.
	Rounds int
	// Evals counts definition bodies evaluated: every definition, every round.
	Evals int
}

// GroundStats describes one grounding (ground.Ground call).
type GroundStats struct {
	Atoms  int // ground atoms numbered
	Rules  int // ground rules emitted
	Passes int // delta-driven passes after pass 0
}

// TranslateStats describes one translation between the paradigms.
type TranslateStats struct {
	// Op names the translation: "alg2dlog" (Prop 5.1), "core2dlog"
	// (Prop 5.4), "dlog2core" (Prop 6.1), "stepindex" (Prop 5.2),
	// "strat2ifp" (Thm 4.3), "elimifp" (Thm 3.5).
	Op string
	// InSize and OutSize measure the syntactic object on each side of the
	// translation: rule counts for deductive programs, definition counts
	// for algebra= programs, and — for the expression input of "alg2dlog" —
	// the number of subexpressions translated (one fresh predicate each).
	InSize  int
	OutSize int
	// Steps is the step-index bound for "stepindex" and "elimifp"; 0
	// elsewhere.
	Steps int
}

// ServerStats describes one HTTP request completed by the resident query
// service (internal/server): the route, the query's language and semantics,
// the structured outcome, how the request interacted with the compiled-plan
// cache, and its wall time. One event per request, emitted by the server's
// route wrapper when the handler returns.
type ServerStats struct {
	// Route is the endpoint that served the request: "query", "dbs",
	// "facts", "snapshot", "restore", "subscribe", "metrics" or "healthz".
	Route string
	// Language and Semantics echo the query request ("" on non-query
	// routes and on requests rejected before decoding).
	Language  string
	Semantics string
	// Code is "" for a successful request, else the structured error code
	// of the JSON error body ("parse-error", "unknown-database",
	// "budget-exceeded", "timeout", ...).
	Code string
	// CacheLookup reports that the request consulted the plan cache at
	// all — false for requests rejected before the lookup (malformed
	// body, unknown database, draining), so hit/miss counters only cover
	// requests that could have hit.
	CacheLookup bool
	// CacheHit reports that the compiled plan was served from the LRU
	// cache; Compiled reports that this request performed the compilation
	// (the singleflight leader — concurrent identical queries see
	// Compiled on exactly one request).
	CacheHit bool
	Compiled bool
	// WallNS is the request's wall-clock time in nanoseconds.
	WallNS int64
}

// SubscriptionStats describes one completed long-lived query subscription
// (internal/server POST /v1/subscribe): how the standing query was
// maintained, how many deltas the client received, and how backpressure was
// resolved. One event per subscription, emitted when its stream closes.
type SubscriptionStats struct {
	// Language and Semantics echo the subscribed query.
	Language  string
	Semantics string
	// Mode is the ivm.View maintenance mode: "incremental" or "recompute".
	Mode string
	// Events counts delta events written to the client (the initial
	// snapshot event included).
	Events int
	// Coalesced counts database versions folded into an already-pending
	// delta because the client had not drained the previous event yet.
	Coalesced int
	// Reason says why the subscription ended: "client-gone" (the client
	// disconnected or its context expired), "drain" (server shutdown),
	// "slow-consumer" (the pending delta outgrew the backpressure cap),
	// "db-replaced" (the database was re-registered wholesale), or "error"
	// (maintenance failed).
	Reason string
	// WallNS is the subscription's total lifetime in nanoseconds.
	WallNS int64
}

// StreamStats describes one evaluation by the planned runtime of
// internal/algebra: a σ over a product evaluated as one eager join, with
// pushdown, range-probe and sorted-copy steps, or a selection answered by a
// prefix probe of its operand's sorted order. One event per join or probed
// selection, emitted after the result set is built.
type StreamStats struct {
	// Op names the evaluated operator: always "select".
	Op string
	// Leaves counts the evaluated leaf sets feeding the join.
	Leaves int
	// Scanned counts the elements actually read from the leaves: a leaf that
	// is scanned, filtered or sorted by its join key counts every candidate
	// its pushed constant conjuncts left, once; a leaf read through its
	// sorted order counts what each probe returned. A join whose driving scan
	// is empty reads nothing.
	Scanned int
	// Probes counts binary-search prefix-range probes (value.Set.PrefixRange)
	// of a leaf's sorted order: one per constant key of a narrowed scan, one
	// per bound row of a range-probe join step.
	Probes int
	// Tested counts complete-test evaluations on assembled elements; Emitted
	// counts elements that passed.
	Tested  int
	Emitted int
	// Result is the cardinality of the result set.
	Result int
	// HashJoins counts keyed indexes built: the copies of a leaf sorted by
	// its join key (on first use — a step no row reaches builds none);
	// Pushed counts conjuncts pushed into leaf scans.
	HashJoins int
	Pushed    int
}

// DiffStats describes one difference evaluated by internal/algebra's
// Evaluator, two-valued or inside one of internal/core's bound passes. One event per evaluation — a difference inside a
// fixpoint body reports once per round.
type DiffStats struct {
	// Path is "probing" when the subtrahend's ∪/× spine reaches a product and
	// the minuend was filtered by membership lookups in the spine's leaves, so
	// that no product was built; "materialized" when the subtrahend was
	// evaluated to a set and merged against.
	Path string
	// Probed counts the elements of the minuend tested against the spine and
	// Lookups the binary-search set lookups that took (probing only).
	Probed  int
	Lookups int
	// Kept is the cardinality of the result.
	Kept int
	// Leaves counts the subtrahend sets evaluated: the leaves under the spine
	// when probing, the one materialized subtrahend otherwise.
	Leaves int
}

// IVMStats describes one mutation batch applied to a maintained view
// (internal/ivm View.Apply): how the view is maintained, what each component
// of the program had to do, and what the batch cost. One event per Apply.
type IVMStats struct {
	// Mode is the view's maintenance mode: "incremental" or "recompute".
	Mode string
	// Inserted and Deleted are the sizes of the batch's fact lists.
	Inserted int
	Deleted  int
	// Units lists, for an incremental view, the components of the predicate
	// dependency graph the batch gave work to, bottom-up. After a fallback
	// (Rebuilt) they are the rebuild's.
	Units []IVMUnit
	// Steps counts join steps charged against the batch's work budget — rows
	// tried against an atom plus completed rule bodies; Probes counts index
	// probes (row hash or column postings), Scans full-table scans. After a
	// fallback Steps is the rebuild's; Probes and Scans cover both attempts.
	Steps  int
	Probes int
	Scans  int
	// Rebuilt reports the fallback: the batch outran its work budget and the
	// view was rebuilt from its base facts instead.
	Rebuilt bool
	// DeltaFacts is the number of fact changes in the resulting delta.
	DeltaFacts int
}

// IVMUnit is one component's share of a maintained batch.
type IVMUnit struct {
	// Preds are the component's predicates, sorted.
	Preds []string
	// Strategy is "counting" (non-recursive: signed support counts), "dred"
	// (recursive: over-delete, re-derive, insert) or "rebuild" (evaluated
	// from scratch — the fallback).
	Strategy string
	// OverDeleted and Rederived are DRed's phase counts: rows that lost their
	// derivable flag, and rows among them a surviving derivation was found
	// for head-bound (the rest are re-derived forward, or gone).
	OverDeleted int
	Rederived   int
	// Steps is the component's share of IVMStats.Steps.
	Steps int
}

// RelStats describes how one datalog evaluation by query.Execute ran: on the
// relational rule kernel (internal/datalog/rel), straight over ID tables, or
// through grounding — and then why — and what it had the database version's
// fact base derive. One event per datalog evaluation, and one per algebra
// expression or algebra= script evaluated on the kernel (see AlgebraStats).
type RelStats struct {
	// Engine is "relational" or "grounded" for datalog, "algebra" for an
	// algebra expression or algebra= script compiled to rules.
	Engine string
	// Fallback says why a grounded evaluation could not run relationally:
	// "unstratified" (under stratified, negation through recursion; under
	// minimal, any negation — either way the semantics' engine rejects the
	// program), "semantics" (inflationary and stable have no relational
	// reading) or "unplannable rule". Empty for a relational evaluation.
	Fallback string
	// BaseHit reports that the fact base already held everything the request
	// needed of it; otherwise BaseRows, BaseIndexes and BaseKeys count what
	// this request derived first: database rows converted into ID tables,
	// column posting indexes built, fact keys rendered.
	BaseHit     bool
	BaseRows    int
	BaseIndexes int
	BaseKeys    int
	// Units lists the components of the predicate dependency graph that did
	// work, bottom-up (relational only).
	Units []RelUnit
	// Steps counts join steps — rows tried against an atom plus completed rule
	// bodies, the unit Options.Ground.MaxRules bounds on this path; Probes
	// counts index probes (row hash or column postings), Scans full-table
	// scans; Rows is the number of facts the evaluation holds as members when
	// it ends, database facts it read included (what MaxAtoms bounds).
	Steps  int
	Probes int
	Scans  int
	Rows   int
}

// RelUnit is one component's share of a relational evaluation.
type RelUnit struct {
	// Preds are the component's predicates, sorted.
	Preds []string
	// Recursive reports a component closed semi-naively from a worklist; a
	// non-recursive one runs each of its rules once.
	Recursive bool
	// Steps, Probes and Scans are the component's shares of the evaluation's;
	// Rows is the number of facts it derived.
	Steps  int
	Probes int
	Scans  int
	Rows   int
	// Scanned names the relations the component read by a full scan, sorted.
	Scanned []string
	// Alternations and Flips say how negation through recursion was evaluated:
	// a component that negates its own predicates is three-valued, and after
	// closing its possible and its true rows once, the two halves take turns
	// maintaining each other — Alternations counts the pairs of turns begun, Flips
	// the rows a turn made true or no longer possible. Both are zero for every
	// other component.
	Alternations int
	Flips        int
}

// AlgebraStats says which engine answered one algebra or ifp-algebra
// expression, or one algebra= script, query.Execute evaluated: the
// relational rule kernel, or else the value-space evaluator of
// internal/algebra (an expression) or internal/core (a script under valid or
// inflationary), or the grounded translation of internal/translate (a script
// under wellfounded or stable) — and then why. One event per evaluation; a
// kernel evaluation also reports a RelStats event (engine "algebra") with
// its join work.
type AlgebraStats struct {
	// Engine is "kernel", "value", "core" or "grounded".
	Engine string
	// Fallback says why the kernel did not run: "point" (a recursion-free
	// plan selecting a leaf by a constant, which the access paths answer),
	// "outside-fragment" (the source is not a flat join, or a script not in
	// the flat fragment), "flip" and "subtrahend" (a script with a flip, or
	// with a diff inside a subtrahend), "shape" (a stored relation is absent
	// or not of the width the plan reads), "stored-name" (the database
	// stores a relation under a def's name), "semantics" (a script under a
	// semantics other than valid, which the kernel does not run). Empty on
	// the kernel.
	Fallback string
}

// ExperimentStats describes one experiment run by the internal/expt harness.
type ExperimentStats struct {
	ID     string // experiment id (E1..E11)
	WallNS int64  // wall-clock nanoseconds
	CPUNS  int64  // process CPU nanoseconds (0 when unattributable)
}

// Event is one observability event: a value of one of the *Stats types
// above, which are its only implementations. The unexported kind method
// names the event on the wire (the JSONL "event" field).
type Event interface{ kind() string }

func (FixpointStats) kind() string     { return "fixpoint" }
func (IFPStats) kind() string          { return "ifp" }
func (CoreEvalStats) kind() string     { return "core_eval" }
func (StableSearchStats) kind() string { return "stable_search" }
func (GroundStats) kind() string       { return "ground" }
func (TranslateStats) kind() string    { return "translate" }
func (ExperimentStats) kind() string   { return "experiment" }
func (ServerStats) kind() string       { return "server" }
func (SubscriptionStats) kind() string { return "subscription" }
func (StreamStats) kind() string       { return "stream" }
func (IVMStats) kind() string          { return "ivm" }
func (RelStats) kind() string          { return "rel" }
func (DiffStats) kind() string         { return "diff" }
func (AlgebraStats) kind() string      { return "algebra" }

// Collector receives observability events, one Collect call per event, the
// event passed by value. Implementations must be safe for concurrent use:
// the server's concurrent requests report from multiple goroutines.
//
// A nil Collector means observability is disabled; instrumented code checks
// for nil before building an event, so disabled instrumentation costs one
// predictable branch per engine call.
type Collector interface {
	Collect(Event)
}

// Func adapts a function to a Collector, for a collector that cares about
// a few event kinds: a type switch over the event picks them out.
type Func func(Event)

// Collect calls f(e).
func (f Func) Collect(e Event) { f(e) }

// multi fans events out to several collectors in order.
type multi []Collector

// Multi returns a Collector that forwards every event to each non-nil
// collector in cs, in order. With zero or one non-nil collectors it returns
// nil or that collector directly.
func Multi(cs ...Collector) Collector {
	var live multi
	for _, c := range cs {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Collect forwards e to each collector in order.
func (m multi) Collect(e Event) {
	for _, c := range m {
		c.Collect(e)
	}
}

// holder wraps a Collector so a nil value can round-trip through
// atomic.Value (which rejects nil and requires a consistent concrete type).
type holder struct{ c Collector }

var def atomic.Value // holder

// SetDefault installs the process-wide default collector; nil disables it.
// Engine constructors and package-level entry points capture Default() when
// they start, so SetDefault takes effect for engines built afterwards.
func SetDefault(c Collector) { def.Store(holder{c}) }

// Default returns the process-wide default collector, or nil when none is
// installed — the zero-overhead disabled state.
func Default() Collector {
	if h, ok := def.Load().(holder); ok {
		return h.c
	}
	return nil
}
