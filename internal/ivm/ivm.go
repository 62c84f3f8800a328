// Package ivm maintains materialized query results incrementally under fact
// insertions and deletions — the serving-side counterpart of the semi-naive
// delta engines, which only grow a fixpoint from scratch.
//
// A View binds a compiled query plan (internal/query) to a database and keeps
// its Outcome current as the database mutates. Datalog plans over stratified
// programs are maintained by a delta engine (engine.go) that splits the
// predicate dependency graph into strongly connected components and picks a
// maintenance strategy per component:
//
//   - counting for non-recursive components: every derivation of a fact
//     contributes one support count, and a mutation batch adjusts counts by
//     signed semi-naive delta rules (the pivot literal enumerates the delta,
//     literals before it see the new state, literals after it the old state),
//     so membership flips exactly when the count crosses zero;
//   - DRed (delete-and-rederive) for recursive components, where counts are
//     not finitely maintainable: over-delete everything reachable from a
//     deletion, re-derive survivors from the remaining facts, then propagate
//     insertions semi-naively;
//   - recompute for everything else — the other languages; datalog with
//     negation through recursion (three-valued under valid and well-founded:
//     each recompute is the kernel's alternation from scratch, but no batch is
//     propagated into one), under the inflationary or stable semantics, or with
//     a rule no join order exists for; and the Budget.NoStreaming reference —
//     by re-executing the plan and diffing the outcomes.
//
// The delta engine owns no tables, rule compiler, plan executor or strategy
// code: it is a client of the relational rule kernel (internal/datalog/rel),
// the same one query.Execute evaluates programs from scratch on. Facts are
// rows of interned IDs in flat per-(predicate, arity) tables, every rule is
// compiled once into one join plan per entry pattern — from scratch, pivoted
// on a delta literal, head-bound for re-derivation — a view's initial state,
// and its rebuild when a batch outruns its work budget, are the kernel's own
// from-scratch Build, and counting and DRed are the kernel's too
// (rel.Engine.Maintain), because a three-valued evaluation maintains its two
// halves against each other with them. What lives here is what only mutation
// needs: the batch's intake and its bookkeeping on the kernel's row flags,
// the walk over the components, the rebuild fallback, and the ResultDelta.
//
// Either way a successful Apply returns the ResultDelta between the previous
// and the new Outcome, and the maintained Outcome is bit-for-bit the outcome
// query.Execute would produce against the mutated database — the equivalence
// the dlog-ivm differential oracle (internal/diffcheck) fuzzes.
// docs/architecture.md has the full decision table.
package ivm

import (
	"fmt"
	"sort"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/rel"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
)

// Mode says how a View is maintained.
type Mode string

// The maintenance modes.
const (
	// ModeIncremental maintains the outcome by counting/DRed delta rules.
	ModeIncremental Mode = "incremental"
	// ModeRecompute re-executes the plan on every mutation batch and diffs
	// the outcomes — the always-correct fallback, and the view the
	// Budget.NoStreaming reference selects.
	ModeRecompute Mode = "recompute"
)

// PredDelta is the change to one named part of an outcome: a datalog
// predicate, an algebra= defined constant ("def" entries are named directly,
// query statements as "query:<src>"), or the single result set of an
// expression plan (named "value"). Fact keys and set elements are rendered
// exactly as the outcome renders them, in the outcome's order.
type PredDelta struct {
	Pred         string   `json:"pred"`
	Added        []string `json:"added,omitempty"`
	Removed      []string `json:"removed,omitempty"`
	UndefAdded   []string `json:"undefAdded,omitempty"`
	UndefRemoved []string `json:"undefRemoved,omitempty"`
}

// ResultDelta is the outcome change produced by one Apply: the view's new
// version and the per-part additions and removals. Snapshot is set instead
// of Preds when the outcome has no stable per-part diff (the stable-model
// semantics, whose model list has no canonical pairing across versions);
// subscribers should then re-read the full outcome.
type ResultDelta struct {
	Version  uint64      `json:"version"`
	Snapshot bool        `json:"snapshot,omitempty"`
	Preds    []PredDelta `json:"preds,omitempty"`
}

// Empty reports whether the delta changes nothing.
func (d *ResultDelta) Empty() bool { return !d.Snapshot && len(d.Preds) == 0 }

// View is a query plan bound to a mutable database, with its outcome kept
// current across Apply calls. A View is not safe for concurrent use; the
// server serializes mutations per database.
type View struct {
	plan    *query.Plan
	opts    query.Options
	mode    Mode
	version uint64

	eng *engine // ModeIncremental

	db  algebra.DB     // ModeRecompute: current database snapshot
	out *query.Outcome // ModeRecompute: last outcome

	obs obsv.Collector // the process default when the view was built; nil: none

	broken error // a failed incremental batch poisons the view
}

// New builds a View of plan over db, evaluating the initial outcome. The
// incremental engine is used for datalog plans whose program is stratified
// (negation-free for the minimal semantics), with every rule plannable,
// under the stratified, valid, well-founded or minimal semantics — the
// fragments where those semantics agree on the stratified model — provided
// opts.Budget does not select the NoStreaming reference; every other plan, a
// program with negation through recursion included, gets the recompute
// fallback. The initial evaluation honors opts' budgets; its
// error is returned as-is (query.ErrorCode classifies it). A view reports one
// obsv.IVMStats event per Apply to the collector that is the process default
// when it is built.
func New(plan *query.Plan, db algebra.DB, opts query.Options) (*View, error) {
	v := &View{plan: plan, opts: opts, mode: ModeRecompute, obs: obsv.Default()}
	if incrementalOK(plan, opts) {
		eng, err := newEngine(plan, db, opts, v.obs != nil)
		if err != nil {
			return nil, err
		}
		v.mode, v.eng = ModeIncremental, eng
		return v, nil
	}
	out, err := query.Execute(plan, db, opts)
	if err != nil {
		return nil, err
	}
	v.db, v.out = db.Clone(), out
	return v, nil
}

// incrementalOK reports whether the plan is in the incrementally
// maintainable fragment under the given options: a stratified program that
// query.Execute would evaluate on the relational kernel, unless
// Budget.NoStreaming asks for the reference. The kernel also evaluates
// negation through recursion, three-valued; keeping such a model current
// under mutation is not done here.
func incrementalOK(plan *query.Plan, opts query.Options) bool {
	return !opts.Budget.WithDefaults().NoStreaming && query.RelationalOK(plan) && datalog.IsStratified(plan.Program)
}

// Mode returns the view's maintenance mode.
func (v *View) Mode() Mode { return v.mode }

// Version returns the number of successfully applied mutation batches.
func (v *View) Version() uint64 { return v.version }

// Outcome returns the current outcome. The result is shared, not copied;
// callers must treat it as read-only.
func (v *View) Outcome() (*query.Outcome, error) {
	if v.broken != nil {
		return nil, v.broken
	}
	if v.mode == ModeIncremental {
		return v.eng.outcome(), nil
	}
	return v.out, nil
}

// Apply applies one mutation batch — deletions first, then insertions, so a
// fact in both ends up present — and returns the outcome delta. A failed
// recompute leaves the view unchanged (the error is returned and the next
// Apply may succeed). An incremental batch that outruns its work budget
// (Options.Ground.MaxRules join steps) is not a failure: the view is rebuilt
// from its base facts under a fresh budget and the delta is the difference
// to the previous outcome, exactly as if the batch had been maintained. Only
// a batch that fails outright — an interrupt, an evaluation error, a rebuild
// that itself exceeds a budget — poisons the view, because its state may be
// half-maintained, and every later call returns the error.
func (v *View) Apply(insert, del []datalog.Fact) (*ResultDelta, error) {
	if v.broken != nil {
		return nil, v.broken
	}
	var d *ResultDelta
	if v.mode == ModeIncremental {
		var err error
		d, err = v.eng.apply(insert, del)
		if err != nil {
			v.broken = fmt.Errorf("ivm: view poisoned by failed incremental batch: %w", err)
			return nil, err
		}
	} else {
		db := ApplyDB(v.db, insert, del)
		out, err := query.Execute(v.plan, db, v.opts)
		if err != nil {
			return nil, err
		}
		d = diffOutcomes(v.plan, v.out, out)
		v.db, v.out = db, out
	}
	if v.obs != nil {
		st := obsv.IVMStats{Mode: string(v.mode), Inserted: len(insert), Deleted: len(del)}
		for _, p := range d.Preds {
			st.DeltaFacts += len(p.Added) + len(p.Removed) + len(p.UndefAdded) + len(p.UndefRemoved)
		}
		if v.eng != nil {
			v.eng.fillStats(&st)
		}
		v.obs.Collect(st)
	}
	v.version++
	d.Version = v.version
	return d, nil
}

// ApplyDB returns a copy of db with the mutation batch applied, under the
// same fact↔element mapping as query.DBFacts (rel.ElemFact): a unary fact is a scalar
// element, an n-ary fact a tuple. Deletions apply before insertions;
// deleting from an unknown relation is a no-op, inserting into one creates
// it. db itself is never mutated: relations are immutable sets, and a
// relation the batch touches is copied once per direction — one Diff with
// everything the batch deletes from it, one Union with everything it inserts
// — however many facts the batch holds.
func ApplyDB(db algebra.DB, insert, del []datalog.Fact) algebra.DB {
	out := make(algebra.DB, len(db)+1)
	for k, s := range db {
		out[k] = s
	}
	for pred, elems := range ElemsByPred(del) {
		if s, ok := out[pred]; ok {
			out[pred] = s.Diff(value.NewSet(elems...))
		}
	}
	for pred, elems := range ElemsByPred(insert) {
		out[pred] = out[pred].Union(value.NewSet(elems...))
	}
	return out
}

// ElemsByPred groups a fact list's database elements (rel.FactElem) by
// predicate.
func ElemsByPred(facts []datalog.Fact) map[string][]value.Value {
	by := make(map[string][]value.Value, 1)
	for _, f := range facts {
		by[f.Pred] = append(by[f.Pred], rel.FactElem(f))
	}
	return by
}

// diffOutcomes computes the ResultDelta between two outcomes of the same
// plan. The stable semantics has no canonical model pairing, so it gets a
// Snapshot delta.
func diffOutcomes(plan *query.Plan, old, new *query.Outcome) *ResultDelta {
	d := &ResultDelta{}
	if plan.Semantics == query.SemStable {
		d.Snapshot = true
		return d
	}
	addPred := func(p PredDelta) {
		if len(p.Added)+len(p.Removed)+len(p.UndefAdded)+len(p.UndefRemoved) > 0 {
			d.Preds = append(d.Preds, p)
		}
	}
	if new.HasValue {
		add, rem := diffSets(old.Value, new.Value)
		addPred(PredDelta{Pred: "value", Added: add, Removed: rem})
		return d
	}
	if new.Datalog != nil {
		oldPreds := map[string]query.PredFacts{}
		if old.Datalog != nil {
			for _, pf := range old.Datalog.Preds {
				oldPreds[pf.Pred] = pf
			}
		}
		seen := map[string]bool{}
		for _, pf := range new.Datalog.Preds {
			seen[pf.Pred] = true
			o := oldPreds[pf.Pred]
			p := PredDelta{Pred: pf.Pred}
			p.Added, p.Removed = diffKeys(o.True, pf.True)
			p.UndefAdded, p.UndefRemoved = diffKeys(o.Undef, pf.Undef)
			addPred(p)
		}
		if old.Datalog != nil {
			for _, pf := range old.Datalog.Preds {
				if !seen[pf.Pred] {
					addPred(PredDelta{Pred: pf.Pred, Removed: pf.True, UndefRemoved: pf.Undef})
				}
			}
		}
		// Vanished predicates append after the new outcome's, so re-sort to
		// the canonical name order the incremental engine emits.
		sort.Slice(d.Preds, func(i, j int) bool { return d.Preds[i].Pred < d.Preds[j].Pred })
		return d
	}
	// algebra= defs and query answers, paired by name and statement order.
	oldDefs := map[string]query.NamedSet{}
	for _, ns := range old.Defs {
		oldDefs[ns.Name] = ns
	}
	for _, ns := range new.Defs {
		o := oldDefs[ns.Name]
		p := PredDelta{Pred: ns.Name}
		p.Added, p.Removed = diffSets(o.Set, ns.Set)
		p.UndefAdded, p.UndefRemoved = diffSets(o.Undef, ns.Undef)
		addPred(p)
	}
	for i, q := range new.Queries {
		p := PredDelta{Pred: "query:" + q.Src}
		var o query.QueryAnswer
		if i < len(old.Queries) {
			o = old.Queries[i]
		}
		p.Added, p.Removed = diffSets(o.Set, q.Set)
		p.UndefAdded, p.UndefRemoved = diffSets(o.Undef, q.Undef)
		addPred(p)
	}
	return d
}

// diffSets renders the element-wise difference of two sets (either may be
// the nil zero set) in the sets' element order.
func diffSets(old, new value.Set) (added, removed []string) {
	for _, e := range new.Diff(old).Elems() {
		added = append(added, e.String())
	}
	for _, e := range old.Diff(new).Elems() {
		removed = append(removed, e.String())
	}
	return added, removed
}

// diffKeys diffs two rendered key lists, preserving each side's order.
func diffKeys(old, new []string) (added, removed []string) {
	os := make(map[string]bool, len(old))
	for _, k := range old {
		os[k] = true
	}
	ns := make(map[string]bool, len(new))
	for _, k := range new {
		ns[k] = true
	}
	for _, k := range new {
		if !os[k] {
			added = append(added, k)
		}
	}
	for _, k := range old {
		if !ns[k] {
			removed = append(removed, k)
		}
	}
	return added, removed
}
