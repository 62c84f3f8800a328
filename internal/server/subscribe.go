package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
)

// Close reasons of a subscription, reported in the "bye" event and in
// obsv.SubscriptionStats.Reason.
const (
	reasonClientGone   = "client-gone"   // the client disconnected
	reasonDrain        = "drain"         // the server began draining
	reasonSlowConsumer = "slow-consumer" // the pending delta outgrew SubMaxPending
	reasonReplaced     = "db-replaced"   // PUT /v1/dbs/{name} swapped the database
	reasonRestored     = "db-restored"   // POST /v1/dbs/{name}/restore swapped the database
	reasonError        = "error"         // view maintenance failed (interrupt, evaluation error, failed rebuild)
)

// viewKey identifies a maintained view within one database: the plan-cache
// key of its query and the effective budgets it runs under — the request's
// overrides merged over the server defaults, with no interrupt wired.
type viewKey struct {
	plan cacheKey
	opts query.Options
}

// liveView is one maintained view (ivm.View) and the subscriptions it feeds.
// Subscriptions with the same viewKey share one: the view is built once, a
// mutation maintains it once, and the resulting delta is fanned out.
type liveView struct {
	view *ivm.View
	subs map[*subscriber]bool // guarded by the entry mutex

	// stop is the view's Interrupt; interest counts the subscriptions whose
	// client is still there. Whoever takes interest to zero closes stop, so
	// work nobody is waiting for is abandoned, while one subscriber leaving
	// never cancels what the others share. A stopped view takes no new
	// subscriptions.
	stop     chan struct{}
	interest atomic.Int32
}

// join registers one more interested subscription; it fails on a view whose
// last subscriber has already gone.
func (lv *liveView) join() bool {
	for {
		n := lv.interest.Load()
		if n == 0 {
			return false
		}
		if lv.interest.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release withdraws one subscription's interest; each subscription calls it
// exactly once, when its client disconnects or its handler returns, whichever
// comes first.
func (lv *liveView) release() {
	if lv.interest.Add(-1) == 0 {
		close(lv.stop)
	}
}

// closeViews ends every subscription of the entry with the given reason and
// forgets the views: they describe contents the entry no longer has. Called
// with the entry mutex held.
func (e *dbEntry) closeViews(reason string) {
	for key, lv := range e.views {
		for sub := range lv.subs {
			sub.close(reason)
		}
		delete(e.views, key)
	}
}

// subscriber is one live subscription: a compiled query registered against a
// named database, whose view is maintained on the mutator's goroutine under
// the dbEntry mutex while a writer goroutine (the HTTP handler) streams the
// resulting events to the client.
//
// Backpressure accounting: at most one undelivered event is held per
// subscriber. Deltas arriving while the previous one is still pending are
// folded into it (coalesced); if the folded delta grows past maxPending
// entries the subscription is closed with reason "slow-consumer" instead of
// buffering without bound.
type subscriber struct {
	lv *liveView

	mu        sync.Mutex
	pending   *subEventJSON // coalesced undelivered event, nil when none
	events    int64         // events written to the client
	coalesced int64         // deltas folded into an already-pending event
	reason    string        // non-empty once the subscription is closing
	notify    chan struct{} // capacity 1: "pending or reason changed" poke
}

// subEventJSON is the wire form of one subscription event. "snapshot" events
// carry the full query result (sent once at registration, and again whenever
// a delta cannot be expressed incrementally); "delta" events carry per-pred
// fact changes; the final "bye" event carries the close reason.
type subEventJSON struct {
	Event   string          `json:"event"` // snapshot | delta | bye
	Version uint64          `json:"version,omitempty"`
	Result  *resultJSON     `json:"result,omitempty"`
	Preds   []ivm.PredDelta `json:"preds,omitempty"`
	Reason  string          `json:"reason,omitempty"`
}

// poke wakes the writer goroutine without blocking the mutator.
func (sub *subscriber) poke() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// close marks the subscription as closing; the first reason wins.
func (sub *subscriber) close(reason string) {
	sub.mu.Lock()
	if sub.reason == "" {
		sub.reason = reason
	}
	sub.mu.Unlock()
	sub.poke()
}

// take hands the pending event (if any) and the close reason (if set) to the
// writer, clearing the pending slot.
func (sub *subscriber) take() (*subEventJSON, string) {
	sub.mu.Lock()
	e, reason := sub.pending, sub.reason
	sub.pending = nil
	sub.mu.Unlock()
	return e, reason
}

// countEvent records one event delivered to the client.
func (sub *subscriber) countEvent() {
	sub.mu.Lock()
	sub.events++
	sub.mu.Unlock()
}

// stats returns the final per-subscription counters for the obsv event.
func (sub *subscriber) stats() (events, coalesced int64, reason string) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.events, sub.coalesced, sub.reason
}

// push folds one maintenance result into the pending slot. Called on the
// mutator's goroutine under the dbEntry mutex (so the view is safe to read).
// The delta is shared by every subscriber of the view and never modified.
// Snapshot deltas — and any delta arriving while a snapshot is pending — are
// delivered as a fresh full-result snapshot: a rendered snapshot cannot be
// patched, and the view already holds the current outcome.
func (sub *subscriber) push(version uint64, d *ivm.ResultDelta, maxPending int) {
	sub.mu.Lock()
	defer func() { sub.mu.Unlock(); sub.poke() }()
	if sub.reason != "" {
		return
	}
	if sub.pending != nil {
		sub.coalesced++
	}
	switch {
	case d.Snapshot, sub.pending != nil && sub.pending.Event == "snapshot":
		out, err := sub.lv.view.Outcome()
		if err != nil {
			sub.reason = reasonError
			sub.pending = nil
			return
		}
		res := renderResult(out)
		sub.pending = &subEventJSON{Event: "snapshot", Version: version, Result: &res}
	case sub.pending == nil:
		sub.pending = &subEventJSON{Event: "delta", Version: version, Preds: d.Preds}
	default:
		sub.pending.Version = version
		sub.pending.Preds = mergePredDeltas(sub.pending.Preds, d.Preds)
		if len(sub.pending.Preds) == 0 {
			// The folded deltas cancelled out — nothing to deliver.
			sub.pending = nil
			return
		}
	}
	if sub.pending.Event == "delta" && deltaEntries(sub.pending.Preds) > maxPending {
		sub.reason = reasonSlowConsumer
		sub.pending = nil
	}
}

// deltaEntries counts the fact keys a delta carries — the unit of the
// slow-consumer bound.
func deltaEntries(preds []ivm.PredDelta) int {
	n := 0
	for _, p := range preds {
		n += len(p.Added) + len(p.Removed) + len(p.UndefAdded) + len(p.UndefRemoved)
	}
	return n
}

// mergePredDeltas folds delta b (later) over delta a (earlier) with set
// semantics: a fact added then removed (or vice versa) cancels out. Both
// inputs describe consistent consecutive transitions, so the fold is exact.
func mergePredDeltas(a, b []ivm.PredDelta) []ivm.PredDelta {
	type predState struct {
		added, removed, uAdded, uRemoved map[string]bool
	}
	states := map[string]*predState{}
	state := func(pred string) *predState {
		st, ok := states[pred]
		if !ok {
			st = &predState{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}}
			states[pred] = st
		}
		return st
	}
	// fold applies one signed change: an entry cancels its opposite if
	// present, otherwise records itself.
	fold := func(pos, neg map[string]bool, keys []string) {
		for _, k := range keys {
			if neg[k] {
				delete(neg, k)
			} else {
				pos[k] = true
			}
		}
	}
	for _, d := range [][]ivm.PredDelta{a, b} {
		for _, p := range d {
			st := state(p.Pred)
			fold(st.added, st.removed, p.Added)
			fold(st.removed, st.added, p.Removed)
			fold(st.uAdded, st.uRemoved, p.UndefAdded)
			fold(st.uRemoved, st.uAdded, p.UndefRemoved)
		}
	}
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ivm.PredDelta, 0, len(names))
	for _, name := range names {
		st := states[name]
		p := ivm.PredDelta{
			Pred:         name,
			Added:        sortedSetKeys(st.added),
			Removed:      sortedSetKeys(st.removed),
			UndefAdded:   sortedSetKeys(st.uAdded),
			UndefRemoved: sortedSetKeys(st.uRemoved),
		}
		if len(p.Added)+len(p.Removed)+len(p.UndefAdded)+len(p.UndefRemoved) > 0 {
			out = append(out, p)
		}
	}
	return out
}

func sortedSetKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// factJSON is one fact in a mutation batch: a predicate name and ground
// argument values. Arguments map onto the value domain: integers become
// value.Int, strings value.String, booleans value.Bool, arrays value.Tuple
// (recursively). Floats and nulls are rejected — they are not in the domain.
type factJSON struct {
	Pred string `json:"pred"`
	Args []any  `json:"args"`
}

// mutateRequest is the POST /v1/dbs/{name}/facts body. Deletions apply
// before insertions, matching ivm.ApplyDB.
type mutateRequest struct {
	Insert []factJSON `json:"insert"`
	Delete []factJSON `json:"delete"`
}

// mutateResponse is its success body.
type mutateResponse struct {
	OK       bool   `json:"ok"`
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
}

// decodeFacts converts a JSON fact batch to datalog facts.
func decodeFacts(batch []factJSON) ([]datalog.Fact, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	out := make([]datalog.Fact, 0, len(batch))
	for i, fj := range batch {
		if fj.Pred == "" {
			return nil, fmt.Errorf("fact %d: missing \"pred\"", i)
		}
		if len(fj.Args) == 0 {
			return nil, fmt.Errorf("fact %d (%s): facts need at least one argument", i, fj.Pred)
		}
		args := make([]value.Value, len(fj.Args))
		for j, a := range fj.Args {
			v, err := valueFromJSON(a)
			if err != nil {
				return nil, fmt.Errorf("fact %d (%s) argument %d: %w", i, fj.Pred, j, err)
			}
			args[j] = v
		}
		out = append(out, datalog.Fact{Pred: fj.Pred, Args: args})
	}
	return out, nil
}

// valueFromJSON maps one JSON argument to a ground value.
func valueFromJSON(a any) (value.Value, error) {
	switch x := a.(type) {
	case json.Number:
		n, err := strconv.ParseInt(string(x), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%v is not an integer", x)
		}
		return value.Int(n), nil
	case string:
		return value.String(x), nil
	case bool:
		return value.Bool(x), nil
	case []any:
		elems := make([]value.Value, len(x))
		for i, e := range x {
			v, err := valueFromJSON(e)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return value.NewTuple(elems...), nil
	default:
		return nil, fmt.Errorf("unsupported argument type %T", a)
	}
}

// handleMutateFacts serves POST /v1/dbs/{name}/facts: an incremental fact
// mutation of a registered database. Deletions apply before insertions; the
// database version is bumped once per batch and every live view is maintained
// — once, however many subscriptions share it — and its subscribers notified
// before the response returns.
func (s *Server) handleMutateFacts(w http.ResponseWriter, r *http.Request, ev *obsv.ServerStats) {
	fail := func(code, msg string) {
		ev.Code = code
		writeError(w, code, msg)
	}
	if s.draining.Load() {
		fail(codeShuttingDown, "the server is draining and refuses new mutations")
		return
	}
	name := r.PathValue("name")
	entry, ok := s.reg.entry(name)
	if !ok {
		fail(codeUnknownDB, fmt.Sprintf("no database named %q is registered", name))
		return
	}
	var req mutateRequest
	if code, msg := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); code != "" {
		fail(code, msg)
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		fail(codeBadRequest, "empty mutation: provide \"insert\" and/or \"delete\" fact batches")
		return
	}
	ins, err := decodeFacts(req.Insert)
	if err != nil {
		fail(codeBadRequest, "insert: "+err.Error())
		return
	}
	del, err := decodeFacts(req.Delete)
	if err != nil {
		fail(codeBadRequest, "delete: "+err.Error())
		return
	}

	entry.mu.Lock()
	st := entry.cur.Load()
	version := st.version + 1
	db := ivm.ApplyDB(st.base.DB(), ins, del)
	if err := entry.store.applyFacts(ins, del, db); err != nil {
		entry.mu.Unlock()
		fail(codeStorage, err.Error())
		return
	}
	entry.cur.Store(newDBState(db, version))
	for key, lv := range entry.views {
		d, applyErr := lv.view.Apply(ins, del)
		if applyErr != nil {
			// Beyond repair — its interrupt fired, or the batch failed where
			// even a rebuild could not help. Drop it, so that an identical
			// subscription arriving later builds a fresh one.
			for sub := range lv.subs {
				sub.close(reasonError)
			}
			delete(entry.views, key)
			continue
		}
		if d.Empty() {
			continue
		}
		for sub := range lv.subs {
			sub.push(version, d, s.cfg.SubMaxPending)
		}
	}
	entry.mu.Unlock()

	writeJSON(w, http.StatusOK, mutateResponse{
		OK: true, Name: name, Version: version,
		Inserted: len(ins), Deleted: len(del),
	})
}

// subscribeRequest is the POST /v1/subscribe body: a query request (whose
// timeoutMS is ignored — subscriptions are long-lived) plus the stream
// format, "ndjson" (default) or "sse".
type subscribeRequest struct {
	queryRequest
	Format string `json:"format"`
}

// handleSubscribe serves POST /v1/subscribe: registers the query as a live
// subscription against a named database and streams its result — an initial
// "snapshot" event, then one "delta" (or "snapshot") event per observed
// database change, then a final "bye" event with the close reason. The
// response never ends until the client disconnects, the server drains, the
// database is replaced, the consumer falls too far behind, or maintenance
// fails.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request, ev *obsv.ServerStats) {
	start := time.Now()
	fail := func(code, msg string) {
		ev.Code = code
		writeError(w, code, msg)
	}
	if s.draining.Load() {
		fail(codeShuttingDown, "the server is draining and refuses new subscriptions")
		return
	}
	var req subscribeRequest
	if code, msg := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); code != "" {
		fail(code, msg)
		return
	}
	format := req.Format
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "sse" {
		fail(codeBadRequest, fmt.Sprintf("unknown stream format %q (want \"ndjson\" or \"sse\")", req.Format))
		return
	}
	lang, err := query.ParseLanguage(req.Language)
	if err != nil {
		fail(codeBadRequest, err.Error())
		return
	}
	sem, err := query.ParseSemantics(req.Semantics)
	if err != nil {
		fail(codeBadRequest, err.Error())
		return
	}
	ev.Language, ev.Semantics = string(lang), string(sem)
	if req.Query == "" {
		fail(codeBadRequest, "missing \"query\" field")
		return
	}
	if req.DB == "" {
		fail(codeBadRequest, "subscriptions require a named database")
		return
	}
	entry, ok := s.reg.entry(req.DB)
	if !ok {
		fail(codeUnknownDB, fmt.Sprintf("no database named %q is registered", req.DB))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		fail(codeBadRequest, "the connection does not support streaming responses")
		return
	}

	ev.CacheLookup = true
	ck := cacheKey{lang: lang, sem: sem, src: req.Query}
	plan, hit, compiled, err := s.cache.get(ck)
	ev.CacheHit, ev.Compiled = hit, compiled
	if err != nil {
		fail(query.ErrorCode(err, true), err.Error())
		return
	}

	ctx := r.Context()
	key := viewKey{plan: ck, opts: s.requestOptions(&req.queryRequest, nil)}

	// Register under the entry mutex: the initial snapshot and every later
	// delta observe the same totally-ordered mutation sequence, with no
	// window for a lost update between view construction and registration.
	// An identical subscription already live shares its view; otherwise this
	// one builds it, interruptible through the view's own stop channel.
	entry.mu.Lock()
	lv := entry.views[key]
	shared := lv != nil && lv.join()
	if !shared {
		lv = &liveView{subs: map[*subscriber]bool{}, stop: make(chan struct{})}
		lv.interest.Store(1)
	}
	unwatch := context.AfterFunc(ctx, lv.release)
	var verr error
	if !shared {
		opts := key.opts
		opts.Budget.Interrupt, opts.Ground.Interrupt = lv.stop, lv.stop
		lv.view, verr = ivm.New(plan, entry.cur.Load().base.DB(), opts)
	}
	var sub *subscriber
	if verr == nil {
		var out *query.Outcome
		if out, verr = lv.view.Outcome(); verr == nil {
			res := renderResult(out)
			sub = &subscriber{lv: lv, notify: make(chan struct{}, 1)}
			sub.pending = &subEventJSON{Event: "snapshot", Version: entry.cur.Load().version, Result: &res}
			lv.subs[sub] = true
			entry.views[key] = lv
		}
	}
	entry.mu.Unlock()
	// leave withdraws this subscription's interest unless the client's
	// disconnect already did.
	leave := func() {
		if unwatch() {
			lv.release()
		}
	}
	if verr != nil {
		leave()
		fail(query.ErrorCode(verr, false), verr.Error())
		return
	}

	s.activeSubs.Add(1)
	defer func() {
		entry.mu.Lock()
		delete(lv.subs, sub)
		if len(lv.subs) == 0 && entry.views[key] == lv {
			delete(entry.views, key)
		}
		entry.mu.Unlock()
		leave()
		s.activeSubs.Add(-1)
		events, coalesced, reason := sub.stats()
		s.col.Collect(obsv.SubscriptionStats{
			Language:  string(lang),
			Semantics: string(sem),
			Mode:      string(lv.view.Mode()),
			Events:    int(events),
			Coalesced: int(coalesced),
			Reason:    reason,
			WallNS:    time.Since(start).Nanoseconds(),
		})
	}()

	if format == "sse" {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	// Flush the headers immediately so the client sees the stream open
	// before the first event (which test instrumentation may delay).
	flusher.Flush()
	write := func(e *subEventJSON) error {
		payload, merr := json.Marshal(e)
		if merr != nil {
			return merr
		}
		var werr error
		if format == "sse" {
			_, werr = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Event, payload)
		} else {
			_, werr = fmt.Fprintf(w, "%s\n", payload)
		}
		if werr == nil {
			flusher.Flush()
		}
		return werr
	}

	for {
		if s.testHookSubEvent != nil {
			s.testHookSubEvent()
		}
		e, reason := sub.take()
		if e != nil {
			if werr := write(e); werr != nil {
				sub.close(reasonClientGone)
				if reason == "" {
					continue
				}
			} else {
				sub.countEvent()
			}
		}
		if reason != "" {
			// Best-effort goodbye; the connection may already be gone.
			_ = write(&subEventJSON{Event: "bye", Reason: reason})
			return
		}
		select {
		case <-ctx.Done():
			sub.close(reasonClientGone)
		case <-s.drainCh:
			sub.close(reasonDrain)
		case <-sub.notify:
		}
	}
}
