package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"algrec/internal/obsv"
)

// viewCounts reports how many live views the entry holds and how many
// subscriptions hang off them in total.
func viewCounts(t *testing.T, s *Server, name string) (views, subs int) {
	t.Helper()
	entry, ok := s.reg.entry(name)
	if !ok {
		t.Fatalf("entry %s missing", name)
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	for _, lv := range entry.views {
		subs += len(lv.subs)
	}
	return len(entry.views), subs
}

// TestSharedViews: identical subscriptions share one maintained view. A twin
// that joins mid-stream starts from a snapshot equal to a fresh query and
// then sees exactly the first subscriber's deltas; a different budget
// override is a different view; the first subscriber leaving neither cancels
// nor closes the second; replacing the database closes every sharer.
func TestSharedViews(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	first := openSub(t, ts, dlogSub("g", tcProgram))
	if e := first.next(t); e.Event != "snapshot" {
		t.Fatalf("first event = %+v, want snapshot", e)
	}

	// Fifty batches of churn on a side chain: a new edge comes, the one
	// before last goes, so every batch moves the closure a little.
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	mutate := func(i int) {
		t.Helper()
		req := mutateRequest{Insert: []factJSON{jsonFact("edge", node(i), node(i+1))}}
		if i >= 2 {
			req.Delete = []factJSON{jsonFact("edge", node(i-2), node(i-1))}
		}
		if status, _, bad := postFacts(t, ts, "g", req); status != http.StatusOK {
			t.Fatalf("mutate %d: status %d, %+v", i, status, bad)
		}
	}
	i := 0
	for ; i < 50; i++ {
		mutate(i)
		if e := first.next(t); e.Event != "delta" {
			t.Fatalf("batch %d: event = %+v, want delta", i, e)
		}
	}

	twin := openSub(t, ts, dlogSub("g", tcProgram))
	snap := twin.next(t)
	_, fresh, _ := postQuery(t, ts, queryRequest{DB: "g", Language: "datalog", Semantics: "stratified", Query: tcProgram})
	if snap.Event != "snapshot" || snap.Version != 51 || !reflect.DeepEqual(snap.Result.Preds, fresh.Result.Preds) {
		t.Fatalf("twin snapshot = %+v\nfresh query = %+v", snap, fresh.Result)
	}
	if views, subs := viewCounts(t, s, "g"); views != 1 || subs != 2 {
		t.Fatalf("identical subscriptions hold %d views with %d subscriptions, want 1 and 2", views, subs)
	}

	// A different effective budget must not share.
	other := dlogSub("g", tcProgram)
	other.Budget = &budgetJSON{MaxRules: 1_000_000}
	third := openSub(t, ts, other)
	if e := third.next(t); e.Event != "snapshot" {
		t.Fatalf("third subscription: first event = %+v", e)
	}
	if views, subs := viewCounts(t, s, "g"); views != 2 || subs != 3 {
		t.Fatalf("a budget override shares a view: %d views, %d subscriptions", views, subs)
	}

	for ; i < 60; i++ {
		mutate(i)
		a, b, c := first.next(t), twin.next(t), third.next(t)
		if a.Event != "delta" || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("batch %d: subscribers diverged\nfirst: %+v\n twin: %+v\nthird: %+v", i, a, b, c)
		}
	}
	// One Apply per batch and view, however many subscriptions it feeds.
	entry, _ := s.reg.entry("g")
	entry.mu.Lock()
	for _, lv := range entry.views {
		want := uint64(10) // the overriding subscription's, built after fifty batches
		if len(lv.subs) == 2 {
			want = 60
		}
		if got := lv.view.Version(); got != want {
			t.Errorf("the view of %d subscriptions applied %d batches, want %d", len(lv.subs), got, want)
		}
	}
	entry.mu.Unlock()

	// The first subscriber leaves; the twin's view goes on.
	first.resp.Body.Close()
	waitCounter(t, s, "server.subscription.ends.client-gone", 1)
	if views, subs := viewCounts(t, s, "g"); views != 2 || subs != 2 {
		t.Fatalf("after the first subscriber left: %d views, %d subscriptions", views, subs)
	}
	for ; i < 65; i++ {
		mutate(i)
		b, c := twin.next(t), third.next(t)
		if b.Event != "delta" || !reflect.DeepEqual(b, c) {
			t.Fatalf("batch %d after the first subscriber left:\n twin: %+v\nthird: %+v", i, b, c)
		}
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/dbs/g", strings.NewReader(`rel edge = {(p, q)};`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT db: %v", err)
	}
	resp.Body.Close()
	for name, st := range map[string]*subStream{"twin": twin, "third": third} {
		if bye := st.next(t); bye.Event != "bye" || bye.Reason != reasonReplaced {
			t.Fatalf("%s after PUT: %+v, want bye/db-replaced", name, bye)
		}
	}
	waitCounter(t, s, "server.subscription.ends.db-replaced", 2)
	if views, _ := viewCounts(t, s, "g"); views != 0 {
		t.Fatalf("%d views survive the replacement", views)
	}

	// A subscription after the swap builds its view over the new contents.
	again := openSub(t, ts, dlogSub("g", tcProgram))
	if e := again.next(t); e.Event != "snapshot" || !reflect.DeepEqual(predByName(e.Result.Preds, "tc").True, []string{"tc(p, q)"}) {
		t.Fatalf("snapshot after PUT = %+v", e.Result)
	}
}

// TestSharedViewRestoreClosesAllSharers: a restore ends every subscription of
// a shared view with the restore's reason.
func TestSharedViewRestoreClosesAllSharers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, _, bad := postSnapshotOp(t, ts, "g", "snapshot", "before"); status != http.StatusOK {
		t.Fatalf("snapshot: status %d, %+v", status, bad)
	}
	a, b := openSub(t, ts, dlogSub("g", tcProgram)), openSub(t, ts, dlogSub("g", tcProgram))
	for _, st := range []*subStream{a, b} {
		if e := st.next(t); e.Event != "snapshot" {
			t.Fatalf("first event = %+v", e)
		}
	}
	if views, subs := viewCounts(t, s, "g"); views != 1 || subs != 2 {
		t.Fatalf("%d views, %d subscriptions, want 1 and 2", views, subs)
	}
	if status, _, bad := postSnapshotOp(t, ts, "g", "restore", "before"); status != http.StatusOK {
		t.Fatalf("restore: status %d, %+v", status, bad)
	}
	for _, st := range []*subStream{a, b} {
		if bye := st.next(t); bye.Event != "bye" || bye.Reason != reasonRestored {
			t.Fatalf("after restore: %+v, want bye/db-restored", bye)
		}
	}
	waitCounter(t, s, "server.subscription.ends.db-restored", 2)
}

// TestSubscribeBudgetOverrunStaysOpen: a batch that outruns the view's work
// budget is answered by a rebuild inside the view, so the subscriber sees an
// ordinary delta — "error" is left for maintenance that actually failed.
func TestSubscribeBudgetOverrunStaysOpen(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// The views report to the collector that is the process default when they
	// are built; route it to the server's counters for the fallback count.
	prev := obsv.Default()
	obsv.SetDefault(s.Collector())
	t.Cleanup(func() { obsv.SetDefault(prev) })

	// A 40-edge chain behind d: entering it costs two join steps a node,
	// cutting it off five, rebuilding without it next to nothing.
	var chain []factJSON
	for i := 0; i < 40; i++ {
		chain = append(chain, jsonFact("edge", fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", i+1)))
	}
	postFacts(t, ts, "g", mutateRequest{Insert: append(chain, jsonFact("edge", "d", "k0"))})
	req := dlogSub("g", `r(X) :- edge(a, X). r(Y) :- r(X), edge(X, Y).`)
	req.Budget = &budgetJSON{MaxRules: 150}
	st := openSub(t, ts, req)
	if e := st.next(t); e.Event != "snapshot" || len(predByName(e.Result.Preds, "r").True) != 44 {
		t.Fatalf("first event = %+v", e)
	}

	postFacts(t, ts, "g", mutateRequest{Delete: []factJSON{jsonFact("edge", "a", "b")}})
	d := st.next(t)
	if d.Event != "delta" || len(d.Preds) != 2 || len(d.Preds[1].Removed) != 44 {
		t.Fatalf("after the cut: %+v, want a delta removing all of r", d)
	}
	if got := s.Stats().Snapshot()["ivm.fallbacks"]; got != 1 {
		t.Fatalf("ivm.fallbacks = %d, want 1: the cut was meant to outrun the budget", got)
	}
	postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "a", "b")}})
	if d = st.next(t); d.Event != "delta" || len(d.Preds[1].Added) != 44 {
		t.Fatalf("after mending the cut: %+v", d)
	}
	if snap := s.Stats().Snapshot(); snap["ivm.fallbacks"] != 1 || snap["ivm.applies.incremental"] != 2 {
		t.Fatalf("the batch after a rebuild was not maintained incrementally: %v", snap)
	}
}
