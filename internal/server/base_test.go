package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/datalog/rel"
	"algrec/internal/ivm"
	"algrec/internal/obsv"
	"algrec/internal/query"
	"algrec/internal/value"
)

// graphDB is a deterministic digraph on n nodes with two out-edges per node,
// as the relation e.
func graphDB(n int64) algebra.DB {
	var edges []value.Value
	for i := int64(0); i < n; i++ {
		for _, to := range []int64{(i*7 + 1) % n, (i*11 + 5) % n} {
			if to != i {
				edges = append(edges, value.NewTuple(value.Int(i), value.Int(to)))
			}
		}
	}
	return algebra.DB{"e": value.NewSet(edges...)}
}

// statsServer returns a server whose collector is the process default for the
// test, so the engines' own events land on its counters.
func statsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	prev := obsv.Default()
	obsv.SetDefault(s.Collector())
	t.Cleanup(func() { obsv.SetDefault(prev) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// dlog-read's three request shapes; one that asks who points at a node; and
// one under the inflationary semantics, which is what still grounds — it reads
// the base's fact rules where the others join on its tables; both come off
// the same rows.
var baseClasses = []struct{ name, sem, text string }{
	{"reach", "stratified", "r(X) :- e(0,X). r(Y) :- r(X), e(X,Y). far(X) :- e(X,Y), not r(X)."},
	{"tc2", "stratified", "tc(5,X) :- e(5,X). tc(9,X) :- e(9,X). tc(A,Y) :- tc(A,X), e(X,Y)."},
	{"win", "wellfounded", "win(X) :- e(X,Y), not win(Y)."},
	{"into", "stratified", "into(X) :- e(X,3)."},
	{"grown", "inflationary", "g(X) :- e(0,X). g(Y) :- g(X), e(X,Y), not g(Y)."},
}

// TestSharedFactBaseUnderWrites: eight readers issue datalog requests of every
// shape against one database while a writer posts fact batches to it (run
// under -race), on both backends. Every answer is the answer of a fresh
// Execute over a private copy of some version current while the request ran;
// what each version's fact base holds is derived at most once, whoever asks
// first; and a superseded version's base is garbage once the requests on it
// are done — nothing in the registry keeps it.
func TestSharedFactBaseUnderWrites(t *testing.T) {
	const (
		nodes   = 60
		batches = 12
		readers = 8
	)
	// The write schedule, and per version the database and every class's
	// answer computed the plain way.
	dbs := []algebra.DB{graphDB(nodes)}
	var muts []mutateRequest
	for b := int64(0); b < batches; b++ {
		ins := []datalog.Fact{{Pred: "e", Args: []value.Value{value.Int(b), value.Int(nodes + b)}}}
		del := []datalog.Fact{{Pred: "e", Args: []value.Value{value.Int(b), value.Int((b*7 + 1) % nodes)}}}
		dbs = append(dbs, ivm.ApplyDB(dbs[b], ins, del))
		muts = append(muts, mutateRequest{
			Insert: []factJSON{jsonFact("e", b, nodes+b)},
			Delete: []factJSON{jsonFact("e", b, (b*7+1)%nodes)},
		})
	}
	want := make([]map[string]resultJSON, len(dbs))
	var keysOfAllVersions int64
	for v, db := range dbs {
		want[v] = map[string]resultJSON{}
		for _, c := range baseClasses {
			sem, _ := query.ParseSemantics(c.sem)
			plan, err := query.Compile(query.LangDatalog, sem, c.text)
			if err != nil {
				t.Fatal(err)
			}
			out, err := query.Execute(plan, db.Clone(), query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[v][c.name] = decodeResult(t, out)
		}
		keysOfAllVersions += int64(db["e"].Len())
	}

	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var cfg Config
			if mode == "disk" {
				cfg.Storage = &StorageConfig{Dir: t.TempDir()}
			}
			s, ts := statsServer(t, cfg)
			if err := s.RegisterDB("g", dbs[0]); err != nil {
				t.Fatal(err)
			}
			entry, _ := s.reg.entry("g")
			v0 := entry.cur.Load().version
			collected := make(chan struct{})
			func() {
				// The first version's base, watched; no reference survives this scope.
				runtime.SetFinalizer(entry.cur.Load().base, func(*rel.Base) { close(collected) })
			}()
			before := s.Stats().Snapshot()

			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for _, m := range muts {
					if status, _, bad := postFacts(t, ts, "g", m); status != http.StatusOK {
						t.Errorf("mutation: %d %+v", status, bad)
						return
					}
					time.Sleep(2 * time.Millisecond) // let readers land on every version
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; ; i++ {
						c := baseClasses[i%len(baseClasses)]
						lo := entry.cur.Load().version - v0
						status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "datalog", Semantics: c.sem, Query: c.text})
						hi := entry.cur.Load().version - v0
						if status != http.StatusOK {
							t.Errorf("%s: %d %+v", c.name, status, bad)
							return
						}
						matched := false
						for v := lo; v <= hi && !matched; v++ {
							matched = reflect.DeepEqual(ok.Result, want[v][c.name])
						}
						if !matched {
							t.Errorf("%s: the answer is that of no version in [%d, %d]", c.name, lo, hi)
							return
						}
						select {
						case <-done:
							if hi == batches {
								return
							}
						default:
						}
					}
				}(r)
			}
			wg.Wait()

			moved := s.Stats().Snapshot().Sub(before)
			versions := int64(len(dbs))
			if moved["rel.evals.relational"] == 0 || moved["rel.evals.grounded"] == 0 || moved["rel.base.hits"] == 0 {
				t.Fatalf("the run did not exercise both engines and the shared base: %v", moved)
			}
			// Per version: e's two columns, its keys once, and its rows once into
			// tables, which the keys and the fact rules read too.
			if moved["rel.base.indexes"] > 2*versions || moved["rel.base.keys"] > keysOfAllVersions || moved["rel.base.rows"] > keysOfAllVersions {
				t.Errorf("something was derived twice for one version: %d indexes, %d keys, %d rows over %d versions holding %d facts",
					moved["rel.base.indexes"], moved["rel.base.keys"], moved["rel.base.rows"], versions, keysOfAllVersions)
			}

			for deadline := time.Now().Add(10 * time.Second); ; {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("the first version's fact base is still reachable after twelve later versions")
				}
			}
		})
	}
}

// TestServedReachCounts pins, by exact counters, what a served recursive
// datalog read costs on a 1 000-edge graph: no ground program at all, join
// work proportional to what it derives plus one pass over e for the negated
// stratum — independent of how e is indexed — no scan of e inside the
// recursive unit, and on the second request nothing left to derive from the
// database.
func TestServedReachCounts(t *testing.T) {
	s, ts := statsServer(t, Config{})
	db := graphDB(500)
	nEdges := int64(db["e"].Len())
	if err := s.RegisterDB("g", db); err != nil {
		t.Fatal(err)
	}
	c := baseClasses[0]
	served := func() (queryResponse, obsv.Snapshot) {
		t.Helper()
		before := s.Stats().Snapshot()
		status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "datalog", Semantics: c.sem, Query: c.text})
		if status != http.StatusOK {
			t.Fatalf("reach: %d %+v", status, bad)
		}
		return ok, s.Stats().Snapshot().Sub(before)
	}
	first, cold := served()
	second, warm := served()
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatal("the same request on the same version answered differently")
	}
	r := int64(len(predByName(first.Result.Preds, "r").True))
	if r < 100 || len(predByName(first.Result.Preds, "e").True) != int(nEdges) {
		t.Fatalf("reach derived %d nodes over %d edges", r, nEdges)
	}
	for name, moved := range map[string]obsv.Snapshot{"cold": cold, "warm": warm} {
		if moved["ground.calls"] != 0 || moved["ground.rules"] != 0 || moved["ground.atoms"] != 0 || moved["rel.evals.relational"] != 1 {
			t.Errorf("%s: the request was grounded: %v", name, moved)
		}
		// A row tried and a body completed are a step each: every reached node
		// is joined with its two out-edges once (the seeds twice — the
		// from-scratch entry finds them too), and far passes over e once.
		if limit := 2*(2*r+nEdges) + 32; moved["rel.steps"] > limit || moved["rel.steps"] < r {
			t.Errorf("%s: %d join steps, want at most %d", name, moved["rel.steps"], limit)
		}
		if moved["rel.units.recursive"] != 1 || moved["rel.units.nonrecursive"] != 1 {
			t.Errorf("%s: units %v", name, moved)
		}
	}
	if cold["rel.steps"] != warm["rel.steps"] || cold["rel.probes"] != warm["rel.probes"] {
		t.Errorf("the evaluation itself must not depend on who built the base: cold %v, warm %v", cold, warm)
	}
	if cold["rel.base.misses"] != 1 || cold["rel.base.rows"] != nEdges || cold["rel.base.keys"] != nEdges || cold["rel.base.indexes"] != 1 {
		t.Errorf("cold request: %v, want e loaded, e(·, _) indexed and e's keys rendered", cold)
	}
	if warm["rel.base.hits"] != 1 || warm["rel.base.rows"] != 0 || warm["rel.base.keys"] != 0 || warm["rel.base.indexes"] != 0 {
		t.Errorf("warm request derived from the database again: %v", warm)
	}

	// Which relations each unit scanned is on the event, not the counters.
	var mu sync.Mutex
	var evs []obsv.RelStats
	prev := obsv.Default()
	obsv.SetDefault(obsv.Func(func(e obsv.Event) {
		if s, ok := e.(obsv.RelStats); ok {
			mu.Lock()
			defer mu.Unlock()
			evs = append(evs, s)
		}
	}))
	defer obsv.SetDefault(prev)
	served()
	mu.Lock()
	defer mu.Unlock()
	if len(evs) != 1 || len(evs[0].Units) != 2 {
		t.Fatalf("events: %+v", evs)
	}
	for _, u := range evs[0].Units {
		scansE := strings.Contains(" "+strings.Join(u.Scanned, " ")+" ", " e ")
		if u.Recursive == scansE {
			t.Errorf("unit %v (recursive %v) scanned %v: the recursive unit must probe e, the negated stratum scans it once", u.Preds, u.Recursive, u.Scanned)
		}
	}
}

// TestServedFallbackCounts: a request that falls back because a stored
// relation is not of the width the plan reads had the fact base convert that
// relation's rows to find so, and counts them in rel.base.rows as a kernel
// run would; the next request on the version converts nothing.
func TestServedFallbackCounts(t *testing.T) {
	s, ts := statsServer(t, Config{})
	db := graphDB(50)
	db["e"] = db["e"].Insert(value.NewTuple(value.Int(1), value.Int(2), value.Int(3)))
	n := int64(db["e"].Len())
	if err := s.RegisterDB("g", db); err != nil {
		t.Fatal(err)
	}
	const join = `map(select(product(e, e), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`
	for round, want := range []int64{n, 0} {
		before := s.Stats().Snapshot()
		if status, _, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: join}); status != http.StatusOK {
			t.Fatalf("request %d: %d %+v", round, status, bad)
		}
		moved := s.Stats().Snapshot().Sub(before)
		if moved["algebra.fallback.shape"] != 1 || moved["rel.evals.algebra"] != 0 {
			t.Fatalf("request %d: %v, want a fallback on shape", round, moved)
		}
		if moved["rel.base.rows"] != want {
			t.Errorf("request %d: rel.base.rows %d, want %d", round, moved["rel.base.rows"], want)
		}
	}
}

// TestTimeoutInsideOneDatalogRule: a three-way product rule over 10^3 facts is
// one rule execution of some 10^8 join steps — no round, unit or worklist
// boundary in it. Under a 20 ms deadline the server answers "timeout", and
// soon: the relational kernel polls the request's interrupt on its step
// counter. (The step budget would end it too, as budget-exceeded, but only
// after 8 million steps.)
func TestTimeoutInsideOneDatalogRule(t *testing.T) {
	s, ts := statsServer(t, Config{})
	var as []value.Value
	for i := int64(0); i < 1000; i++ {
		as = append(as, value.Int(i))
	}
	if err := s.RegisterDB("a", algebra.DB{"a": value.NewSet(as...)}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	status, _, bad := postQuery(t, ts, queryRequest{
		DB: "a", Language: "datalog", Semantics: "stratified", TimeoutMS: 20,
		Query: "p(X, Y, Z) :- a(X), a(Y), a(Z), X > Y, Y > Z, Z > X.",
	})
	if took := time.Since(start); status != http.StatusGatewayTimeout || bad.Error.Code != codeTimeout || took > 5*time.Second {
		t.Fatalf("got %d %+v after %s, want 504 timeout within moments of the 20 ms deadline", status, bad, took)
	}
	// The same request under a step budget it exhausts first is budget-exceeded
	// — the code does not depend on which engine ran.
	status, _, bad = postQuery(t, ts, queryRequest{
		DB: "a", Language: "datalog", Semantics: "stratified", Budget: &budgetJSON{MaxRules: 5000},
		Query: "p(X, Y, Z) :- a(X), a(Y), a(Z), X > Y, Y > Z, Z > X.",
	})
	if status != http.StatusUnprocessableEntity || bad.Error.Code != codeBudgetExceed {
		t.Fatalf("got %d %+v, want 422 budget-exceeded", status, bad)
	}
}
