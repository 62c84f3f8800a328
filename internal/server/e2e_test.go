package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Known-answer workloads shared by the end-to-end matrix: a small edge
// relation as the registered database, plus query texts per language.
const (
	// tcExpr computes one extension step of the registered edge relation.
	joinExpr = `map(select(product(edge, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))`
	// tcIFP computes the transitive closure of edge with the ifp operator.
	tcIFP = `ifp(s, union(edge, map(select(product(s, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2))))`
	// tcScript computes the same closure as a recursive defining equation
	// over the registered edge relation.
	tcScript = `def tc = union(edge, map(select(product(tc, edge), \p -> p.1.2 = p.2.1), \p -> (p.1.1, p.2.2)));
query tc;`
	// winCycleScript is the WIN game on a 2-cycle: no valid two-valued
	// reading, two stable readings.
	winCycleScript = `rel move = {(a, b), (b, a)};
def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);`
	// tcDatalog is the deductive transitive closure with inline facts.
	tcDatalog = `edge(a, b). edge(b, c). edge(c, d).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).`
	// bomDatalog is the bill-of-materials workload with stratified negation.
	bomDatalog = `sub(bike, frame). sub(bike, wheel). sub(wheel, rim). sub(wheel, spoke).
sub(wheel, hub). sub(hub, axle). sub(hub, bearing). sub(lamp, bulb). sub(lamp, battery).
part(bike). part(frame). part(wheel). part(rim). part(spoke).
part(hub). part(axle). part(bearing). part(lamp). part(bulb). part(battery).
contains(X, Y) :- sub(X, Y).
contains(X, Z) :- contains(X, Y), sub(Y, Z).
missing(Y) :- part(Y), not contains(bike, Y), Y != bike.`
	// winDatalog is the WIN game on a cyclic MOVE: win(a) is undefined
	// under the three-valued semantics and kills every stable model.
	winDatalog = `move(a, a). move(a, b). move(b, c).
win(X) :- move(X, Y), not win(Y).`

	tcClosure = "{(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}"
)

// newTestServer builds a server with the edge database registered and
// returns it with its httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	db, err := LoadDBScript(`rel edge = {(a, b), (b, c), (c, d)};`)
	if err != nil {
		t.Fatalf("LoadDBScript: %v", err)
	}
	s.RegisterDB("g", db)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery posts a /v1/query request and decodes the JSON response.
func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) (int, queryResponse, errorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, ts, body)
}

// postRaw posts raw bytes to /v1/query and decodes the JSON response into
// both the success and error shapes (one of them stays zero).
func postRaw(t *testing.T, ts *httptest.Server, body []byte) (int, queryResponse, errorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	var ok queryResponse
	var bad errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decode success body %q: %v", buf.String(), err)
		}
	} else if err := json.Unmarshal(buf.Bytes(), &bad); err != nil {
		t.Fatalf("decode error body %q: %v", buf.String(), err)
	}
	return resp.StatusCode, ok, bad
}

// predByName finds one predicate's facts in a rendered datalog result.
func predByName(preds []predFactsJSON, name string) *predFactsJSON {
	for i := range preds {
		if preds[i].Pred == name {
			return &preds[i]
		}
	}
	return nil
}

// TestE2EMatrix drives every (language × semantics) pair through the HTTP
// surface against known-answer workloads; unsupported pairs must be
// rejected with the structured unsupported-semantics error.
func TestE2EMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sortedCopy := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	wantStrs := func(t *testing.T, what string, got, want []string) {
		t.Helper()
		if fmt.Sprint(sortedCopy(got)) != fmt.Sprint(sortedCopy(want)) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}

	type check func(t *testing.T, r queryResponse)
	valueIs := func(want string) check {
		return func(t *testing.T, r queryResponse) {
			t.Helper()
			if r.Result.Value != want {
				t.Fatalf("value = %q, want %q", r.Result.Value, want)
			}
		}
	}
	tcQueryAnswer := func(t *testing.T, r queryResponse) {
		t.Helper()
		if len(r.Result.Queries) != 1 || r.Result.Queries[0].Set != tcClosure {
			t.Fatalf("queries = %+v, want one answer %s", r.Result.Queries, tcClosure)
		}
		if !r.WellDefined {
			t.Fatalf("tc program should be well defined")
		}
	}
	winTrue := func(wantTrue, wantUndef []string) check {
		return func(t *testing.T, r queryResponse) {
			t.Helper()
			pf := predByName(r.Result.Preds, "win")
			if pf == nil {
				t.Fatalf("no win predicate in %+v", r.Result.Preds)
			}
			wantStrs(t, "win true", pf.True, wantTrue)
			wantStrs(t, "win undef", pf.Undef, wantUndef)
		}
	}

	tests := []struct {
		lang, sem, db, query string
		wantCode             string // "" = expect 200
		check                check
	}{
		// algebra: recursion-free, every semantics agrees.
		{"algebra", "valid", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},
		{"algebra", "wellfounded", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},
		{"algebra", "stable", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},
		{"algebra", "inflationary", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},
		{"algebra", "stratified", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},
		{"algebra", "minimal", "g", joinExpr, "", valueIs("{(a, c), (b, d)}")},

		// ifp-algebra: the transitive closure, every semantics agrees.
		{"ifp-algebra", "valid", "g", tcIFP, "", valueIs(tcClosure)},
		{"ifp-algebra", "wellfounded", "g", tcIFP, "", valueIs(tcClosure)},
		{"ifp-algebra", "stable", "g", tcIFP, "", valueIs(tcClosure)},
		{"ifp-algebra", "inflationary", "g", tcIFP, "", valueIs(tcClosure)},
		{"ifp-algebra", "stratified", "g", tcIFP, "", valueIs(tcClosure)},
		{"ifp-algebra", "minimal", "g", tcIFP, "", valueIs(tcClosure)},

		// algebra=: tc over the registered database under the evaluable
		// semantics; the 2-cycle WIN game under stable; the two
		// incompatible pairs rejected.
		{"algebra=", "valid", "g", tcScript, "", tcQueryAnswer},
		{"algebra=", "wellfounded", "g", tcScript, "", tcQueryAnswer},
		{"algebra=", "inflationary", "g", tcScript, "", tcQueryAnswer},
		{"algebra=", "stable", "", winCycleScript, "", func(t *testing.T, r queryResponse) {
			t.Helper()
			if len(r.Result.Models) != 2 {
				t.Fatalf("models = %+v, want 2 stable readings", r.Result.Models)
			}
			var got []string
			for _, m := range r.Result.Models {
				if len(m) != 1 || m[0].Name != "win" {
					t.Fatalf("model = %+v, want one win set", m)
				}
				got = append(got, m[0].Set)
			}
			wantStrs(t, "stable win sets", got, []string{"{a}", "{b}"})
		}},
		{"algebra=", "stratified", "", winCycleScript, "unsupported-semantics", nil},
		{"algebra=", "minimal", "", winCycleScript, "unsupported-semantics", nil},

		// datalog: all six semantics over the three paper workloads.
		{"datalog", "minimal", "", tcDatalog, "", func(t *testing.T, r queryResponse) {
			t.Helper()
			pf := predByName(r.Result.Preds, "tc")
			if pf == nil {
				t.Fatalf("no tc predicate in %+v", r.Result.Preds)
			}
			wantStrs(t, "tc", pf.True, []string{
				"tc(a, b)", "tc(a, c)", "tc(a, d)", "tc(b, c)", "tc(b, d)", "tc(c, d)",
			})
		}},
		{"datalog", "stratified", "", bomDatalog, "", func(t *testing.T, r queryResponse) {
			t.Helper()
			pf := predByName(r.Result.Preds, "missing")
			if pf == nil {
				t.Fatalf("no missing predicate in %+v", r.Result.Preds)
			}
			wantStrs(t, "missing", pf.True, []string{"missing(battery)", "missing(bulb)", "missing(lamp)"})
		}},
		{"datalog", "valid", "", winDatalog, "", winTrue([]string{"win(b)"}, []string{"win(a)"})},
		{"datalog", "wellfounded", "", winDatalog, "", winTrue([]string{"win(b)"}, []string{"win(a)"})},
		{"datalog", "inflationary", "", winDatalog, "", winTrue([]string{"win(a)", "win(b)"}, nil)},
		{"datalog", "stable", "", winDatalog, "", func(t *testing.T, r queryResponse) {
			t.Helper()
			if len(r.Result.DatalogModels) != 0 {
				t.Fatalf("models = %+v, want none (odd loop)", r.Result.DatalogModels)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.lang+"/"+tc.sem, func(t *testing.T) {
			status, ok, bad := postQuery(t, ts, queryRequest{
				DB: tc.db, Language: tc.lang, Semantics: tc.sem, Query: tc.query,
			})
			if tc.wantCode != "" {
				if status == http.StatusOK {
					t.Fatalf("status = 200, want error %q", tc.wantCode)
				}
				if bad.Error.Code != tc.wantCode {
					t.Fatalf("error code = %q (%s), want %q", bad.Error.Code, bad.Error.Message, tc.wantCode)
				}
				return
			}
			if status != http.StatusOK {
				t.Fatalf("status = %d (%s: %s), want 200", status, bad.Error.Code, bad.Error.Message)
			}
			if !ok.OK || ok.Language != tc.lang || ok.Semantics != tc.sem {
				t.Fatalf("response envelope = %+v", ok)
			}
			tc.check(t, ok)
		})
	}
}

// TestE2EErrorPaths asserts the JSON error shape of every rejection the
// query endpoint can produce before evaluation.
func TestE2EErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})

	t.Run("malformed-json", func(t *testing.T) {
		status, _, bad := postRaw(t, ts, []byte(`{"language": `))
		if status != http.StatusBadRequest || bad.Error.Code != codeBadRequest {
			t.Fatalf("got %d %+v, want 400 bad-request", status, bad)
		}
		if bad.OK || bad.Error.Message == "" {
			t.Fatalf("error body must carry ok=false and a message: %+v", bad)
		}
	})
	t.Run("unknown-language", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{Language: "sql", Query: "x"})
		if status != http.StatusBadRequest || bad.Error.Code != codeBadRequest {
			t.Fatalf("got %d %+v, want 400 bad-request", status, bad)
		}
	})
	t.Run("unknown-semantics", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{Language: "datalog", Semantics: "vibes", Query: "p(a)."})
		if status != http.StatusBadRequest || bad.Error.Code != codeBadRequest {
			t.Fatalf("got %d %+v, want 400 bad-request", status, bad)
		}
	})
	t.Run("missing-query", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{Language: "algebra"})
		if status != http.StatusBadRequest || bad.Error.Code != codeBadRequest {
			t.Fatalf("got %d %+v, want 400 bad-request", status, bad)
		}
	})
	t.Run("unknown-database", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{DB: "nope", Language: "algebra", Query: "edge"})
		if status != http.StatusNotFound || bad.Error.Code != codeUnknownDB {
			t.Fatalf("got %d %+v, want 404 unknown-database", status, bad)
		}
	})
	t.Run("oversized-body", func(t *testing.T) {
		big := queryRequest{Language: "datalog", Query: strings.Repeat("p(a). ", 200)}
		body, _ := json.Marshal(big)
		status, _, bad := postRaw(t, ts, body)
		if status != http.StatusRequestEntityTooLarge || bad.Error.Code != codeOversized {
			t.Fatalf("got %d %+v, want 413 oversized-body", status, bad)
		}
	})
	t.Run("parse-error", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{Language: "datalog", Query: "p(a"})
		if status != http.StatusUnprocessableEntity || bad.Error.Code != codeParseError {
			t.Fatalf("got %d %+v, want 422 parse-error", status, bad)
		}
	})
	t.Run("ifp-in-plain-algebra", func(t *testing.T) {
		status, _, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: tcIFP})
		if status != http.StatusUnprocessableEntity || bad.Error.Code != codeParseError {
			t.Fatalf("got %d %+v, want 422 parse-error", status, bad)
		}
	})
	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/query = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("budget-exceeded", func(t *testing.T) {
		// The closure runs on the relational kernel, whose worklist has no
		// rounds for maxIFPIters to count: the 6-pair closure is bounded by
		// maxSetSize instead, on either engine.
		status, _, bad := postQuery(t, ts, queryRequest{
			DB: "g", Language: "ifp-algebra", Query: tcIFP,
			Budget: &budgetJSON{MaxSetSize: 5},
		})
		if status != http.StatusUnprocessableEntity || bad.Error.Code != codeBudgetExceed {
			t.Fatalf("got %d %+v, want 422 budget-exceeded", status, bad)
		}
	})
	t.Run("retired-maxDepth", func(t *testing.T) {
		// The budget block's maxDepth is gone with the evaluator's call hook
		// it capped; decodeBody ignores unknown fields, so a client that
		// still sends it gets the answer it gets without it.
		status, want, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
		if status != http.StatusOK {
			t.Fatalf("without maxDepth: got %d %+v", status, bad)
		}
		body, _ := json.Marshal(map[string]any{"db": "g", "language": "ifp-algebra", "query": tcIFP, "budget": map[string]int{"maxDepth": 1}})
		status, got, bad := postRaw(t, ts, body)
		if status != http.StatusOK || !reflect.DeepEqual(got.Result, want.Result) {
			t.Fatalf("with maxDepth 1: got %d %+v %+v, want 200 %+v", status, got.Result, bad, want.Result)
		}
	})
}

// TestDBRegistryEndpoints exercises GET /v1/dbs, PUT /v1/dbs/{name},
// /healthz and /metrics, whose internedValues gauge counts no tuple for a
// PUT's facts, and which reports the collector's work.
func TestDBRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	get := func(t *testing.T, path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		return resp.StatusCode, m
	}
	put := func(t *testing.T, name, script string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/dbs/"+name, strings.NewReader(script))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	interned := func(t *testing.T) float64 {
		t.Helper()
		_, m := get(t, "/metrics")
		n, ok := m["internedValues"].(float64)
		if !ok {
			t.Fatalf("metrics has no internedValues: %v", m)
		}
		return n
	}

	status, m := get(t, "/v1/dbs")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/dbs = %d", status)
	}
	if dbs := m["dbs"].([]any); len(dbs) != 1 || dbs[0].(map[string]any)["name"] != "g" {
		t.Fatalf("dbs = %v, want [g]", m["dbs"])
	}

	if code := put(t, "h", `rel r = {1, 2, 3};`); code != http.StatusOK {
		t.Fatalf("PUT /v1/dbs/h = %d", code)
	}
	status, ok, bad := postQuery(t, ts, queryRequest{DB: "h", Language: "algebra", Query: "r"})
	if status != http.StatusOK {
		t.Fatalf("query over registered db = %d (%+v)", status, bad)
	}
	if ok.Result.Value != "{1, 2, 3}" {
		t.Fatalf("r = %q", ok.Result.Value)
	}

	// A database script must not smuggle in a program.
	if code := put(t, "bad", `def d = d;`); code != http.StatusUnprocessableEntity {
		t.Fatalf("PUT program as db = %d, want 422", code)
	}

	// A stored fact is a row of scalar IDs, never a tuple ID: a PUT of a
	// pair of symbols new to the process (named after the gauge), and a
	// datalog read of it, intern the two symbols at most — not the pair,
	// not the set.
	before := interned(t)
	script := fmt.Sprintf("rel r = {(gauge%.0fleft, gauge%.0fright)};", before, before)
	if code := put(t, "fresh", script); code != http.StatusOK {
		t.Fatalf("PUT /v1/dbs/fresh = %d", code)
	}
	status, ok, bad = postQuery(t, ts, queryRequest{DB: "fresh", Language: "datalog", Query: "s(X) :- r(X, Y)."})
	if status != http.StatusOK || len(ok.Result.Preds) != 2 || len(ok.Result.Preds[1].True) != 1 {
		t.Fatalf("datalog over the fresh db = %d %+v (%+v)", status, ok.Result, bad)
	}
	if after := interned(t); after > before+2 {
		t.Fatalf("internedValues %v -> %v across a PUT and a read of one new pair", before, after)
	}

	// The collector's work, after at least one cycle.
	runtime.GC()
	_, m = get(t, "/metrics")
	for _, field := range []string{"gcCycles", "gcCPUSeconds", "liveHeapBytes"} {
		if n, ok := m[field].(float64); !ok || n < 0 || n == 0 && field != "gcCPUSeconds" {
			t.Fatalf("metrics %s = %v after a GC cycle", field, m[field])
		}
	}

	if status, m = get(t, "/healthz"); status != http.StatusOK || m["status"] != "serving" {
		t.Fatalf("healthz = %d %v", status, m)
	}
	status, m = get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	counters := m["counters"].(map[string]any)
	if counters["server.query.requests"].(float64) < 1 {
		t.Fatalf("metrics counters missing query requests: %v", counters)
	}

	// A request rejected before the plan-cache lookup must not count as a
	// cache miss: misses and compiles stay in lockstep here because every
	// query in this test compiled fresh.
	misses := counters["server.cache.misses"].(float64)
	if _, _, bad := postQuery(t, ts, queryRequest{Language: "nope", Query: "r"}); bad.Error.Code != "bad-request" {
		t.Fatalf("unknown language code = %q", bad.Error.Code)
	}
	_, m = get(t, "/metrics")
	counters = m["counters"].(map[string]any)
	if got := counters["server.cache.misses"].(float64); got != misses {
		t.Fatalf("bad-request bumped cache misses: %v -> %v", misses, got)
	}
	if got := counters["server.compiles"].(float64); got != misses {
		t.Fatalf("compiles = %v, want %v (one per miss in this test)", got, misses)
	}
}

// TestLoadDBScriptFile pins the bundled example database (the file `make
// serve` registers) as a loadable relation-only script.
func TestLoadDBScriptFile(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "graph.alg"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadDBScript(string(src))
	if err != nil {
		t.Fatalf("LoadDBScript: %v", err)
	}
	if got := db["edge"].String(); got != "{(a, b), (b, c), (c, d)}" {
		t.Fatalf("edge = %s", got)
	}
}

// TestEveryRouteReports calls every route once successfully and, where the
// route has an error path, once with an error, then reads /metrics: each
// request is one server.<route>.requests count, each structured error one
// server.errors.<code> count, and only requests that consulted the plan
// cache count a hit or a miss.
func TestEveryRouteReports(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	do := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	calls := []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/v1/query", `{"db": "g", "language": "algebra", "query": "edge"}`, 200},
		{"POST", "/v1/query", `{"db": "zz", "language": "algebra", "query": "edge"}`, 404}, // a cache hit
		{"GET", "/v1/dbs", ``, 200},
		{"PUT", "/v1/dbs/h", `rel r = {1, 2, 3};`, 200},
		{"PUT", "/v1/dbs/bad", `def d = d;`, 422},
		{"POST", "/v1/dbs/g/facts", `{"insert": [{"pred": "edge", "args": ["d", "e"]}]}`, 200},
		{"POST", "/v1/dbs/g/facts", `{}`, 400},
		{"POST", "/v1/dbs/g/snapshot", `{"snapshot": "s1"}`, 200},
		{"POST", "/v1/dbs/g/snapshot", `{}`, 400},
		{"POST", "/v1/dbs/g/restore", `{"snapshot": "s1"}`, 200},
		{"POST", "/v1/dbs/g/restore", `{"snapshot": "nope"}`, 404},
		{"POST", "/v1/subscribe", `{"db": "zz", "language": "datalog", "query": "p(a)."}`, 404},
		{"GET", "/healthz", ``, 200},
	}
	for _, c := range calls {
		if got := do(c.method, c.path, c.body); got != c.status {
			t.Fatalf("%s %s %s = %d, want %d", c.method, c.path, c.body, got, c.status)
		}
	}
	sub := openSub(t, ts, dlogSub("g", tcProgram))
	if e := sub.next(t); e.Event != "snapshot" {
		t.Fatalf("first event = %+v", e)
	}
	sub.resp.Body.Close()
	waitCounter(t, s, "server.subscribe.requests", 2)

	// Draining: /healthz answers 503 without an error code, a query is
	// refused before the cache lookup.
	s.BeginDrain()
	if got := do("GET", "/healthz", ``); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", got)
	}
	if got := do("POST", "/v1/query", `{"db": "g", "language": "algebra", "query": "edge"}`); got != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d", got)
	}
	do("GET", "/metrics", ``) // a /metrics body predates its own event

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct{ Counters map[string]int64 }
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"server.query.requests":                3,
		"server.dbs.requests":                  3,
		"server.facts.requests":                2,
		"server.snapshot.requests":             2,
		"server.restore.requests":              2,
		"server.subscribe.requests":            2,
		"server.healthz.requests":              2,
		"server.metrics.requests":              1,
		"server.errors.unknown-database":       2,
		"server.errors.parse-error":            1,
		"server.errors.bad-request":            2,
		"server.errors.unknown-snapshot":       1,
		"server.errors.shutting-down":          1,
		"server.cache.hits":                    1,
		"server.cache.misses":                  2,
		"server.compiles":                      2,
		"server.subscriptions":                 1,
		"server.subscription.ends.client-gone": 1,
	}
	for k, v := range m.Counters {
		if !strings.HasPrefix(k, "server.") || k == "server.wallNS" || k == "server.subscription.wallNS" ||
			k == "server.subscription.events" || k == "server.subscription.coalesced" {
			continue
		}
		if want[k] != v {
			t.Errorf("%s = %d, want %d", k, v, want[k])
		}
		delete(want, k)
	}
	for k, v := range want {
		t.Errorf("%s missing, want %d", k, v)
	}
}
