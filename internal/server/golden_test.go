package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateBodies = flag.Bool("update", false, "rewrite testdata/bodies.golden")

// goldenDB holds strings JSON must escape: a quote, HTML's <, > and &, a
// line separator, a non-ASCII letter and control characters.
const goldenDB = `rel s = {("a\"b", 1), ("<&>", 2), ("\u2028x", 3), ("é", 4), ("\x01\t\n\b\f\x7f", 5), (plain, 6)};
rel edge = {(a, b), (b, c), (c, d)};`

// goldenRequests cover every shape a /v1/query success body takes.
var goldenRequests = []queryRequest{
	// Expression answers: a stored relation, a point select, a join on the
	// kernel and an ifp closure.
	{Language: "algebra", Query: "s"},
	{Language: "algebra", Query: `select(s, \p -> p.1 = "<&>")`},
	{Language: "algebra", Query: `map(select(product(s, s), \p -> p.1.2 = p.2.2), \p -> (p.1.1, p.2.1))`},
	{Language: "ifp-algebra", Query: tcIFP},
	// algebra=: defs with undefined parts, queries, stable models, and
	// queries alone under the inflationary reading.
	{Language: "algebra=", Query: winCycleScript},
	{Language: "algebra=", Query: winCycleScript + "\nquery win;\nquery select(s, \\p -> p.1 = \"a\\\"b\");"},
	{Language: "algebra=", Semantics: "stable", Query: winCycleScript},
	{Language: "algebra=", Semantics: "inflationary", Query: tcScript},
	// Datalog: true and undefined facts, stored predicates beside derived
	// ones, stable models, none at all, and no derived predicate.
	{Language: "datalog", Semantics: "wellfounded", Query: winDatalog},
	{Language: "datalog", Query: `t(Y, X) :- s(X, Y), X != 3.`},
	{Language: "datalog", Semantics: "stratified", Query: `q(X) :- edge(X, Y), not edge(Y, X).`},
	{Language: "datalog", Semantics: "stable", Query: "move(a, b). move(b, a).\nwin(X) :- move(X, Y), not win(Y)."},
	{Language: "datalog", Semantics: "stable", Query: winDatalog},
	{Language: "datalog", Semantics: "inflationary", Query: `g(X) :- s(X, 2).`},
	{Language: "datalog", Query: `p("<&>").`},
	{Language: "datalog", Query: `r(X) :- nothing(X).`},
}

// wallMS is the one field of a body that differs from run to run.
var wallMS = regexp.MustCompile(`"wallMS":[0-9.e+-]+`)

// TestGoldenBodies: the served /v1/query success bodies, byte for byte, with
// wallMS masked. Regenerate with -update only when a change of the wire
// format is intended.
func TestGoldenBodies(t *testing.T) {
	s := New(Config{})
	db, err := LoadDBScript(goldenDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDB("g", db); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, req := range goldenRequests {
		req.DB = "g"
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := http.NewRequest("POST", "/v1/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.Language, req.Query, w.Code, w.Body.Bytes())
		}
		got.Write(wallMS.ReplaceAll(w.Body.Bytes(), []byte(`"wallMS":0`)))
	}
	path := filepath.Join("testdata", "bodies.golden")
	if *updateBodies {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("served bodies differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
