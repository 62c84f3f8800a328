package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"algrec/internal/server"
)

// served is the read workload's datalog requests over one random graph of
// 10^4 nodes and 2·10^4 edges, registered as "g" on a server of its own.
type served struct {
	h      http.Handler
	bodies map[string][]byte
}

// servedClasses names the requests in the order they run.
var servedClasses = []string{"reach", "win", "tc2"}

func newServed(tb testing.TB) *served {
	const nodes, edges = 10_000, 20_000
	r := rand.New(rand.NewSource(1))
	seen := make(map[[2]int]bool, edges)
	var sb strings.Builder
	sb.WriteString("rel e = {")
	var src []int
	for len(seen) < edges {
		p := [2]int{r.Intn(nodes), r.Intn(nodes)}
		if seen[p] {
			continue
		}
		if len(seen) > 0 {
			sb.WriteString(", ")
		}
		seen[p] = true
		if len(src) < 3 {
			src = append(src, p[0])
		}
		fmt.Fprintf(&sb, "(%d, %d)", p[0], p[1])
	}
	sb.WriteString("};\n")
	db, err := server.LoadDBScript(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	s := server.New(server.Config{})
	if err := s.RegisterDB("g", db); err != nil {
		tb.Fatal(err)
	}
	queries := map[string][2]string{
		"reach": {"stratified", fmt.Sprintf("r(X) :- e(%d,X). r(Y) :- r(X), e(X,Y). far(X) :- e(X,Y), not r(X).", src[0])},
		"win":   {"wellfounded", "win(X) :- e(X,Y), not win(Y)."},
		"tc2":   {"stratified", fmt.Sprintf("tc(%d,X) :- e(%d,X). tc(%d,X) :- e(%d,X). tc(A,Y) :- tc(A,X), e(X,Y).", src[1], src[1], src[2], src[2])},
	}
	sv := &served{h: s.Handler(), bodies: map[string][]byte{}}
	for name, q := range queries {
		body, err := json.Marshal(map[string]string{"db": "g", "language": "datalog", "semantics": q[0], "query": q[1]})
		if err != nil {
			tb.Fatal(err)
		}
		sv.bodies[name] = body
		sv.serve(tb, name) // compile the plan and build the fact base
	}
	return sv
}

// serve runs one request and returns the size of its response body.
func (sv *served) serve(tb testing.TB, name string) int {
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(sv.bodies[name]))
	w := httptest.NewRecorder()
	sv.h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", name, w.Code, w.Body.Bytes())
	}
	return w.Body.Len()
}

// TestServedDatalogAllocs bounds what a served read request allocates once
// its plan is cached and its database version's fact base is built: an
// answer is rendered from its rows into the text it is sent as, without a
// string per fact.
func TestServedDatalogAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2·10^4-edge graph")
	}
	sv := newServed(t)
	for _, name := range servedClasses {
		if n := testing.AllocsPerRun(3, func() { sv.serve(t, name) }); n >= 1000 {
			t.Errorf("a served %s request takes %.0f allocations, want fewer than 1000", name, n)
		}
	}
}

// BenchmarkServeDatalog serves the read workload's three datalog requests —
// reach, win and tc2 — through Server.Handler on a random graph of 10^4 nodes
// and 2·10^4 edges, warm: plans cached, the fact base built.
func BenchmarkServeDatalog(b *testing.B) {
	sv := newServed(b)
	for _, name := range servedClasses {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(sv.serve(b, name)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv.serve(b, name)
			}
		})
	}
}
