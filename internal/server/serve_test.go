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

// served is the read workload's datalog requests and the point workload's
// algebra requests over one random graph of 10^4 nodes and 2·10^4 edges,
// registered as "g" on a server of its own.
type served struct {
	h      http.Handler
	bodies map[string][]byte
}

// servedClasses names the datalog requests in the order they run.
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
	queries := map[string][3]string{
		"reach":   {"datalog", "stratified", fmt.Sprintf("r(X) :- e(%d,X). r(Y) :- r(X), e(X,Y). far(X) :- e(X,Y), not r(X).", src[0])},
		"win":     {"datalog", "wellfounded", "win(X) :- e(X,Y), not win(Y)."},
		"tc2":     {"datalog", "stratified", fmt.Sprintf("tc(%d,X) :- e(%d,X). tc(%d,X) :- e(%d,X). tc(A,Y) :- tc(A,X), e(X,Y).", src[1], src[1], src[2], src[2])},
		"pt-out":  {"ifp-algebra", "", fmt.Sprintf(`select(e, \p -> p.1 = %d)`, src[0])},
		"pt-2hop": {"ifp-algebra", "", fmt.Sprintf(`map(select(product(select(e, \p -> p.1 = %d), e), \p -> p.1.2 = p.2.1), \p -> p.2.2)`, src[0])},
		"pt-ifp":  {"ifp-algebra", "", fmt.Sprintf(`ifp(s, union({(%d, 0)}, map(select(product(s, e), \p -> p.1.1 = p.2.1 and p.1.2 < 2), \p -> (p.2.2, p.1.2 + 1))))`, src[0])},
	}
	sv := &served{h: s.Handler(), bodies: map[string][]byte{}}
	for name, q := range queries {
		body, err := json.Marshal(map[string]string{"db": "g", "language": q[0], "semantics": q[1], "query": q[2]})
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

// TestServedAllocs bounds what a served read request allocates once its
// plan is cached and its database version's fact base is built: a datalog
// answer is rendered from its rows into the text it is sent as, without a
// string per fact, and a point request (the adhoc-point workload's classes)
// allocates a few hundred objects at most. Each bound is about 1.5 times
// what the request took when the bound was set; a change that raises one
// says so.
func TestServedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2·10^4-edge graph")
	}
	sv := newServed(t)
	for _, c := range []struct {
		name string
		max  float64
	}{
		{"reach", 650}, {"win", 1150}, {"tc2", 490},
		{"pt-out", 85}, {"pt-2hop", 210}, {"pt-ifp", 580},
	} {
		n := testing.AllocsPerRun(3, func() { sv.serve(t, c.name) })
		t.Logf("%s: %.0f allocations", c.name, n)
		if n > c.max {
			t.Errorf("a served %s request takes %.0f allocations, want at most %.0f", c.name, n, c.max)
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
