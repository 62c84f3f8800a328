package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/query"
	"algrec/internal/value"
)

// goldenCases are the committed example workloads whose stdout is pinned
// bit-for-bit. Regenerate with:
//
//	go build -o /tmp/algq ./cmd/algq && /tmp/algq <flags> <input> > <golden>
var goldenCases = []struct {
	golden string
	args   []string
}{
	{"tc.valid.golden", []string{"testdata/tc.alg"}},
	{"tc.inflationary.golden", []string{"-inflationary", "testdata/tc.alg"}},
	{"wingame.valid.golden", []string{"testdata/wingame.alg"}},
	{"wingame.stable.golden", []string{"-stable", "testdata/wingame.alg"}},
	{"wincycle.valid.golden", []string{"-defs", "testdata/wincycle.alg"}},
	{"wincycle.stable.golden", []string{"-stable", "testdata/wincycle.alg"}},
}

// TestGolden pins the CLI's stdout bit-for-bit on the committed example
// workloads: the shared pipeline extraction (internal/query) must not change
// a single byte of output.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := run(tc.args, strings.NewReader(""), &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output diverged from %s:\n got:\n%s\nwant:\n%s", tc.golden, out.String(), want)
			}
		})
	}
}

// TestGoldenReference compares the outcome of each valid and inflationary
// golden with internal/core's reference loops (core.Eval with
// algebra.NewReference): materialized operators and naive IFP rounds must
// give every def and query the certain and undefined elements the CLI
// prints. The stable goldens run the Prop 5.4 translation and the grounder,
// which are the reference themselves.
func TestGoldenReference(t *testing.T) {
	for _, tc := range goldenCases {
		sem := query.SemValid
		switch tc.args[0] {
		case "-inflationary":
			sem = query.SemInflationary
		case "-stable":
			continue
		}
		t.Run(tc.golden, func(t *testing.T) {
			src, err := os.ReadFile(tc.args[len(tc.args)-1])
			if err != nil {
				t.Fatal(err)
			}
			plan, err := query.Compile(query.LangAlgebraEq, sem, string(src))
			if err != nil {
				t.Fatal(err)
			}
			out, err := query.Execute(plan, nil, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Eval(algebra.NewReference, plan.Script.Program, plan.Script.DB, algebra.Budget{}, sem == query.SemInflationary)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, set, undef, refSet, refUndef value.Set) {
				if !value.Equal(set, refSet) || !value.Equal(undef, refUndef) {
					t.Errorf("%s: %v, undefined %v; the reference: %v, undefined %v", what, set, undef, refSet, refUndef)
				}
			}
			for _, d := range out.Defs {
				same(d.Name, d.Set, d.Undef, ref.Lower[d.Name], ref.UndefElems(d.Name))
			}
			for i, q := range out.Queries {
				lower, err := ref.QueryLower(plan.Script.Queries[i].Expr)
				if err != nil {
					t.Fatal(err)
				}
				upper, err := ref.QueryUpper(plan.Script.Queries[i].Expr)
				if err != nil {
					t.Fatal(err)
				}
				same(q.Src, q.Set, q.Undef, lower, upper.Diff(lower))
			}
		})
	}
}
