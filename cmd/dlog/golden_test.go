package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algrec/internal/algebra"
)

// goldenCases are the committed example workloads whose stdout is pinned
// bit-for-bit. Regenerate with:
//
//	go build -o /tmp/dlog ./cmd/dlog && /tmp/dlog <flags> <input> > <golden>
var goldenCases = []struct {
	golden string
	args   []string
}{
	{"tc.minimal.golden", []string{"-semantics", "minimal", "testdata/tc.dlog"}},
	{"tc.valid.golden", []string{"testdata/tc.dlog"}},
	{"bom.stratified.golden", []string{"-semantics", "stratified", "testdata/bom.dlog"}},
	{"bom.missing.wellfounded.golden", []string{"-semantics", "wellfounded", "-pred", "missing", "testdata/bom.dlog"}},
	{"wingame.valid.golden", []string{"-undef", "testdata/wingame.dlog"}},
	{"wingame.stable.golden", []string{"-semantics", "stable", "testdata/wingame.dlog"}},
	{"wingame.inflationary.golden", []string{"-semantics", "inflationary", "testdata/wingame.dlog"}},
}

func runGolden(t *testing.T) {
	t.Helper()
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

// TestGolden pins the CLI's stdout bit-for-bit on the committed example
// workloads: the shared pipeline extraction (internal/query) must not change
// a single byte of output.
func TestGolden(t *testing.T) { runGolden(t) }

// TestGoldenNoStreaming replays the same golden cases on the reference
// evaluator (Budget.NoStreaming): operator-by-operator materialization, naive
// IFP rounds and unscheduled defining equations must reproduce every byte of
// output.
func TestGoldenNoStreaming(t *testing.T) {
	was := algebra.DefaultBudget.NoStreaming
	algebra.DefaultBudget.NoStreaming = true
	defer func() { algebra.DefaultBudget.NoStreaming = was }()
	runGolden(t)
}
