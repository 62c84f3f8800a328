package expt

import (
	"strings"
	"testing"
)

// testSuites is the whole experiment suite at a reduced scale.
func testSuites() []Suite {
	return []Suite{
		suite("E1", []int{6, 10}, RunE1),
		suite("E2", []int64{32, 128}, RunE2),
		suite("E3", []int{4, 6}, RunE3),
		suite("E4", []int{8, 16}, RunE4),
		suite("E5", []int{8, 16}, RunE5),
		suite("E6", []int{8, 24}, RunE6),
		suite("E7", []int{4, 8}, RunE7),
		suite("E8", []int{4, 8}, RunE8),
		suite("E9", []int{4, 8}, RunE9),
		suite("E10", []int{4, 6}, RunE10),
		suite("E11", []int{4}, RunE11),
	}
}

// TestExperimentsPass runs the whole suite at a reduced scale and requires
// every agreement check to pass — the experiment harness is itself the
// integration test of the repository.
func TestExperimentsPass(t *testing.T) {
	suites := testSuites()
	for _, s := range suites {
		tbl, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !tbl.OK {
			t.Errorf("%s failed:\n%s", s.ID, tbl)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", s.ID)
		}
	}
}

func TestWorkloadGenerators(t *testing.T) {
	if got := len(ChainEdges("e", 5)); got != 5 {
		t.Errorf("chain(5) has %d edges", got)
	}
	if got := len(CycleEdges("e", 5)); got != 5 {
		t.Errorf("cycle(5) has %d edges", got)
	}
	if got := len(GridEdges("e", 3, 3)); got != 12 {
		t.Errorf("grid(3,3) has %d edges", got)
	}
	if got := len(RandomGraph("e", 10, 20, 1)); got != 20 {
		t.Errorf("random has %d edges", got)
	}
	for _, f := range RandomDAG("e", 10, 30, 1) {
		a, b := f.Args[0].String(), f.Args[1].String()
		if a >= b && len(a) == len(b) {
			t.Fatalf("DAG edge %s -> %s is not forward", a, b)
		}
	}
	if got := nativeTC(ChainEdges("e", 4)); got != 10 {
		t.Errorf("nativeTC(chain4) = %d, want 10", got)
	}
}

// TestRunInstrumented: a suite's run reports its table with the run's cost.
func TestRunInstrumented(t *testing.T) {
	res, err := RunInstrumented(suite("E3", []int{4, 6}, RunE3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.ID != "E3" || !res.Table.OK || len(res.Table.Rows) == 0 {
		t.Errorf("table %+v", res.Table)
	}
	if res.Wall <= 0 || res.Mallocs == 0 {
		t.Errorf("cost: wall %s, %d mallocs", res.Wall, res.Mallocs)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", OK: true, Header: []string{"a", "bb"}}
	tbl.Add(1, true)
	tbl.Add("xy", false)
	tbl.Notes = append(tbl.Notes, "a note")
	s := tbl.String()
	for _, want := range []string{"== T: demo [PASS]", "a note", "NO", "yes"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### T — demo (PASS)", "| a | bb |", "| 1 | yes |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	tbl.OK = false
	if !strings.Contains(tbl.String(), "[FAIL]") {
		t.Error("FAIL verdict missing")
	}
}
