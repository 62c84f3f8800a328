package expt

import (
	"strings"
	"testing"
)

// testSuites is the whole experiment suite at a reduced scale.
func testSuites() []Suite {
	return []Suite{
		sharded("E1", []int{6, 10}, RunE1),
		sharded("E2", []int64{32, 128}, RunE2),
		whole("E3", []int{4, 6}, RunE3),
		sharded("E4", []int{8, 16}, RunE4),
		whole("E5", []int{8, 16}, RunE5),
		sharded("E6", []int{8, 24}, RunE6),
		whole("E7", []int{4, 8}, RunE7),
		sharded("E8", []int{4, 8}, RunE8),
		sharded("E9", []int{4, 8}, RunE9),
		sharded("E10", []int{4, 6}, RunE10),
		whole("E11", []int{4}, RunE11),
		sharded("P1", []int{16, 32}, RunP1),
		sharded("P2", []int{8, 16}, RunP2),
		sharded("P3", []int{2, 4}, RunP3),
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

// TestRunSuitesParallelMatchesSerial runs a slice of the suite both ways:
// the parallel sharded runner must produce tables with identical ids,
// headers and rows (timing cells differ only where a duration column exists,
// so the comparison uses experiments whose cells are deterministic).
func TestRunSuitesParallelMatchesSerial(t *testing.T) {
	suites := []Suite{
		whole("E3", []int{4, 6}, RunE3),
		sharded("P3", []int{2, 3, 4}, RunP3),
		sharded("P1", []int{16, 24, 32}, RunP1),
	}
	serial, err := RunSuites(suites, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuites(suites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		st, pt := serial[i].Table, parallel[i].Table
		if st.ID != pt.ID || !st.OK || !pt.OK {
			t.Errorf("suite %s: id/OK mismatch (parallel id %s, OK %v/%v)", st.ID, pt.ID, st.OK, pt.OK)
		}
		if len(st.Rows) != len(pt.Rows) {
			t.Errorf("%s: row counts differ: %d vs %d", st.ID, len(st.Rows), len(pt.Rows))
			continue
		}
		// Deterministic (non-duration) cells must match exactly; row order
		// must follow shard (= size) order.
		for r := range st.Rows {
			if st.Rows[r][0] != pt.Rows[r][0] {
				t.Errorf("%s row %d: first cell %q vs %q (shard order broken)", st.ID, r, st.Rows[r][0], pt.Rows[r][0])
			}
		}
	}
	if serial[0].Wall <= 0 {
		t.Error("serial result missing wall time")
	}
	if serial[0].Mallocs == 0 {
		t.Error("serial result missing allocation counts")
	}
}

func TestMergeTables(t *testing.T) {
	a := &Table{ID: "X", Title: "x", OK: true, Header: []string{"h"}, Notes: []string{"n1"}}
	a.Add("r1")
	b := &Table{ID: "X", Title: "x", OK: false, Header: []string{"h"}, Notes: []string{"n1", "n2"}}
	b.Add("r2")
	m := mergeTables([]*Table{a, b})
	if m.ID != "X" || m.OK || len(m.Rows) != 2 || m.Rows[0][0] != "r1" || m.Rows[1][0] != "r2" {
		t.Errorf("bad merge: %+v", m)
	}
	if len(m.Notes) != 2 {
		t.Errorf("notes not deduplicated+merged: %v", m.Notes)
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
