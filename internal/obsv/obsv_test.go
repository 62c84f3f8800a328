package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestStatsFoldsAndSnapshots(t *testing.T) {
	s := NewStats()
	s.Fixpoint(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 5, ScratchAllocated: 1})
	s.Fixpoint(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 3, ScratchReused: 1})
	s.Fixpoint(FixpointStats{Semantics: "inflationary", Passes: 4, Deltas: []int{2, 1, 1, 0}})
	s.Ground(GroundStats{Atoms: 10, Rules: 20, Passes: 3, DeltaHits: 7, DeltaSkips: 2})
	s.Translate(TranslateStats{Op: "stepindex", InSize: 4, OutSize: 12, Steps: 3})
	s.StableSearch(StableSearchStats{Undef: 4, Candidates: 16, Models: 4})
	s.IVM(IVMStats{Mode: "incremental", Inserted: 4, Deleted: 4, Steps: 24, Probes: 9, DeltaFacts: 10, Units: []IVMUnit{
		{Preds: []string{"r"}, Strategy: "dred", OverDeleted: 4, Rederived: 1, Steps: 20},
		{Preds: []string{"gp"}, Strategy: "counting", Steps: 4},
	}})
	s.IVM(IVMStats{Mode: "incremental", Deleted: 1, Steps: 7, Scans: 2, Rebuilt: true, Units: []IVMUnit{{Preds: []string{"r"}, Strategy: "rebuild", Steps: 7}}})
	s.IVM(IVMStats{Mode: "recompute", Inserted: 1, DeltaFacts: 3})
	s.Rel(RelStats{Engine: "relational", BaseRows: 20, BaseIndexes: 1, BaseKeys: 20, Steps: 90, Probes: 30, Scans: 1, Rows: 35, Units: []RelUnit{
		{Preds: []string{"r"}, Recursive: true, Steps: 50, Probes: 30, Rows: 10},
		{Preds: []string{"far"}, Steps: 40, Scans: 1, Rows: 5, Scanned: []string{"e"}},
	}})
	s.Rel(RelStats{Engine: "relational", BaseHit: true, Steps: 90, Probes: 30, Scans: 1, Rows: 35, Units: []RelUnit{
		{Preds: []string{"r"}, Recursive: true},
		{Preds: []string{"win"}, Recursive: true, Alternations: 9, Flips: 40},
	}})
	s.Rel(RelStats{Engine: "grounded", Fallback: "semantics", BaseRows: 20})
	s.Diff(DiffStats{Path: "probing", Probed: 569, Lookups: 900, Kept: 400, Leaves: 2})
	s.Diff(DiffStats{Path: "probing", Probed: 569, Lookups: 950, Kept: 398, Leaves: 2})
	s.Diff(DiffStats{Path: "materialized", Kept: 3, Leaves: 1})

	snap := s.Snapshot()
	want := map[string]int64{
		"fixpoint.minimal.calls":           2,
		"fixpoint.minimal.passes":          2,
		"fixpoint.minimal.derived":         8,
		"fixpoint.inflationary.calls":      1,
		"fixpoint.inflationary.passes":     4,
		"fixpoint.inflationary.deltaAtoms": 4,
		"scratch.reused":                   1,
		"scratch.allocated":                1,
		"ground.calls":                     1,
		"ground.atoms":                     10,
		"ground.rules":                     20,
		"ground.passes":                    3,
		"ground.deltaHits":                 7,
		"ground.deltaSkips":                2,
		"translate.stepindex.calls":        1,
		"translate.stepindex.inSize":       4,
		"translate.stepindex.outSize":      12,
		"stable.searches":                  1,
		"stable.candidates":                16,
		"stable.models":                    4,
		"ivm.applies.incremental":          2,
		"ivm.applies.recompute":            1,
		"ivm.steps":                        31,
		"ivm.probes":                       9,
		"ivm.scans":                        2,
		"ivm.deltaFacts":                   13,
		"ivm.fallbacks":                    1,
		"ivm.units.dred":                   1,
		"ivm.units.counting":               1,
		"ivm.units.rebuild":                1,
		"ivm.overDeleted":                  4,
		"ivm.rederived":                    1,
		"rel.evals.relational":             2,
		"rel.evals.grounded":               1,
		"rel.fallbacks.semantics":          1,
		"rel.base.hits":                    1,
		"rel.base.misses":                  2,
		"rel.base.rows":                    40,
		"rel.base.indexes":                 1,
		"rel.base.keys":                    20,
		"rel.steps":                        180,
		"rel.probes":                       60,
		"rel.scans":                        2,
		"rel.rows":                         70,
		"rel.units.recursive":              3,
		"rel.units.nonrecursive":           1,
		"rel.units.alternating":            1,
		"rel.alternations":                 9,
		"rel.flips":                        40,
		"diff.evals":                       3,
		"diff.paths.probing":               2,
		"diff.paths.materialized":          1,
		"diff.probed":                      1138,
		"diff.lookups":                     1850,
		"diff.kept":                        801,
		"diff.leaves":                      5,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("counter %s = %d, want %d", k, snap[k], v)
		}
	}

	before := snap
	s.Fixpoint(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 2})
	d := s.Snapshot().Sub(before)
	if d["fixpoint.minimal.calls"] != 1 || d["fixpoint.minimal.derived"] != 2 {
		t.Errorf("snapshot delta wrong: %v", d)
	}
	if _, ok := d["ground.calls"]; ok {
		t.Errorf("unchanged counter survived Sub: %v", d)
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Fixpoint(FixpointStats{Semantics: "minimal", Passes: 1})
			}
		}()
	}
	wg.Wait()
	if got := s.Snapshot()["fixpoint.minimal.calls"]; got != 800 {
		t.Fatalf("lost updates: calls = %d, want 800", got)
	}
}

func TestJSONLEmitsOneObjectPerEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Fixpoint(FixpointStats{Semantics: "valid", Passes: 2, Derived: 7})
	j.Ground(GroundStats{Atoms: 3, Rules: 4})
	j.Diff(DiffStats{Path: "probing", Probed: 5, Lookups: 9, Kept: 2, Leaves: 2})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if want := `"event":"diff"`; !strings.Contains(lines[2], want) || !strings.Contains(lines[2], `"Path":"probing"`) || !strings.Contains(lines[2], `"Lookups":9`) {
		t.Errorf("diff event line = %s", lines[2])
	}
	var ev struct {
		Kind string          `json:"event"`
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "fixpoint" {
		t.Fatalf("first event kind = %q, want fixpoint", ev.Kind)
	}
	var fp FixpointStats
	if err := json.Unmarshal(ev.Data, &fp); err != nil {
		t.Fatal(err)
	}
	if fp.Semantics != "valid" || fp.Passes != 2 || fp.Derived != 7 {
		t.Fatalf("fixpoint payload round-trip lost data: %+v", fp)
	}
}

func TestMultiAndDefault(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil")
	}
	a, b := NewStats(), NewStats()
	if got := Multi(nil, a); got != Collector(a) {
		t.Fatal("Multi of one collector should return it directly")
	}
	m := Multi(a, b)
	m.Fixpoint(FixpointStats{Semantics: "minimal"})
	if a.Snapshot()["fixpoint.minimal.calls"] != 1 || b.Snapshot()["fixpoint.minimal.calls"] != 1 {
		t.Fatal("Multi did not fan out")
	}

	if Default() != nil {
		t.Fatal("default collector should start nil")
	}
	SetDefault(a)
	if Default() != Collector(a) {
		t.Fatal("SetDefault did not take")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not disable")
	}
}
