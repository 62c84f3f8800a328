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
	s.Collect(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 5})
	s.Collect(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 3})
	s.Collect(FixpointStats{Semantics: "inflationary", Passes: 4, Deltas: []int{2, 1, 1, 0}})
	s.Collect(GroundStats{Atoms: 10, Rules: 20, Passes: 3})
	s.Collect(TranslateStats{Op: "stepindex", InSize: 4, OutSize: 12, Steps: 3})
	s.Collect(StableSearchStats{Undef: 4, Candidates: 16, Models: 4})
	s.Collect(IVMStats{Mode: "incremental", Inserted: 4, Deleted: 4, Steps: 24, Probes: 9, DeltaFacts: 10, Units: []IVMUnit{
		{Preds: []string{"r"}, Strategy: "dred", OverDeleted: 4, Rederived: 1, Steps: 20},
		{Preds: []string{"gp"}, Strategy: "counting", Steps: 4},
	}})
	s.Collect(IVMStats{Mode: "incremental", Deleted: 1, Steps: 7, Scans: 2, Rebuilt: true, Units: []IVMUnit{{Preds: []string{"r"}, Strategy: "rebuild", Steps: 7}}})
	s.Collect(IVMStats{Mode: "recompute", Inserted: 1, DeltaFacts: 3})
	s.Collect(RelStats{Engine: "relational", BaseRows: 20, BaseIndexes: 1, BaseKeys: 20, Steps: 90, Probes: 30, Scans: 1, Rows: 35, Units: []RelUnit{
		{Preds: []string{"r"}, Recursive: true, Steps: 50, Probes: 30, Rows: 10},
		{Preds: []string{"far"}, Steps: 40, Scans: 1, Rows: 5, Scanned: []string{"e"}},
	}})
	s.Collect(RelStats{Engine: "relational", BaseHit: true, Steps: 90, Probes: 30, Scans: 1, Rows: 35, Units: []RelUnit{
		{Preds: []string{"r"}, Recursive: true},
		{Preds: []string{"win"}, Recursive: true, Alternations: 9, Flips: 40},
	}})
	s.Collect(RelStats{Engine: "grounded", Fallback: "semantics", BaseRows: 20})
	s.Collect(DiffStats{Path: "probing", Probed: 569, Lookups: 900, Kept: 400, Leaves: 2})
	s.Collect(DiffStats{Path: "probing", Probed: 569, Lookups: 950, Kept: 398, Leaves: 2})
	s.Collect(DiffStats{Path: "materialized", Kept: 3, Leaves: 1})
	s.Collect(IFPStats{Mode: "seminaive", Rounds: 4, Result: 6, Deltas: []int{3, 2, 1, 0}})
	s.Collect(IFPStats{Mode: "seminaive", Rounds: 2, Result: 1, Deltas: []int{1, 0}})
	s.Collect(IFPStats{Mode: "naive", Rounds: 3, Result: 2, Deltas: []int{1, 1, 0}})
	s.Collect(CoreEvalStats{Semantics: "valid", Defs: 2, Gammas: 4, Rounds: 16, Evals: 32})
	s.Collect(CoreEvalStats{Semantics: "inflationary", Defs: 2, Gammas: 1, Rounds: 4, Evals: 8})
	s.Collect(ExperimentStats{ID: "E1", WallNS: 1500, CPUNS: 1200})
	s.Collect(ExperimentStats{ID: "E2", WallNS: 500})
	s.Collect(ServerStats{Route: "query", Language: "datalog", Semantics: "stratified", CacheLookup: true, Compiled: true, WallNS: 100})
	s.Collect(ServerStats{Route: "query", CacheLookup: true, CacheHit: true, WallNS: 20})
	s.Collect(ServerStats{Route: "query", Code: "parse-error", CacheLookup: true, Compiled: true, WallNS: 30})
	s.Collect(ServerStats{Route: "dbs", Code: "shutting-down", WallNS: 5})
	s.Collect(ServerStats{Route: "metrics", CacheHit: true, Compiled: true, WallNS: 7})
	s.Collect(SubscriptionStats{Language: "datalog", Mode: "incremental", Events: 5, Coalesced: 2, Reason: "client-gone", WallNS: 1000})
	s.Collect(SubscriptionStats{Mode: "recompute", Events: 1, Reason: "drain", WallNS: 300})
	s.Collect(StreamStats{Op: "select", Leaves: 2, Scanned: 40, Probes: 3, Tested: 12, Emitted: 6, Result: 5, HashJoins: 1, Pushed: 2})
	s.Collect(StreamStats{Op: "map", Leaves: 1, Scanned: 10, Tested: 10, Emitted: 10, Result: 10})
	s.Collect(AlgebraStats{Engine: "kernel"})
	s.Collect(AlgebraStats{Engine: "value", Fallback: "point"})
	s.Collect(AlgebraStats{Engine: "core", Fallback: "flip"})

	snap := s.Snapshot()
	want := map[string]int64{
		"fixpoint.minimal.calls":               2,
		"fixpoint.minimal.passes":              2,
		"fixpoint.minimal.derived":             8,
		"fixpoint.minimal.deltaAtoms":          0,
		"fixpoint.inflationary.derived":        0,
		"fixpoint.inflationary.calls":          1,
		"fixpoint.inflationary.passes":         4,
		"fixpoint.inflationary.deltaAtoms":     4,
		"ground.calls":                         1,
		"ground.atoms":                         10,
		"ground.rules":                         20,
		"ground.passes":                        3,
		"translate.stepindex.calls":            1,
		"translate.stepindex.inSize":           4,
		"translate.stepindex.outSize":          12,
		"stable.searches":                      1,
		"stable.candidates":                    16,
		"stable.models":                        4,
		"ivm.applies.incremental":              2,
		"ivm.applies.recompute":                1,
		"ivm.steps":                            31,
		"ivm.probes":                           9,
		"ivm.scans":                            2,
		"ivm.deltaFacts":                       13,
		"ivm.fallbacks":                        1,
		"ivm.units.dred":                       1,
		"ivm.units.counting":                   1,
		"ivm.units.rebuild":                    1,
		"ivm.overDeleted":                      4,
		"ivm.rederived":                        1,
		"rel.evals.relational":                 2,
		"rel.evals.grounded":                   1,
		"rel.fallbacks.semantics":              1,
		"rel.base.hits":                        1,
		"rel.base.misses":                      2,
		"rel.base.rows":                        40,
		"rel.base.indexes":                     1,
		"rel.base.keys":                        20,
		"rel.steps":                            180,
		"rel.probes":                           60,
		"rel.scans":                            2,
		"rel.rows":                             70,
		"rel.units.recursive":                  3,
		"rel.units.nonrecursive":               1,
		"rel.units.alternating":                1,
		"rel.alternations":                     9,
		"rel.flips":                            40,
		"diff.evals":                           3,
		"diff.paths.probing":                   2,
		"diff.paths.materialized":              1,
		"diff.probed":                          1138,
		"diff.lookups":                         1850,
		"diff.kept":                            801,
		"diff.leaves":                          5,
		"ifp.seminaive.calls":                  2,
		"ifp.seminaive.rounds":                 6,
		"ifp.seminaive.deltaElems":             7,
		"ifp.naive.calls":                      1,
		"ifp.naive.rounds":                     3,
		"ifp.naive.deltaElems":                 2,
		"core.valid.calls":                     1,
		"core.valid.rounds":                    16,
		"core.valid.evals":                     32,
		"core.inflationary.calls":              1,
		"core.inflationary.rounds":             4,
		"core.inflationary.evals":              8,
		"expt.runs":                            2,
		"expt.wallNS":                          2000,
		"expt.cpuNS":                           1200,
		"server.query.requests":                3,
		"server.dbs.requests":                  1,
		"server.metrics.requests":              1,
		"server.wallNS":                        162,
		"server.errors.parse-error":            1,
		"server.errors.shutting-down":          1,
		"server.cache.hits":                    1,
		"server.cache.misses":                  2,
		"server.compiles":                      2,
		"server.subscriptions":                 2,
		"server.subscription.events":           6,
		"server.subscription.coalesced":        2,
		"server.subscription.ends.client-gone": 1,
		"server.subscription.ends.drain":       1,
		"server.subscription.wallNS":           1300,
		"stream.pipelines":                     2,
		"stream.scanned":                       50,
		"stream.probes":                        3,
		"stream.tested":                        22,
		"stream.emitted":                       16,
		"stream.hashJoins":                     1,
		"stream.pushed":                        2,
		"algebra.engine.kernel":                1,
		"algebra.engine.value":                 1,
		"algebra.engine.core":                  1,
		"algebra.fallback.point":               1,
		"algebra.fallback.flip":                1,
	}
	for k, v := range want {
		if got, ok := snap[k]; !ok || got != v {
			t.Errorf("counter %s = %d (present %v), want %d", k, got, ok, v)
		}
	}
	for k, v := range snap {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected counter %s = %d", k, v)
		}
	}

	before := snap
	s.Collect(FixpointStats{Semantics: "minimal", Passes: 1, Derived: 2})
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
				s.Collect(FixpointStats{Semantics: "minimal", Passes: 1})
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
	j.Collect(FixpointStats{Semantics: "valid", Passes: 2, Derived: 7})
	j.Collect(GroundStats{Atoms: 3, Rules: 4})
	j.Collect(DiffStats{Path: "probing", Probed: 5, Lookups: 9, Kept: 2, Leaves: 2})
	j.Collect(IFPStats{})
	j.Collect(CoreEvalStats{})
	j.Collect(StableSearchStats{})
	j.Collect(TranslateStats{})
	j.Collect(ExperimentStats{})
	j.Collect(ServerStats{})
	j.Collect(SubscriptionStats{})
	j.Collect(StreamStats{})
	j.Collect(IVMStats{})
	j.Collect(RelStats{})
	j.Collect(AlgebraStats{})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	kinds := []string{"fixpoint", "ground", "diff", "ifp", "core_eval", "stable_search", "translate",
		"experiment", "server", "subscription", "stream", "ivm", "rel", "algebra"}
	if len(lines) != len(kinds) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(kinds), buf.String())
	}
	if want := `"event":"diff"`; !strings.Contains(lines[2], want) || !strings.Contains(lines[2], `"Path":"probing"`) || !strings.Contains(lines[2], `"Lookups":9`) {
		t.Errorf("diff event line = %s", lines[2])
	}
	var ev struct {
		Kind string          `json:"event"`
		Data json.RawMessage `json:"data"`
	}
	for i, kind := range kinds {
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != kind {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, kind)
		}
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
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
	m.Collect(FixpointStats{Semantics: "minimal"})
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
