// Benchmarks: one testing.B target per experiment in DESIGN.md's
// per-experiment index (E1–E11), plus micro-benchmarks of the
// individual engines. The experiment functions themselves verify agreement
// (they are also run as tests in internal/expt); here they are measured.
package algrec_test

import (
	"testing"

	"algrec"
	"algrec/internal/algebra"
	"algrec/internal/core"
	"algrec/internal/datalog/ground"
	"algrec/internal/expt"
	"algrec/internal/obsv"
	"algrec/internal/rewrite"
	"algrec/internal/semantics"
	"algrec/internal/spec"
	"algrec/internal/spec/validspec"
	"algrec/internal/term"
	"algrec/internal/translate"
)

func runSuite(b *testing.B, run func() (*expt.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !tbl.OK {
			b.Fatalf("experiment failed:\n%s", tbl)
		}
	}
}

func BenchmarkE1SetSpec(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE1([]int{8, 16}) })
}

func BenchmarkE2EvenSet(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE2([]int64{256, 1024}) })
}

func BenchmarkE3SpecDecide(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE3([]int{5, 7}) })
}

func BenchmarkE4IFPWellDefined(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE4([]int{16, 32}) })
}

func BenchmarkE5MonotoneFixpoint(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE5([]int{16, 32}) })
}

func BenchmarkE6Stratified(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE6([]int{16, 64}) })
}

func BenchmarkE7IFPToDatalog(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE7([]int{8, 16}) })
}

func BenchmarkE8StepIndex(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE8([]int{4, 8}) })
}

func BenchmarkE9DeductionAlgebra(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE9([]int{8, 16}) })
}

func BenchmarkE10Semantics(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE10([]int{6, 8}) })
}

func BenchmarkE11IFPElimination(b *testing.B) {
	runSuite(b, func() (*expt.Table, error) { return expt.RunE11([]int{3, 5}) })
}

// Micro-benchmarks of the individual engines.

func BenchmarkGroundTC(b *testing.B) {
	p := expt.TCProgram(expt.ChainEdges("e", 128))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(p, ground.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimalSemiNaive(b *testing.B) {
	g, err := ground.Ground(expt.TCProgram(expt.ChainEdges("e", 128)), ground.Budget{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semantics.NewEngine(g).Minimal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWellFoundedWinCycle(b *testing.B) {
	g, err := ground.Ground(expt.WinProgram(expt.CycleEdges("move", 64)), ground.Budget{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semantics.NewEngine(g).WellFounded()
	}
}

func BenchmarkValidWinCycle(b *testing.B) {
	g, err := ground.Ground(expt.WinProgram(expt.CycleEdges("move", 64)), ground.Budget{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semantics.NewEngine(g).Valid()
	}
}

func BenchmarkAlgebraTCIFP(b *testing.B) {
	db := expt.FactsDB("e", expt.ChainEdges("e", 48))
	e := expt.TCIFPExpr("e")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.Eval(e, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreWinDirect(b *testing.B) {
	db := expt.FactsDB("move", expt.CycleEdges("move", 48))
	p := expt.WinCoreProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvalValid(p, db, algebra.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateDatalogToCore(b *testing.B) {
	p := expt.WinProgram(expt.CycleEdges("move", 48))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := translate.DatalogToCore(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStableTwoCycles(b *testing.B) {
	g, err := ground.Ground(expt.WinProgram(expt.CycleEdges("move", 8)), ground.Budget{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semantics.NewEngine(g).StableModels(20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRewriteSetNormalize(b *testing.B) {
	sp, err := spec.SetSpec(spec.NatSpec(), "nat", "EQ")
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]term.Term, 12)
	for i := range elems {
		elems[i] = spec.NatTerm((i * 7) % 13)
	}
	t := spec.SetTerm(elems...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.New(sp, 0).Normalize(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecInitialValidModel(b *testing.B) {
	cs := &validspec.ConstSpec{
		Consts: []string{"a", "b", "c", "d", "e", "f"},
		Clauses: []validspec.Clause{
			{Conds: []validspec.Lit{{A: "a", B: "b", Negated: true}}, A: "a", B: "c"},
			{Conds: []validspec.Lit{{A: "c", B: "d"}}, A: "e", B: "f"},
			{A: "c", B: "d"},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := cs.InitialValidModel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseScript(b *testing.B) {
	src := `
rel move = {(a, b), (b, c), (b, d)};
def win = map(diff(move, product(map(move, \x -> x.1), win)), \x -> x.1);
query win;
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := algrec.ParseScript(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernelWorkloads builds two fixpoint-kernel workloads — the
// semi-naive minimal model of a transitive-closure chain and the
// alternating-fixpoint well-founded model of a win chain — warmed so the
// engines' scratch buffers are allocated, and runs them under b.Run
// sub-benchmarks. It is
// shared by the collector-overhead benchmarks: the disabled-collector run
// must stay within noise of the bare kernel (the observability layer's
// zero-overhead contract), which the enabled-collector run quantifies
// against.
func benchKernelWorkloads(b *testing.B, prep func(e *semantics.Engine)) {
	b.Helper()
	budget := ground.Budget{MaxAtoms: 8_000_000, MaxRules: 16_000_000}
	gTC, err := ground.Ground(expt.TCProgram(expt.ChainEdges("e", 1024)), budget)
	if err != nil {
		b.Fatal(err)
	}
	gWin, err := ground.Ground(expt.WinProgram(expt.ChainEdges("move", 1024)), budget)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tcChainMinimal", func(b *testing.B) {
		e := semantics.NewEngine(gTC)
		if prep != nil {
			prep(e)
		}
		if _, err := e.Minimal(); err != nil { // warm scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Minimal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("winChainWFS", func(b *testing.B) {
		e := semantics.NewEngine(gWin)
		if prep != nil {
			prep(e)
		}
		e.WellFounded() // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.WellFounded()
		}
	})
}

// BenchmarkCollectorOff is the kernel workload with the observability layer
// disabled (no collector attached) — the default state every other
// benchmark and production path runs in. Its numbers must match the
// pre-instrumentation kernel within noise (~2%).
func BenchmarkCollectorOff(b *testing.B) {
	benchKernelWorkloads(b, nil)
}

// BenchmarkCollectorOn is the same workload with a counter-folding Stats
// collector attached, quantifying the cost of enabled observability: one
// event build and map fold per fixpoint call, nothing per pass or per atom.
func BenchmarkCollectorOn(b *testing.B) {
	benchKernelWorkloads(b, func(e *semantics.Engine) {
		e.SetCollector(obsv.NewStats())
	})
}
