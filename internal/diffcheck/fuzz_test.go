package diffcheck

import (
	"testing"

	"algrec/internal/randgen"
)

// fuzzOracle wires one oracle pair as a native fuzz target. The fuzzed
// input is the generator's (seed, size) pair: Go's fuzzer mutates those two
// scalars, and randgen turns them deterministically into well-typed
// instances, so every mutation is a valid instance and the corpus stays
// two-line files. On divergence the witness is shrunk before reporting, so
// the failure message itself is the repro.
//
// The committed corpus under testdata/fuzz/<target> is replayed by plain
// `go test` (no -fuzz flag needed), which makes every corpus entry a pinned
// regression test; `go test -fuzz <target>` explores beyond it.
func fuzzOracle(f *testing.F, name string) {
	o, ok := ByName(name)
	if !ok {
		f.Fatalf("unknown oracle %q", name)
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, byte(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size byte) {
		g := randgen.New(seed, randgen.Config{Size: 1 + int(size)%4})
		in := Generate(o, g)
		err := in.Check()
		if err == nil {
			return
		}
		small := in.Shrink()
		t.Fatalf("%v\nshrunk witness (size %d):\n%s\noriginal instance:\n%s",
			err, small.Size(), small.Render(), in.Render())
	})
}

func FuzzExprStream(f *testing.F)       { fuzzOracle(f, "expr-stream") }
func FuzzExprSemiNaive(f *testing.F)    { fuzzOracle(f, "expr-seminaive") }
func FuzzExprIFPElim(f *testing.F)      { fuzzOracle(f, "expr-ifp-elim") }
func FuzzCoreValid(f *testing.F)        { fuzzOracle(f, "core-valid") }
func FuzzCoreInflationary(f *testing.F) { fuzzOracle(f, "core-inflationary") }
func FuzzCoreWellFounded(f *testing.F)  { fuzzOracle(f, "core-wellfounded") }
func FuzzDlogTheorem62(f *testing.F)    { fuzzOracle(f, "dlog-theorem62") }
func FuzzDlogTheorem43(f *testing.F)    { fuzzOracle(f, "dlog-theorem43") }
func FuzzDlogMinimal(f *testing.F)      { fuzzOracle(f, "dlog-minimal") }
func FuzzDlogStratified(f *testing.F)   { fuzzOracle(f, "dlog-stratified") }
func FuzzDlogStable(f *testing.F)       { fuzzOracle(f, "dlog-stable") }
func FuzzDlogStream(f *testing.F)       { fuzzOracle(f, "dlog-stream") }
func FuzzDlogIVM(f *testing.F)          { fuzzOracle(f, "dlog-ivm") }
func FuzzDlogStorage(f *testing.F)      { fuzzOracle(f, "dlog-storage") }
func FuzzDlogRelational(f *testing.F)   { fuzzOracle(f, "dlog-relational") }
func FuzzDlogRelationalFree(f *testing.F) {
	fuzzOracle(f, "dlog-relational-free")
}
