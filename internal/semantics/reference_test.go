// A second, independent []bool semantics engine, kept verbatim as the test
// oracle: the property tests below check that the engine computes identical
// models on random ground programs, and that the stable-model search
// returns the same ordered list whatever GOMAXPROCS is.
package semantics

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
)

// refEngine is the original []bool implementation: every lfp pass allocates
// its vectors and sameSet compares element-wise.
type refEngine struct {
	g      *ground.Program
	posOcc [][]int
}

func newRefEngine(g *ground.Program) *refEngine {
	e := &refEngine{g: g, posOcc: make([][]int, g.NumAtoms())}
	for ri, r := range g.Rules {
		for _, a := range r.Pos {
			e.posOcc[a] = append(e.posOcc[a], ri)
		}
	}
	return e
}

func (e *refEngine) lfp(enabled func(ruleIdx int) bool, seed []bool) []bool {
	derived := make([]bool, e.g.NumAtoms())
	missing := make([]int, len(e.g.Rules))
	var queue []int
	deriveAtom := func(a int) {
		if derived[a] {
			return
		}
		derived[a] = true
		queue = append(queue, a)
	}
	for ri, r := range e.g.Rules {
		if !enabled(ri) {
			missing[ri] = -1
			continue
		}
		missing[ri] = len(r.Pos)
		if missing[ri] == 0 {
			deriveAtom(r.Head)
		}
	}
	if seed != nil {
		for a, ok := range seed {
			if ok {
				deriveAtom(a)
			}
		}
	}
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range e.posOcc[a] {
			if missing[ri] <= 0 {
				continue
			}
			missing[ri]--
			if missing[ri] == 0 {
				deriveAtom(e.g.Rules[ri].Head)
			}
		}
	}
	return derived
}

func (e *refEngine) gamma(j []bool) []bool {
	return e.lfp(func(ri int) bool {
		for _, a := range e.g.Rules[ri].Neg {
			if j[a] {
				return false
			}
		}
		return true
	}, nil)
}

func refSameSet(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// wellFounded returns (T, U): certainly-true atoms and the upper bound.
func (e *refEngine) wellFounded() (t, u []bool) {
	t = make([]bool, e.g.NumAtoms())
	for {
		u = e.gamma(t)
		t2 := e.gamma(u)
		if refSameSet(t, t2) {
			break
		}
		t = t2
	}
	return t, u
}

// valid returns (T, F): certainly-true and certainly-false atoms of the
// Section 2.2 procedure.
func (e *refEngine) valid() (t, f []bool) {
	n := e.g.NumAtoms()
	t = make([]bool, n)
	f = make([]bool, n)
	for {
		poss := e.gamma(t)
		for a := 0; a < n; a++ {
			if !poss[a] {
				f[a] = true
			}
		}
		t2 := e.lfp(func(ri int) bool {
			for _, a := range e.g.Rules[ri].Neg {
				if !f[a] {
					return false
				}
			}
			return true
		}, t)
		if refSameSet(t, t2) {
			break
		}
		t = t2
	}
	return t, f
}

// stableModels returns the stable models as truth vectors in ascending
// candidate-mask order — the order StableModels must reproduce.
func (e *refEngine) stableModels() [][]bool {
	t, u := e.wellFounded()
	var undef []int
	for a := 0; a < e.g.NumAtoms(); a++ {
		if !t[a] && u[a] {
			undef = append(undef, a)
		}
	}
	var models [][]bool
	for mask := 0; mask < 1<<len(undef); mask++ {
		cand := make([]bool, e.g.NumAtoms())
		copy(cand, t)
		for i, a := range undef {
			if mask&(1<<i) != 0 {
				cand[a] = true
			}
		}
		red := e.lfp(func(ri int) bool {
			for _, a := range e.g.Rules[ri].Neg {
				if cand[a] {
					return false
				}
			}
			return true
		}, nil)
		if refSameSet(red, cand) {
			models = append(models, cand)
		}
	}
	return models
}

func mustGround(t *testing.T, src string) *ground.Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ground.Ground(p, ground.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPropertyBitsetMatchesReference drives random ground programs through
// both implementations: lfp (via Minimal on the positive part), gamma,
// WellFounded, Valid and StableModels must agree bit for bit.
func TestPropertyBitsetMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomGroundProgram(r)
		p, err := datalog.ParseProgram(src)
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		e := NewEngine(g)
		ref := newRefEngine(g)
		n := g.NumAtoms()

		// gamma at a random J.
		jv := make([]bool, n)
		for a := 0; a < n; a++ {
			if r.Intn(3) == 0 {
				jv[a] = true
			}
		}
		out := e.gamma(jv)
		gv := ref.gamma(jv)
		for a := 0; a < n; a++ {
			if out[a] != gv[a] {
				t.Logf("gamma differs at %s on:\n%s", g.Atom(a), src)
				return false
			}
		}

		// WellFounded and Valid three-valued models.
		wf := e.WellFounded()
		rt, ru := ref.wellFounded()
		for a := 0; a < n; a++ {
			want := Undef
			switch {
			case rt[a]:
				want = True
			case !ru[a]:
				want = False
			}
			if wf.Truth(a) != want {
				t.Logf("WellFounded differs at %s on:\n%s", g.Atom(a), src)
				return false
			}
		}
		valid := e.Valid()
		vt, vf := ref.valid()
		for a := 0; a < n; a++ {
			want := Undef
			switch {
			case vt[a]:
				want = True
			case vf[a]:
				want = False
			}
			if valid.Truth(a) != want {
				t.Logf("Valid differs at %s on:\n%s", g.Atom(a), src)
				return false
			}
		}

		// StableModels: same models in the same (mask) order.
		models, err := e.StableModels(20)
		if err != nil {
			return false
		}
		refModels := ref.stableModels()
		if len(models) != len(refModels) {
			t.Logf("stable model count %d != %d on:\n%s", len(models), len(refModels), src)
			return false
		}
		for i, m := range models {
			for a := 0; a < n; a++ {
				want := False
				if refModels[i][a] {
					want = True
				}
				if m.Truth(a) != want {
					t.Logf("stable model %d differs at %s on:\n%s", i, g.Atom(a), src)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMinimalMatchesReference covers the positive-program kernel,
// including the semi-naive lfp seed path via Stratified.
func TestPropertyMinimalMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		atoms := []string{"a0", "a1", "a2", "a3", "a4"}
		var sb []byte
		for i := 0; i < 3+r.Intn(8); i++ {
			sb = append(sb, atoms[r.Intn(len(atoms))]...)
			if k := r.Intn(3); k > 0 {
				sb = append(sb, " :- "...)
				for j := 0; j < k; j++ {
					if j > 0 {
						sb = append(sb, ", "...)
					}
					sb = append(sb, atoms[r.Intn(len(atoms))]...)
				}
			}
			sb = append(sb, ".\n"...)
		}
		p, err := datalog.ParseProgram(string(sb))
		if err != nil {
			return false
		}
		g, err := ground.Ground(p, ground.Budget{})
		if err != nil {
			return false
		}
		e := NewEngine(g)
		min, err := e.Minimal()
		if err != nil {
			return false
		}
		refDerived := newRefEngine(g).lfp(func(int) bool { return true }, nil)
		for a := 0; a < g.NumAtoms(); a++ {
			want := False
			if refDerived[a] {
				want = True
			}
			if min.Truth(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStableModelsDeterministicAcrossGOMAXPROCS: the search returns the same
// ordered model list whatever GOMAXPROCS is, across more than one candidate
// window's worth of models.
func TestStableModelsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// 9 independent 2-cycles: 18 undefined atoms, 2^9 = 512 stable models
	// among 2^18 candidates, 64 windows of them.
	src := ""
	for i := 0; i < 9; i++ {
		src += "p" + string(rune('0'+i)) + " :- not q" + string(rune('0'+i)) + ".\n"
		src += "q" + string(rune('0'+i)) + " :- not p" + string(rune('0'+i)) + ".\n"
	}
	g := mustGround(t, src)

	run := func(procs int) []*Interp {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		models, err := NewEngine(g).StableModels(20)
		if err != nil {
			t.Fatal(err)
		}
		return models
	}
	one, eight := run(1), run(8)
	if len(one) != 512 || len(eight) != 512 {
		t.Fatalf("model counts: %d and %d, want 512", len(one), len(eight))
	}
	for i := range one {
		if !SameTruths(one[i], eight[i]) {
			t.Fatalf("model %d differs between GOMAXPROCS=1 and GOMAXPROCS=8", i)
		}
	}
}

// TestScratchReuseAcrossCalls exercises repeated evaluations on one engine:
// no call may leak state into the next, whatever its semantics.
func TestScratchReuseAcrossCalls(t *testing.T) {
	g := mustGround(t, `
move(a, b). move(b, a).
win(X) :- move(X, Y), not win(Y).
`)
	e := NewEngine(g)
	first := e.WellFounded()
	for i := 0; i < 5; i++ {
		if !SameTruths(e.WellFounded(), first) {
			t.Fatal("WellFounded result changed across repeated calls")
		}
		if !SameTruths(e.Valid(), first) {
			t.Fatal("Valid diverged from WellFounded across repeated calls")
		}
		models, err := e.StableModels(20)
		if err != nil {
			t.Fatal(err)
		}
		if len(models) != 2 {
			t.Fatalf("run %d: %d stable models, want 2", i, len(models))
		}
	}
}
