package intern

import (
	"fmt"
	"testing"

	"algrec/internal/value"
)

func TestInternScalars(t *testing.T) {
	in := New()
	cases := []value.Value{
		value.True, value.False,
		value.Int(0), value.Int(7), value.Int(-3), value.Int(1 << 40),
		value.String(""), value.String("a"), value.String("Quoted Sym"),
	}
	ids := make([]ID, len(cases))
	for i, v := range cases {
		ids[i] = in.Intern(v)
		if ids[i] == 0 {
			t.Fatalf("Intern(%v) = 0", v)
		}
		if got := in.Lookup(ids[i]); !value.Equal(got, v) {
			t.Fatalf("Lookup(Intern(%v)) = %v", v, got)
		}
	}
	for i, v := range cases {
		if again := in.Intern(v); again != ids[i] {
			t.Errorf("re-Intern(%v) = %d, first time %d", v, again, ids[i])
		}
		for j := range cases {
			if i != j && ids[i] == ids[j] {
				t.Errorf("Intern(%v) == Intern(%v) = %d", v, cases[j], ids[i])
			}
		}
	}
}

func TestInternIntSmallAndLarge(t *testing.T) {
	in := New()
	if a, b := in.InternInt(5), in.Intern(value.Int(5)); a != b {
		t.Errorf("InternInt(5) = %d but Intern(Int(5)) = %d", a, b)
	}
	big := int64(smallIntRange) + 17
	if a, b := in.InternInt(big), in.Intern(value.Int(big)); a != b {
		t.Errorf("InternInt(%d) = %d but Intern = %d", big, a, b)
	}
	if a, b := in.InternInt(-1), in.InternInt(1); a == b {
		t.Errorf("InternInt(-1) == InternInt(1) = %d", a)
	}
}

func TestInternStructuralConstructorsAgreeWithIntern(t *testing.T) {
	in := New()
	a, b := in.InternInt(1), in.InternInt(2)

	tup := in.InternTuple(a, b)
	if got := in.Intern(value.NewTuple(value.Int(1), value.Int(2))); got != tup {
		t.Errorf("InternTuple = %d, Intern(equivalent tuple) = %d", tup, got)
	}
	if got := in.Lookup(tup).String(); got != "(1, 2)" {
		t.Errorf("Lookup(tuple).String() = %q", got)
	}
	if in.InternTuple(b, a) == tup {
		t.Error("InternTuple is order-insensitive; tuples must not be")
	}

	// InternSet canonicalizes: order and duplicates of the input are ignored.
	s1 := in.InternSet(b, a, a)
	s2 := in.InternSet(a, b)
	if s1 != s2 {
		t.Errorf("InternSet(b,a,a) = %d != InternSet(a,b) = %d", s1, s2)
	}
	if got := in.Intern(value.NewSet(value.Int(2), value.Int(1))); got != s1 {
		t.Errorf("Intern(equivalent set) = %d, InternSet = %d", got, s1)
	}
	if got := in.InternSet(); got != in.Intern(value.EmptySet) {
		t.Errorf("InternSet() = %d, Intern(EmptySet) = %d", got, in.Intern(value.EmptySet))
	}

	if got := in.Elems(tup); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Elems(tuple) = %v, want [%d %d]", got, a, b)
	}
	if got := in.Elems(a); got != nil {
		t.Errorf("Elems(scalar) = %v, want nil", got)
	}
}

// TestGlobalCachesIDs checks the global interner's O(1) re-intern path: the
// ID lands in the value's cache cell, shared by copies, and the cached-ID
// Compare fast path then certifies equality.
func TestGlobalCachesIDs(t *testing.T) {
	v := value.NewTuple(value.Int(100001), value.String("zz"))
	if value.InternID(v) != 0 {
		t.Fatal("fresh tuple already has an intern ID")
	}
	id := Global().Intern(v)
	if got := value.InternID(v); got != uint32(id) {
		t.Fatalf("cache cell holds %d, Intern returned %d", got, id)
	}
	// A structurally equal but distinct value gets the same ID.
	w := value.NewTuple(value.Int(100001), value.String("zz"))
	if Global().Intern(w) != id {
		t.Error("equal value interned to a different global ID")
	}
	if !value.Equal(v, w) {
		t.Error("values unequal after interning")
	}
}

func TestPrivateInternerDoesNotTouchCache(t *testing.T) {
	in := New()
	v := value.NewTuple(value.Int(424242), value.Int(5))
	in.Intern(v)
	if got := value.InternID(v); got != 0 {
		t.Errorf("private interner wrote ID %d into the value cache", got)
	}
}

func TestArenaGrowth(t *testing.T) {
	in := New()
	n := 3 * chunkSize
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		ids[i] = in.Intern(value.String(fmt.Sprintf("s%d", i)))
	}
	if in.Len() < n {
		t.Fatalf("Len() = %d after %d distinct interns", in.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if got := in.Lookup(ids[i]).(value.String); string(got) != fmt.Sprintf("s%d", i) {
			t.Fatalf("Lookup(%d) = %q", ids[i], got)
		}
	}
}

func TestRelation(t *testing.T) {
	r := NewRelation(2)
	if r.Arity() != 2 || r.Len() != 0 {
		t.Fatalf("fresh relation: arity %d len %d", r.Arity(), r.Len())
	}
	rows := [][]ID{{1, 2}, {2, 3}, {1, 2}, {3, 1}}
	wantIdx := []int{0, 1, 0, 2}
	wantAdd := []bool{true, true, false, true}
	for i, row := range rows {
		idx, added := r.Insert(row)
		if idx != wantIdx[i] || added != wantAdd[i] {
			t.Errorf("Insert(%v) = (%d, %v), want (%d, %v)", row, idx, added, wantIdx[i], wantAdd[i])
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	if got := r.Row(1); got[0] != 2 || got[1] != 3 {
		t.Errorf("Row(1) = %v", got)
	}
	if idx, ok := r.Find([]ID{3, 1}); !ok || idx != 2 {
		t.Errorf("Find({3,1}) = (%d, %v)", idx, ok)
	}
	if has(r, []ID{9, 9}) {
		t.Error("Has reports a row never inserted")
	}
}

func TestRelationArityZero(t *testing.T) {
	r := NewRelation(0)
	if has(r, nil) {
		t.Fatal("empty arity-0 relation has the empty row")
	}
	if idx, added := r.Insert(nil); idx != 0 || !added {
		t.Fatalf("first Insert = (%d, %v)", idx, added)
	}
	if idx, added := r.Insert([]ID{}); idx != 0 || added {
		t.Fatalf("second Insert = (%d, %v)", idx, added)
	}
	if !has(r, nil) || r.Len() != 1 {
		t.Fatalf("after insert: Has %v Len %d", has(r, nil), r.Len())
	}
	if r.Row(0) != nil {
		t.Errorf("Row(0) of arity-0 relation = %v", r.Row(0))
	}
}

func TestRelationArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert with wrong arity did not panic")
		}
	}()
	NewRelation(2).Insert([]ID{1})
}
