package intern

import (
	"fmt"
	"sync"
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

// TestShardProbe drives one shard's slot array with fabricated hashes: slot
// positions that ignore the shard-select bits, equal hashes whose values
// differ in content or in kind, a probe path that wraps past the array's
// end, and growth through several doublings.
func TestShardProbe(t *testing.T) {
	sh := &shard{slots: make([]slot, minSlots)}
	find := func(h uint64, want ID) ID {
		id, _ := sh.probe(h, value.KindTuple, func(c ID) bool { return c == want })
		return id
	}
	put := func(h uint64, id ID) {
		got, at := sh.probe(h, value.KindTuple, func(c ID) bool { return c == id })
		if got != 0 {
			t.Fatalf("ID %d found before it was inserted", id)
		}
		sh.insert(at, slot{hash: h, id: id, kind: value.KindTuple})
	}
	const sel = 5 // the shard-select bits every hash here shares
	at := func(k uint64) uint64 { return k<<shardBits | sel }

	// Hashes that differ only above the select bits take distinct slots.
	for k := uint64(0); k < 4; k++ {
		put(at(k), ID(k+1))
	}
	for k := 0; k < 4; k++ {
		if got := sh.slots[k].id; got != ID(k+1) {
			t.Errorf("slot %d holds ID %d, want %d", k, got, k+1)
		}
	}
	// Three values with one hash starting in the last slot: the second and
	// third wrap to the front and walk past slots 0-3 to slots 4 and 5.
	last := at(minSlots - 1)
	for id := ID(5); id <= 7; id++ {
		put(last, id)
	}
	for i, want := range map[int]ID{minSlots - 1: 5, 4: 6, 5: 7} {
		if got := sh.slots[i].id; got != want {
			t.Errorf("slot %d holds ID %d, want %d", i, got, want)
		}
	}
	for id := ID(5); id <= 7; id++ {
		if got := find(last, id); got != id {
			t.Errorf("probe for ID %d past equal hashes found %d", id, got)
		}
	}
	if got := find(last, 99); got != 0 {
		t.Errorf("probe for an absent value found %d", got)
	}
	// A nil match takes the first slot of the kind; another kind has none.
	if got, _ := sh.probe(last, value.KindTuple, nil); got != 5 {
		t.Errorf("nil-match probe found %d, want 5", got)
	}
	if got, _ := sh.probe(last, value.KindSet, nil); got != 0 {
		t.Errorf("probe for a set found tuple %d", got)
	}
	// The eighth entry fills half of the 16 slots: the array doubles.
	put(at(100), 8)
	if len(sh.slots) != 2*minSlots {
		t.Fatalf("%d slots after 8 inserts, want %d", len(sh.slots), 2*minSlots)
	}
	// Grow to 1000 entries (2048 slots), then find every one.
	hashes := map[ID]uint64{5: last, 6: last, 7: last, 8: at(100)}
	for k := uint64(0); k < 4; k++ {
		hashes[ID(k+1)] = at(k)
	}
	for id := ID(9); id <= 1000; id++ {
		hashes[id] = mix64(uint64(id))&^shardMask | sel
		put(hashes[id], id)
	}
	if len(sh.slots) != 2048 || sh.used != 1000 {
		t.Fatalf("%d slots, %d used after 1000 inserts; want 2048, 1000", len(sh.slots), sh.used)
	}
	for id, h := range hashes {
		if got := find(h, id); got != id {
			t.Fatalf("after growth, probe for ID %d found %d", id, got)
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

// TestInternConcurrentGrowth interns overlapping ranges of integers above
// smallIntRange, and pairs of them, from eight goroutines at once, so every
// shard's table grows while other goroutines probe it. Every goroutine must
// see the same ID for the same value, and Len must count each value once.
func TestInternConcurrentGrowth(t *testing.T) {
	const workers, span, stride = 8, 20_000, 5_000
	base := int64(smallIntRange) + 1
	in := New()
	ints := make([][]ID, workers)  // ints[w][k-w*stride] = ID of base+k
	pairs := make([][]ID, workers) // pairs[w][k-w*stride] = ID of (base+k, base+k+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := int64(w * stride)
			ints[w], pairs[w] = make([]ID, span), make([]ID, span)
			for k := range ints[w] {
				ints[w][k] = in.InternInt(base + lo + int64(k))
			}
			for k := range pairs[w] {
				a, b := base+lo+int64(k), base+lo+int64(k)+1
				if w%2 == 0 {
					pairs[w][k] = in.InternTuple(in.InternInt(a), in.InternInt(b))
				} else {
					pairs[w][k] = in.Intern(value.NewTuple(value.Int(a), value.Int(b)))
				}
			}
		}(w)
	}
	wg.Wait()
	seenInt, seenPair := map[int64]ID{}, map[int64]ID{}
	for w := 0; w < workers; w++ {
		for k := 0; k < span; k++ {
			key := int64(w*stride + k)
			if id, ok := seenInt[key]; ok && id != ints[w][k] {
				t.Fatalf("worker %d: Int(%d) = %d, another worker got %d", w, base+key, ints[w][k], id)
			}
			if id, ok := seenPair[key]; ok && id != pairs[w][k] {
				t.Fatalf("worker %d: pair at %d = %d, another worker got %d", w, base+key, pairs[w][k], id)
			}
			seenInt[key], seenPair[key] = ints[w][k], pairs[w][k]
		}
	}
	for key, id := range seenPair {
		if got := in.Lookup(id).String(); got != fmt.Sprintf("(%d, %d)", base+key, base+key+1) {
			t.Fatalf("Lookup(%d) = %s", id, got)
		}
	}
	// The bools newInterner conses, the ints (one more than the ranges: the
	// last pair's second element) and the pairs.
	if want := 2 + len(seenInt) + 1 + len(seenPair); in.Len() != want {
		t.Errorf("Len() = %d, want %d distinct values", in.Len(), want)
	}
}
