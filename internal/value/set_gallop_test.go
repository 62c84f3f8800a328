package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceUnion and referenceDiff are the obviously-correct specifications
// the galloping fast paths must match element-for-element.
func referenceUnion(s, t Set) Set { return NewSet(append(s.Elems(), t.Elems()...)...) }

func referenceDiff(s, t Set) Set {
	var out []Value
	for _, e := range s.Elems() {
		if !t.Has(e) {
			out = append(out, e)
		}
	}
	return NewSet(out...)
}

// randSizedSet draws n values from a bounded universe, so lopsided size pairs
// exercise the galloping paths with both disjoint and overlapping content.
func randSizedSet(r *rand.Rand, n, bound int) Set {
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = Int(int64(r.Intn(bound)))
	}
	return NewSet(elems...)
}

// TestPropertyUnionDiffGallop: Union, Diff and Update agree with their
// reference implementations on size pairs spanning the merge path, the
// gallop path (ratio >= gallopFactor on either side) and the boundary
// between them. Update's batches delete values s lacks and hold values in
// both del and ins; one that changes nothing, on the gallop path, hands back
// the receiver without allocating.
func TestPropertyUnionDiffGallop(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sizes := []int{0, 1, 2, 3, 7, 8, 9, 50, 200}
		size := func() int { return sizes[r.Intn(len(sizes))] }
		bound := 1 + r.Intn(300)
		s, u := randSizedSet(r, size(), bound), randSizedSet(r, size(), bound)
		del, ins := randSizedSet(r, size(), bound).Insert(Int(int64(bound))), randSizedSet(r, size(), bound)
		if !del.IsEmpty() && r.Intn(2) == 0 {
			ins = ins.Insert(del.At(r.Intn(del.Len())))
		}
		if got, want := s.Update(del, ins), referenceUnion(referenceDiff(s, del), ins); !Equal(got, want) {
			t.Logf("seed %d: (%v − %v) ∪ %v = %v, want %v", seed, s, del, ins, got, want)
			return false
		}
		absent, present := referenceDiff(del, s), s.Intersect(ins)
		if !s.IsEmpty() && s.Len() >= gallopFactor*(absent.Len()+present.Len()) {
			if got := s.Update(absent, present); &got.elems[0] != &s.elems[0] {
				t.Logf("seed %d: a batch that changes nothing copied the set", seed)
				return false
			}
			if n := testing.AllocsPerRun(10, func() { s.Update(absent, present) }); n != 0 {
				t.Logf("seed %d: a batch that changes nothing allocated %v times", seed, n)
				return false
			}
		}
		if got, want := s.Union(u), referenceUnion(s, u); !Equal(got, want) {
			t.Logf("seed %d: %v ∪ %v = %v, want %v", seed, s, u, got, want)
			return false
		}
		if got, want := u.Union(s), referenceUnion(s, u); !Equal(got, want) {
			t.Logf("seed %d: union not commutative: %v", seed, got)
			return false
		}
		if got, want := s.Diff(u), referenceDiff(s, u); !Equal(got, want) {
			t.Logf("seed %d: %v − %v = %v, want %v", seed, s, u, got, want)
			return false
		}
		if got, want := u.Diff(s), referenceDiff(u, s); !Equal(got, want) {
			t.Logf("seed %d: %v − %v = %v, want %v", seed, u, s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestUnionGallopEdgeCases pins the slab-copy boundaries the property test
// may miss: small entirely before, after, interleaved with, and inside big —
// for the union and for the mirrored large-minus-small difference, which
// must hand back big itself when small hits nothing.
func TestUnionGallopEdgeCases(t *testing.T) {
	big := make([]Value, 0, 100)
	for i := 10; i < 110; i++ {
		big = append(big, Int(int64(i)))
	}
	b := NewSet(big...)
	cases := []struct {
		name  string
		small Set
	}{
		{"all below", NewSet(Int(1), Int(2))},
		{"all above", NewSet(Int(200), Int(201))},
		{"duplicates only", NewSet(Int(10), Int(50), Int(109))},
		{"straddling", NewSet(Int(1), Int(55), Int(200))},
		{"adjacent duplicates", NewSet(Int(54), Int(55), Int(56))},
	}
	for _, c := range cases {
		got := b.Union(c.small)
		want := referenceUnion(b, c.small)
		if !Equal(got, want) {
			t.Errorf("%s: big ∪ %v: got %d elems, want %d", c.name, c.small, got.Len(), want.Len())
		}
		if got2 := c.small.Union(b); !Equal(got2, want) {
			t.Errorf("%s flipped: got %d elems, want %d", c.name, got2.Len(), want.Len())
		}
		diff, wantDiff := b.Diff(c.small), referenceDiff(b, c.small)
		if !Equal(diff, wantDiff) {
			t.Errorf("%s: big − %v: got %d elems, want %d", c.name, c.small, diff.Len(), wantDiff.Len())
		}
		if wantDiff.Len() == b.Len() && &diff.elems[0] != &b.elems[0] {
			t.Errorf("%s: a difference that removes nothing copied the set", c.name)
		}
		if !Equal(b, NewSet(big...)) {
			t.Errorf("%s: Diff mutated its receiver", c.name)
		}
	}
}

// TestPropertyInsert: Insert matches NewSet of the extended element slice and
// is a no-op on present elements (returning the receiver unchanged, since
// sets are immutable).
func TestPropertyInsert(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSizedSet(r, r.Intn(40), 60)
		v := Int(int64(r.Intn(60)))
		got := s.Insert(v)
		want := NewSet(append(s.Elems(), Value(v))...)
		if !Equal(got, want) {
			t.Logf("seed %d: %v.Insert(%v) = %v, want %v", seed, s, v, got, want)
			return false
		}
		if s.Has(v) && got.Len() != s.Len() {
			t.Logf("seed %d: inserting a member changed the size", seed)
			return false
		}
		// The original must be untouched (two-slab copy, no aliasing).
		if !Equal(s, NewSet(s.Elems()...)) {
			t.Logf("seed %d: Insert mutated the receiver", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestInsertPositions(t *testing.T) {
	s := NewSet(Int(10), Int(20), Int(30))
	for _, c := range []struct {
		v    Value
		want Set
	}{
		{Int(5), NewSet(Int(5), Int(10), Int(20), Int(30))},
		{Int(15), NewSet(Int(10), Int(15), Int(20), Int(30))},
		{Int(35), NewSet(Int(10), Int(20), Int(30), Int(35))},
		{Int(20), s},
	} {
		if got := s.Insert(c.v); !Equal(got, c.want) {
			t.Errorf("Insert(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := EmptySet.Insert(Int(1)); !Equal(got, NewSet(Int(1))) {
		t.Errorf("EmptySet.Insert = %v", got)
	}
}
