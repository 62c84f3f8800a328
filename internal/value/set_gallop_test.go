package value

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
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

// chainElem draws an element of a chained relation: mostly pairs over a
// domain scaled to the relation's size n, beside integer and string scalars,
// which sort before every tuple.
func chainElem(r *rand.Rand, n int) Value {
	switch r.Intn(10) {
	case 0:
		return Int(int64(r.Intn(n)))
	case 1:
		return String(fmt.Sprint("s", r.Intn(n)))
	default:
		return Pair(Int(int64(r.Intn(n/8+1))), Int(int64(r.Intn(4*n))))
	}
}

// checkChained compares got with want through every reader: Len, each At,
// Elems, Compare, String, Has on probes, and PrefixRange on the
// probes' leading components.
func checkChained(t *testing.T, step string, got, want Set, probes []Value) {
	t.Helper()
	if got.Len() != want.Len() || got.IsEmpty() != want.IsEmpty() {
		t.Fatalf("%s: Len %d, want %d", step, got.Len(), want.Len())
	}
	elems := got.Elems()
	for i := 0; i < want.Len(); i++ {
		if !Equal(got.At(i), want.At(i)) || !Equal(elems[i], want.At(i)) {
			t.Fatalf("%s: At(%d) = %v, Elems()[%d] = %v, want %v", step, i, got.At(i), i, elems[i], want.At(i))
		}
	}
	if got.Compare(want) != 0 || got.String() != want.String() {
		t.Fatalf("%s: Compare = %d or String differs", step, got.Compare(want))
	}
	// Scan walks every element in order, and stops where yield says.
	scanned, stop := 0, len(probes)%(want.Len()+1)
	got.Scan(func(v Value) bool {
		if !Equal(v, want.At(scanned)) {
			t.Fatalf("%s: Scan's element %d = %v, want %v", step, scanned, v, want.At(scanned))
		}
		scanned++
		return scanned != stop
	})
	if stop == 0 {
		stop = want.Len()
	}
	if scanned != stop {
		t.Fatalf("%s: Scan yielded %d elements, want %d", step, scanned, stop)
	}
	for _, v := range probes {
		if got.Has(v) != want.Has(v) {
			t.Fatalf("%s: Has(%v) = %v, want %v", step, v, got.Has(v), want.Has(v))
		}
		prefix := []Value{}
		if tup, ok := v.(Tuple); ok {
			prefix = tup.Elems()[:1+len(probes)%2]
		}
		if g, w := got.PrefixRange(prefix...), want.PrefixRange(prefix...); !Equal(g, w) || g.Len() != w.Len() {
			t.Fatalf("%s: PrefixRange(%v) has %d elements, want %d", step, prefix, g.Len(), w.Len())
		}
	}
}

// TestPropertyUpdateChain: chains of Update batches on relations of 600 to
// 20 000 tuples and scalars, each version checked against the reference
// (s − del) ∪ ins through every reader. Batches delete members and
// non-members, insert fresh and existing values, put some values in both
// del and ins, and now and then are large enough to leave the galloping
// path. Every version must stay what it was when later batches build on it,
// a set held in runs keeps at most 4n/runLen + 2 of them, and a batch that
// changes nothing hands back the receiver without allocating.
func TestPropertyUpdateChain(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	type version struct{ got, want Set }
	batches := 0
	for chain := 0; batches < 2000; chain++ {
		n := 600 + int(float64(19_400)*math.Pow(r.Float64(), 5))
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = chainElem(r, n)
		}
		s := NewSet(elems...)
		want, kept := s, []version{{s, s}}
		for step := 0; step < 100; step, batches = step+1, batches+1 {
			size := 1 + r.Intn(8)
			if r.Intn(20) == 0 {
				size = 1 + r.Intn(want.Len()/4+1)
			}
			var del, ins, probes []Value
			for k := 0; k < size; k++ {
				member := want.At(r.Intn(want.Len()))
				fresh := chainElem(r, n)
				switch r.Intn(5) {
				case 0:
					del, ins = append(del, member), append(ins, member)
				case 1:
					del = append(del, fresh)
				case 2:
					ins = append(ins, member)
				case 3:
					del = append(del, member)
				default:
					ins = append(ins, fresh)
				}
				probes = append(probes, member, fresh)
			}
			d, i := NewSet(del...), NewSet(ins...)
			next, ref := s.Update(d, i), referenceUnion(referenceDiff(want, d), i)
			checkChained(t, fmt.Sprintf("chain %d step %d", chain, step), next, ref, probes)
			if r := next.chunked(); r != nil && len(r.parts) > 4*next.Len()/runLen+2 {
				t.Fatalf("chain %d step %d: %d runs for %d elements", chain, step, len(r.parts), next.Len())
			}
			if member, absent := NewSet(next.At(0)), NewSet(Int(-1)); step%25 == 0 {
				if got := next.Update(absent, member); got.c != next.c {
					t.Fatalf("chain %d step %d: a batch that changes nothing built a new set", chain, step)
				}
				if n := testing.AllocsPerRun(5, func() { next.Update(absent, member) }); n != 0 {
					t.Fatalf("chain %d step %d: a batch that changes nothing allocated %v times", chain, step, n)
				}
			}
			s, want = next, ref
			if r.Intn(10) == 0 {
				kept = append(kept, version{s, want})
			}
		}
		for k, v := range kept {
			checkChained(t, fmt.Sprintf("chain %d kept version %d", chain, k), v.got, v.want, nil)
		}
	}
}

// TestUpdateRunsStayBounded: churn that thins every run, deleting seven
// elements of eight in small batches spread over the whole set, and then
// refills it, keeps the spine within 4n/runLen + 2 runs; and a Set, flat or
// in runs, is still 32 bytes.
func TestUpdateRunsStayBounded(t *testing.T) {
	if size := unsafe.Sizeof(Set{}); size != 32 {
		t.Errorf("a Set is %d bytes, want 32", size)
	}
	const n = 8192
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = Int(int64(i))
	}
	s := NewSet(elems...)
	churn := func(insert bool) {
		for residue := 1; residue < 8; residue++ {
			for from := 0; from < n; from += n / 16 {
				var batch []Value
				for i := from + residue; i < from+n/16; i += 8 {
					batch = append(batch, Int(int64(i)))
				}
				if insert {
					s = s.Update(Set{}, NewSet(batch...))
				} else {
					s = s.Update(NewSet(batch...), Set{})
				}
				if r := s.chunked(); r == nil || len(r.parts) > 4*s.Len()/runLen+2 {
					t.Fatalf("residue %d from %d: %d elements, runs %v", residue, from, s.Len(), r)
				}
			}
		}
	}
	churn(false)
	churn(true)
	if !Equal(s, NewSet(elems...)) {
		t.Fatal("refilled set differs from the original")
	}
}
