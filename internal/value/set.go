package value

import (
	"sort"
	"strings"
)

// Set is a finite set of values in canonical form: the elements are sorted by
// the total order on values and contain no duplicates. The zero Set is the
// empty set (the algebra's EMPTY constant).
type Set struct {
	elems []Value // sorted, deduplicated; never mutated after construction
	c     *vcache // shared by copies; nil for the zero Set
}

// EmptySet is the empty set.
var EmptySet = Set{}

// Kind implements Value.
func (Set) Kind() Kind { return KindSet }

// NewSet returns the set of the given elements, canonicalizing order and
// duplicates (so INS is idempotent and commutative by construction, the two
// SET(nat) equations of the paper's Section 2.1). Elements already strictly
// increasing are wrapped as given, without sorting.
func NewSet(elems ...Value) Set {
	if len(elems) == 0 {
		return Set{}
	}
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return setFromSorted(canonical(cp))
}

// setFromSorted wraps an already-sorted, already-deduplicated slice without
// copying. Callers must not retain the slice.
func setFromSorted(elems []Value) Set { return Set{elems: elems, c: &vcache{}} }

// Len returns the number of elements.
func (s Set) Len() int { return len(s.elems) }

// At returns the i-th element in sorted order, 0-based, without copying the
// element slice. It panics if i is out of range.
func (s Set) At(i int) Value { return s.elems[i] }

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return len(s.elems) == 0 }

// Elems returns a copy of the elements in sorted order.
func (s Set) Elems() []Value {
	cp := make([]Value, len(s.elems))
	copy(cp, s.elems)
	return cp
}

// Has reports whether v is a member of s (the paper's MEM, on finite sets).
func (s Set) Has(v Value) bool {
	lo, hi := 0, len(s.elems)
	for lo < hi {
		mid := (lo + hi) / 2
		c := s.elems[mid].Compare(v)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// PrefixRange returns the elements of s that are tuples whose first
// len(prefix) components equal prefix, as a set sharing s's storage: no
// element is copied. Tuples order lexicographically, so those elements are
// one contiguous run of the canonical order — the sorted form is a clustered
// index on the leading components — and a binary search for its start plus
// a galloping search for its end (runs are short next to the set) find it in
// O(len(prefix)·log |s|) comparisons, whatever else s holds: scalars, sets
// and tuples shorter than the prefix simply fall outside the run. With no
// prefix the run is every tuple of s.
func (s Set) PrefixRange(prefix ...Value) Set {
	n := len(s.elems)
	lo := sort.Search(n, func(i int) bool { return comparePrefix(s.elems[i], prefix) >= 0 })
	// Double w until s.elems[lo+w-1] is past the run (or past the set): the
	// run ends between lo+w/2, the last index seen inside plus one, and there.
	w := 1
	for lo+w <= n && comparePrefix(s.elems[lo+w-1], prefix) == 0 {
		w *= 2
	}
	from, to := lo+w/2, min(lo+w-1, n)
	hi := from + sort.Search(to-from, func(i int) bool { return comparePrefix(s.elems[from+i], prefix) > 0 })
	switch {
	case lo == hi:
		return Set{}
	case lo == 0 && hi == len(s.elems):
		return s
	default:
		return setFromSorted(s.elems[lo:hi:hi])
	}
}

// comparePrefix places e relative to the run of tuples starting with prefix:
// −1 when e sorts before the run, 0 inside it, +1 after it.
func comparePrefix(e Value, prefix []Value) int {
	t, ok := e.(Tuple)
	if !ok {
		if e.Kind() < KindTuple {
			return -1
		}
		return 1
	}
	for i, p := range prefix {
		if i == len(t.elems) {
			return -1 // a proper prefix of the prefix sorts before every extension
		}
		if c := t.elems[i].Compare(p); c != 0 {
			return c
		}
	}
	return 0
}

// Insert returns s ∪ {v} (the paper's INS).
func (s Set) Insert(v Value) Set {
	at := sort.Search(len(s.elems), func(i int) bool { return s.elems[i].Compare(v) >= 0 })
	if at < len(s.elems) && s.elems[at].Compare(v) == 0 {
		return s
	}
	out := make([]Value, len(s.elems)+1)
	copy(out, s.elems[:at])
	out[at] = v
	copy(out[at+1:], s.elems[at:])
	return setFromSorted(out)
}

// gallopFactor is the size ratio beyond which the lopsided set operations
// switch from the element-wise merge (one Compare per element of the larger
// set) to binary-searching the larger set and copying it in slabs. Fixpoint
// accumulators make this the hot shape: the semi-naive delta engine unions a
// small per-round delta into a large accumulator every round.
const gallopFactor = 8

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	if len(s.elems) >= gallopFactor*len(t.elems) {
		return unionGallop(s.elems, t.elems)
	}
	if len(t.elems) >= gallopFactor*len(s.elems) {
		return unionGallop(t.elems, s.elems)
	}
	out := make([]Value, 0, len(s.elems)+len(t.elems))
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		c := s.elems[i].Compare(t.elems[j])
		switch {
		case c < 0:
			out = append(out, s.elems[i])
			i++
		case c > 0:
			out = append(out, t.elems[j])
			j++
		default:
			out = append(out, s.elems[i])
			i++
			j++
		}
	}
	out = append(out, s.elems[i:]...)
	out = append(out, t.elems[j:]...)
	return setFromSorted(out)
}

// unionGallop merges the smaller sorted slice into the larger one: for each
// element of small, binary-search its position in the unconsumed tail of big
// and copy the preceding slab wholesale. Cost is |small| searches of
// O(log |big|) Compares plus one pass of copying, instead of a Compare per
// element of big.
func unionGallop(big, small []Value) Set {
	out := make([]Value, 0, len(big)+len(small))
	lo := 0
	for _, v := range small {
		at := lo + sort.Search(len(big)-lo, func(i int) bool { return big[lo+i].Compare(v) >= 0 })
		out = append(out, big[lo:at]...)
		lo = at
		if lo < len(big) && big[lo].Compare(v) == 0 {
			continue // duplicate: big's copy lands with the next slab
		}
		out = append(out, v)
	}
	out = append(out, big[lo:]...)
	return setFromSorted(out)
}

// Diff returns s − t (the algebra's subtraction).
func (s Set) Diff(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return s
	}
	if len(t.elems) >= gallopFactor*len(s.elems) {
		// Small minus large: membership-test each element of s instead of
		// scanning t (the semi-naive delta engine's Δ − accumulator shape).
		out := make([]Value, 0, len(s.elems))
		for _, e := range s.elems {
			if !t.Has(e) {
				out = append(out, e)
			}
		}
		return setFromSorted(out)
	}
	if len(s.elems) >= gallopFactor*len(t.elems) {
		return diffGallop(s, t.elems)
	}
	out := make([]Value, 0, len(s.elems))
	i, j := 0, 0
	for i < len(s.elems) {
		if j >= len(t.elems) {
			out = append(out, s.elems[i:]...)
			break
		}
		c := s.elems[i].Compare(t.elems[j])
		switch {
		case c < 0:
			out = append(out, s.elems[i])
			i++
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return setFromSorted(out)
}

// diffGallop is large minus small, the mirror of unionGallop (a mutation
// batch's deletions leaving a stored relation): binary-search each element of
// small in the unconsumed tail of big, then copy the gaps between the hits
// wholesale. Cost is |small| searches of O(log |big|) Compares plus one pass
// of copying; when nothing is hit, big itself is the answer.
func diffGallop(big Set, small []Value) Set {
	hits := make([]int, 0, len(small))
	lo := 0
	for _, v := range small {
		lo += sort.Search(len(big.elems)-lo, func(i int) bool { return big.elems[lo+i].Compare(v) >= 0 })
		if lo == len(big.elems) {
			break
		}
		if big.elems[lo].Compare(v) == 0 {
			hits = append(hits, lo)
			lo++
		}
	}
	if len(hits) == 0 {
		return big
	}
	out := make([]Value, 0, len(big.elems)-len(hits))
	lo = 0
	for _, at := range hits {
		out = append(out, big.elems[lo:at]...)
		lo = at + 1
	}
	out = append(out, big.elems[lo:]...)
	return setFromSorted(out)
}

// Intersect returns s ∩ t. Intersection is not a primitive of the algebra;
// the paper defines it by the algebra= equation x ∩ y = x − (x − y)
// (Example 3), and a test checks this implementation against that equation.
func (s Set) Intersect(t Set) Set {
	out := make([]Value, 0)
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		c := s.elems[i].Compare(t.elems[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, s.elems[i])
			i++
			j++
		}
	}
	return setFromSorted(out)
}

// Product returns the cartesian product s × t: the set of pairs (a, b) with
// a ∈ s and b ∈ t.
func (s Set) Product(t Set) Set {
	out := make([]Value, 0, len(s.elems)*len(t.elems))
	for _, a := range s.elems {
		for _, b := range t.elems {
			out = append(out, tupleFromOwned([]Value{a, b}))
		}
	}
	// Pairs of sorted factors are produced in sorted order already, but we
	// defensively canonicalize: tuple order is lexicographic, so the nested
	// loop does emit sorted output; NewSet would re-sort needlessly.
	return setFromSorted(out)
}

// ProductPolled is Product for a caller that must stay cancellable: it calls
// poll before the first pair and after every `every` pairs built, and
// abandons the build with poll's error once that is non-nil.
func (s Set) ProductPolled(t Set, every int, poll func() error) (Set, error) {
	out := make([]Value, 0, len(s.elems)*len(t.elems))
	for _, a := range s.elems {
		for _, b := range t.elems {
			if len(out)%every == 0 {
				if err := poll(); err != nil {
					return Set{}, err
				}
			}
			out = append(out, tupleFromOwned([]Value{a, b}))
		}
	}
	return setFromSorted(out), nil
}

// Subset reports whether every element of s is in t.
func (s Set) Subset(t Set) bool {
	if len(s.elems) > len(t.elems) {
		return false
	}
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		c := s.elems[i].Compare(t.elems[j])
		switch {
		case c < 0:
			return false
		case c > 0:
			j++
		default:
			i++
			j++
		}
	}
	return i == len(s.elems)
}

// Compare implements Value.
func (s Set) Compare(other Value) int {
	o, same := other.(Set)
	if !same {
		return compareKinds(KindSet, other.Kind())
	}
	if cachedEqual(s.c, o.c) {
		return 0
	}
	return compareSlices(s.elems, o.elems)
}

// String implements Value. The encoding is computed once per set and cached;
// copies share the cache.
func (s Set) String() string {
	if s.c != nil {
		if cached := s.c.str.Load(); cached != nil {
			return *cached
		}
	}
	var sb strings.Builder
	sb.Grow(2 + 16*len(s.elems))
	writeString(&sb, s)
	out := sb.String()
	if s.c != nil {
		s.c.str.Store(&out)
	}
	return out
}

// Map returns the set {f(x) : x ∈ s}, the semantic core of the algebra's
// MAP_f operator. If f returns an error for any element, Map returns it.
func (s Set) Map(f func(Value) (Value, error)) (Set, error) {
	out := make([]Value, 0, len(s.elems))
	for _, e := range s.elems {
		v, err := f(e)
		if err != nil {
			return Set{}, err
		}
		out = append(out, v)
	}
	return NewSet(out...), nil
}

// Select returns the set {x ∈ s : pred(x)}, the semantic core of the
// algebra's σ operator.
func (s Set) Select(pred func(Value) (bool, error)) (Set, error) {
	out := make([]Value, 0, len(s.elems))
	for _, e := range s.elems {
		ok, err := pred(e)
		if err != nil {
			return Set{}, err
		}
		if ok {
			out = append(out, e)
		}
	}
	return setFromSorted(out), nil
}
