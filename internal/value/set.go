package value

import (
	"slices"
	"sort"
	"strings"
)

// Set is a finite set of values in canonical form: the elements are sorted by
// the total order on values and contain no duplicates. The zero Set is the
// empty set (the algebra's EMPTY constant).
type Set struct {
	elems []Value   // sorted, deduplicated; never mutated after construction; nil when held in runs
	c     *setCache // shared by copies; nil for the zero Set
}

// setCache is a set's cache cell. A set that Update built from a large one
// is held in runs instead of one array: then runs is set and elems is nil.
type setCache struct {
	vcache
	runs *runs
}

// runs holds a set's elements as sorted, non-empty runs that concatenate, in
// order, to the set; versions of a relation share every run a batch leaves
// alone. Every run but the first holds at least runLen/4 elements, and a run
// an update edits holds at most 2·runLen, so the spine stays O(n/runLen).
type runs struct {
	parts [][]Value
	ends  []int // ends[k] = len(parts[0]) + … + len(parts[k])
}

// runLen is the length of the runs a flat set is cut into, and
// 4·runLen the size from which Update holds its result in runs.
const runLen = 128

// chunked returns s's runs, nil for a flat set.
func (s Set) chunked() *runs {
	if s.elems == nil && s.c != nil {
		return s.c.runs
	}
	return nil
}

// findRun returns the first run from k on whose last element is ≥ v, or
// len(parts) when v is past every run.
func findRun(parts [][]Value, k int, v Value) int {
	return k + sort.Search(len(parts)-k, func(i int) bool {
		p := parts[k+i]
		return p[len(p)-1].Compare(v) >= 0
	})
}

// flat returns s's elements as one slice: s's own array, or a copy of its
// runs in order.
func (s Set) flat() []Value {
	if r := s.chunked(); r != nil {
		return slices.Concat(r.parts...)
	}
	return s.elems
}

// EmptySet is the empty set.
var EmptySet = Set{}

// Kind implements Value.
func (Set) Kind() Kind { return KindSet }

// NewSet returns the set of the given elements, canonicalizing order and
// duplicates (so INS is idempotent and commutative by construction, the two
// SET(nat) equations of the paper's Section 2.1). Elements already strictly
// increasing are wrapped as given, without sorting.
func NewSet(elems ...Value) Set { return SetOf(slices.Clone(elems)) }

// SetOf is NewSet taking ownership of elems: they are sorted and freed of
// duplicates in place, without a copy. Callers must not retain the slice.
func SetOf(elems []Value) Set {
	if len(elems) == 0 {
		return Set{}
	}
	return setFromSorted(canonical(elems))
}

// setFromSorted wraps an already-sorted, already-deduplicated slice without
// copying. Callers must not retain the slice.
func setFromSorted(elems []Value) Set { return Set{elems: elems, c: &setCache{}} }

// Len returns the number of elements.
func (s Set) Len() int {
	if r := s.chunked(); r != nil {
		return r.ends[len(r.ends)-1]
	}
	return len(s.elems)
}

// At returns the i-th element in sorted order, 0-based, without copying the
// element slice. It panics if i is out of range.
func (s Set) At(i int) Value {
	if i < len(s.elems) {
		return s.elems[i]
	}
	return s.runAt(i)
}

// runAt is At past the flat array: in a set held in runs, the run whose end
// is the first past i, found by interpolation (runs are mostly runLen long,
// so the guess is off by a run or two) and a walk from there. An index out
// of range panics.
func (s Set) runAt(i int) Value {
	r := s.chunked()
	if r == nil {
		return s.elems[i]
	}
	k := r.run(i)
	p := r.parts[k]
	return p[i-r.ends[k]+len(p)]
}

// run returns the index of the run holding element i.
func (r *runs) run(i int) int {
	k := i * len(r.ends) / r.ends[len(r.ends)-1]
	for r.ends[k] <= i {
		k++
	}
	for k > 0 && r.ends[k-1] > i {
		k--
	}
	return k
}

// Scan calls yield on every element in sorted order, stopping early if yield
// returns false. It walks the flat array, or the runs one after the other:
// a loop over every element of a set held in runs, which At would find one
// run at a time, costs what it costs on a flat set.
func (s Set) Scan(yield func(Value) bool) {
	parts := [][]Value{s.elems}
	if r := s.chunked(); r != nil {
		parts = r.parts
	}
	for _, p := range parts {
		for _, v := range p {
			if !yield(v) {
				return
			}
		}
	}
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return s.Len() == 0 }

// Elems returns a copy of the elements in sorted order.
func (s Set) Elems() []Value {
	if s.chunked() != nil {
		return s.flat()
	}
	return append(make([]Value, 0, len(s.elems)), s.elems...)
}

// Has reports whether v is a member of s (the paper's MEM, on finite sets).
func (s Set) Has(v Value) bool {
	elems := s.elems
	if r := s.chunked(); r != nil {
		elems = r.parts[min(findRun(r.parts, 0, v), len(r.parts)-1)]
	}
	lo, hi := 0, len(elems)
	for lo < hi {
		mid := (lo + hi) / 2
		c := elems[mid].Compare(v)
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
// prefix the run is every tuple of s. In a set held in runs, a range inside
// one run is a window onto it, and a longer one a copy.
func (s Set) PrefixRange(prefix ...Value) Set {
	n := s.Len()
	lo := sort.Search(n, func(i int) bool { return comparePrefix(s.At(i), prefix) >= 0 })
	// Double w until s.At(lo+w-1) is past the run (or past the set): the
	// run ends between lo+w/2, the last index seen inside plus one, and there.
	w := 1
	for lo+w <= n && comparePrefix(s.At(lo+w-1), prefix) == 0 {
		w *= 2
	}
	from, to := lo+w/2, min(lo+w-1, n)
	hi := from + sort.Search(to-from, func(i int) bool { return comparePrefix(s.At(from+i), prefix) > 0 })
	r := s.chunked()
	switch {
	case lo == hi:
		return Set{}
	case lo == 0 && hi == n:
		return s
	case r == nil:
		return setFromSorted(s.elems[lo:hi:hi])
	}
	k := r.run(lo)
	if start := r.ends[k] - len(r.parts[k]); hi <= r.ends[k] {
		return setFromSorted(r.parts[k][lo-start : hi-start : hi-start])
	}
	out := make([]Value, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, s.At(i))
	}
	return setFromSorted(out)
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
	elems := s.flat()
	at := sort.Search(len(elems), func(i int) bool { return elems[i].Compare(v) >= 0 })
	if at < len(elems) && elems[at].Compare(v) == 0 {
		return s
	}
	out := make([]Value, len(elems)+1)
	copy(out, elems[:at])
	out[at] = v
	copy(out[at+1:], elems[at:])
	return setFromSorted(out)
}

// gallopFactor is the size ratio beyond which the lopsided set operations
// switch from the element-wise merge (one Compare per element of the larger
// set) to a galloping update: binary-search the larger set once per element
// of the smaller, and copy only what the smaller changes. Two shapes make
// this hot: the semi-naive delta engine unions a small per-round delta into
// a large accumulator every round (a flat merge, slabs copied once), and a
// fact batch deletes and inserts a few facts of a large stored relation
// (Update, which copies only the runs the batch touches).
const gallopFactor = 8

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	if s.Len() >= gallopFactor*t.Len() {
		return s.update(nil, t.flat(), false)
	}
	if t.Len() >= gallopFactor*s.Len() {
		return t.update(nil, s.flat(), false)
	}
	se, te := s.flat(), t.flat()
	out := make([]Value, 0, len(se)+len(te))
	i, j := 0, 0
	for i < len(se) && j < len(te) {
		c := se[i].Compare(te[j])
		switch {
		case c < 0:
			out = append(out, se[i])
			i++
		case c > 0:
			out = append(out, te[j])
			j++
		default:
			out = append(out, se[i])
			i++
			j++
		}
	}
	out = append(out, se[i:]...)
	out = append(out, te[j:]...)
	return setFromSorted(out)
}

// Update returns (s − del) ∪ ins, deletes first, so a value in both del and
// ins stays: a fact batch's next version of a stored relation. When s is at
// least gallopFactor times the batch, it is one galloping walk of the batch
// that finds each element in s by binary search, and a batch that changes
// nothing hands back s itself, allocating nothing. From 4·runLen elements
// the result is held in runs: only the runs the batch changes and the spine
// are copied, and every other run is shared with s (a flat s is cut into
// runs that are windows onto its array). Otherwise it is Diff then Union.
func (s Set) Update(del, ins Set) Set {
	if s.Len() < gallopFactor*(del.Len()+ins.Len()) {
		return s.Diff(del).Union(ins)
	}
	return s.update(del.flat(), ins.flat(), s.Len() >= 4*runLen)
}

// walk calls f on the elements of del and ins in merged order; a value in
// both comes once, as an insert.
func walk(del, ins []Value, f func(v Value, insert bool)) {
	for i, j := 0, 0; i < len(del) || j < len(ins); {
		c := -1 // which comes next: the delete (c < 0), the insert, or both (0)
		if i == len(del) {
			c = 1
		} else if j < len(ins) {
			c = del[i].Compare(ins[j])
		}
		if c < 0 {
			f(del[i], false)
			i++
			continue
		}
		f(ins[j], true)
		if j++; c == 0 {
			i++
		}
	}
}

// update is the galloping (s − del) ∪ ins: into runs when s already is or
// inRuns asks for them, else one flat merge that copies the slabs between
// the elements the batch changes once into one array.
func (s Set) update(del, ins []Value, inRuns bool) Set {
	if inRuns || s.chunked() != nil {
		return s.updateRuns(del, ins)
	}
	var out []Value // nil until the batch changes something
	lo, at := 0, 0  // s[:lo] is in out; s[:at] sorts before the walked element
	walk(del, ins, func(v Value, insert bool) {
		at += sort.Search(len(s.elems)-at, func(k int) bool { return s.elems[at+k].Compare(v) >= 0 })
		if found := at < len(s.elems) && s.elems[at].Compare(v) == 0; found == insert {
			return // inserting a member or deleting a non-member
		}
		if out == nil {
			out = make([]Value, 0, len(s.elems)+len(ins))
		}
		out = append(out, s.elems[lo:at]...)
		if insert {
			out = append(out, v)
		} else {
			at++
		}
		lo = at
	})
	if out == nil {
		return s
	}
	return setFromSorted(append(out, s.elems[lo:]...))
}

// updateRuns is update into runs. Each element the batch changes goes to
// the run whose last element is the first at or past it (the last run, past
// them all); that run is copied once and edited, and the spine is rebuilt
// from the untouched runs and the edited ones. An edited run over 2·runLen
// splits into runs of runLen, and one under runLen/4 merges into the run
// before it.
func (s Set) updateRuns(del, ins []Value) Set {
	var src, out [][]Value // s's runs and the new spine, nil until the batch changes something
	k := 0                 // src[:k] is in out; cur, when not nil, is src[k] edited
	var cur []Value
	emit := func() {
		p := cur
		switch {
		case p == nil:
			out = append(out, src[k])
			return
		case len(p) > 0 && len(p) < runLen/4 && len(out) > 0:
			p = slices.Concat(out[len(out)-1], p)
			out = out[:len(out)-1]
		}
		for len(p) > 2*runLen {
			out, p = append(out, p[:runLen:runLen]), p[runLen:]
		}
		if len(p) > 0 {
			out = append(out, p)
		}
		cur = nil
	}
	walk(del, ins, func(v Value, insert bool) {
		if s.Has(v) == insert {
			return
		}
		if out == nil {
			if r := s.chunked(); r != nil {
				src = r.parts
			} else {
				rest := s.elems
				for len(rest) >= 2*runLen {
					src, rest = append(src, rest[:runLen:runLen]), rest[runLen:]
				}
				src = append(src, rest)
			}
			out = make([][]Value, 0, len(src)+len(ins)/runLen+1)
		}
		for j := min(findRun(src, k, v), len(src)-1); k < j; k++ {
			emit()
		}
		if cur == nil {
			cur = append(make([]Value, 0, len(src[k])+4), src[k]...)
		}
		at, _ := slices.BinarySearchFunc(cur, v, Value.Compare)
		if insert {
			cur = slices.Insert(cur, at, v)
		} else {
			cur = slices.Delete(cur, at, at+1)
		}
	})
	if out == nil {
		return s
	}
	for ; k < len(src); k++ {
		emit()
	}
	if len(out) == 0 {
		return Set{}
	}
	r := &runs{parts: out, ends: make([]int, len(out))}
	n := 0
	for i, p := range out {
		n += len(p)
		r.ends[i] = n
	}
	return Set{c: &setCache{runs: r}}
}

// Diff returns s − t (the algebra's subtraction).
func (s Set) Diff(t Set) Set {
	if s.IsEmpty() || t.IsEmpty() {
		return s
	}
	if t.Len() >= gallopFactor*s.Len() {
		// Small minus large: membership-test each element of s instead of
		// scanning t (the semi-naive delta engine's Δ − accumulator shape).
		out := make([]Value, 0, s.Len())
		for _, e := range s.flat() {
			if !t.Has(e) {
				out = append(out, e)
			}
		}
		return setFromSorted(out)
	}
	if s.Len() >= gallopFactor*t.Len() {
		return s.update(t.flat(), nil, false)
	}
	se, te := s.flat(), t.flat()
	out := make([]Value, 0, len(se))
	i, j := 0, 0
	for i < len(se) {
		if j >= len(te) {
			out = append(out, se[i:]...)
			break
		}
		c := se[i].Compare(te[j])
		switch {
		case c < 0:
			out = append(out, se[i])
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

// Intersect returns s ∩ t. Intersection is not a primitive of the algebra;
// the paper defines it by the algebra= equation x ∩ y = x − (x − y)
// (Example 3), and a test checks this implementation against that equation.
func (s Set) Intersect(t Set) Set {
	se, te := s.flat(), t.flat()
	out := make([]Value, 0)
	i, j := 0, 0
	for i < len(se) && j < len(te) {
		c := se[i].Compare(te[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, se[i])
			i++
			j++
		}
	}
	return setFromSorted(out)
}

// Product returns the cartesian product s × t: the set of pairs (a, b) with
// a ∈ s and b ∈ t.
func (s Set) Product(t Set) Set {
	se, te := s.flat(), t.flat()
	out := make([]Value, 0, len(se)*len(te))
	for _, a := range se {
		for _, b := range te {
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
	se, te := s.flat(), t.flat()
	out := make([]Value, 0, len(se)*len(te))
	for _, a := range se {
		for _, b := range te {
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
	if s.Len() > t.Len() {
		return false
	}
	se, te := s.flat(), t.flat()
	i, j := 0, 0
	for i < len(se) && j < len(te) {
		c := se[i].Compare(te[j])
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
	return i == len(se)
}

// Compare implements Value.
func (s Set) Compare(other Value) int {
	o, same := other.(Set)
	if !same {
		return compareKinds(KindSet, other.Kind())
	}
	if s.c != nil && o.c != nil && cachedEqual(&s.c.vcache, &o.c.vcache) {
		return 0
	}
	return compareSlices(s.flat(), o.flat())
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
	sb.Grow(2 + 16*s.Len())
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
	out := make([]Value, 0, s.Len())
	for _, e := range s.flat() {
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
	out := make([]Value, 0, s.Len())
	for _, e := range s.flat() {
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
