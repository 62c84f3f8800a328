package value

// SetBuilder accumulates elements and canonicalizes once at Set time, instead
// of paying Insert's binary-search-and-shift per element. It is the right
// tool wherever a set is grown element-by-element from an unsorted stream:
// the grounder collecting derived facts, randgen drawing random elements.
//
// The zero SetBuilder is ready to use. A builder must not be reused after
// Set is called.
type SetBuilder struct {
	elems []Value
	done  bool
}

// NewSetBuilder returns a builder with capacity for n elements.
func NewSetBuilder(n int) *SetBuilder {
	return &SetBuilder{elems: make([]Value, 0, n)}
}

// Add appends v to the pending elements. Duplicates are fine; they are
// removed when Set canonicalizes.
func (b *SetBuilder) Add(v Value) {
	if b.done {
		panic("value: SetBuilder used after Set")
	}
	b.elems = append(b.elems, v)
}

// Len returns the number of pending elements, duplicates included.
func (b *SetBuilder) Len() int { return len(b.elems) }

// Set sorts and deduplicates the accumulated elements in place and returns
// the resulting set. The builder takes ownership of its buffer, so this
// performs no copy beyond the canonicalization itself.
func (b *SetBuilder) Set() Set {
	b.done = true
	if len(b.elems) == 0 {
		return Set{}
	}
	out := canonical(b.elems)
	b.elems = nil
	return setFromSorted(out)
}

// SetFromSorted returns the set of elems, which the caller has already sorted
// by Compare and freed of duplicates, taking ownership of the slice: nothing
// is sorted or copied.
func SetFromSorted(elems []Value) Set {
	if len(elems) == 0 {
		return Set{}
	}
	return setFromSorted(elems)
}

// TupleSlab allocates many tuples from two backing arrays — one for their
// elements, one for their cache cells — instead of two heap objects per
// tuple: the tool for building a large result set at once.
type TupleSlab struct {
	elems []Value
	cells []vcache
}

// NewTupleSlab returns a slab with room for the given numbers of tuples and
// of elements over all of them.
func NewTupleSlab(tuples, elems int) *TupleSlab {
	return &TupleSlab{elems: make([]Value, 0, elems), cells: make([]vcache, 0, tuples)}
}

// Tuple returns the tuple of the given elements, copied into the slab (onto
// the heap once the slab is full).
func (s *TupleSlab) Tuple(elems ...Value) Tuple {
	at := len(s.elems)
	if at+len(elems) > cap(s.elems) || len(s.cells) == cap(s.cells) {
		return NewTuple(elems...)
	}
	s.elems = append(s.elems, elems...)
	s.cells = s.cells[:len(s.cells)+1]
	return Tuple{elems: s.elems[at:len(s.elems):len(s.elems)], c: &s.cells[len(s.cells)-1]}
}
