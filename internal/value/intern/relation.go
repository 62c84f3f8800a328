package intern

import (
	"slices"

	"algrec/internal/value"
)

// Relation is a fixed-arity table of ID rows, the one row table of the tree:
// the storage backends keep a stored relation's resident rows in one, and
// the rule kernel's tables (internal/datalog/rel) embed one. Rows are stored
// back-to-back in one flat []ID, with an open-addressed integer hash over
// whole rows for O(1) membership and insert-if-absent — no per-row
// allocations, so inserting n rows costs O(n) words total. Row indices are
// dense from 0 and stable for the life of a row.
//
// Delete tombstones a row: it unlinks it from the hash and marks its index
// dead, but keeps its storage. What becomes of a dead index is the caller's
// choice. Insert always appends a new index, so a row re-inserted after
// deletion re-enters the insertion-ordered Scan at its latest position — the
// contract the storage backends keep, the on-disk one recovering it from its
// segments. Refill puts a new row into a dead index instead, which is how
// the rule kernel keeps a table's size following its live content. Len
// counts every index ever appended; LiveLen the live ones.
//
// The hash follows the live rows, not the history: at 3/4 load (live rows
// plus the tombstones deletes leave in it) it is rebuilt, and doubled only
// when the live rows fill half of it, so churn at a constant size clears its
// tombstones in place.
//
// A Relation is not safe for concurrent mutation; each grounding or fixpoint
// run owns its relations. (The shared structure — the Interner the IDs come
// from — is what the server's concurrent executions share.)
type Relation struct {
	arity   int
	rows    []ID     // len = Len()*arity; flat row-major storage
	n       int      // appended row count, explicit so arity-0 relations work
	live    int      // rows not tombstoned
	deleted []uint64 // tombstone bitmap over row indices; nil until first Delete
	table   []int32  // open-addressed slots: row index + 1, 0 = empty, -1 = tombstone
	used    uint32   // occupied slots (live entries + slot tombstones)
	mask    uint32   // len(table)-1; table size is a power of two
}

// relationMinTable is the initial open-addressing table size (power of two).
const relationMinTable = 16

// slotTomb marks a table slot whose row was deleted: probes walk past it,
// inserts may reclaim it.
const slotTomb = -1

// NewRelation returns an empty relation of the given arity. Arity 0 models
// propositional predicates: the relation is either empty or holds the single
// empty row, always at index 0.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, table: make([]int32, relationMinTable), mask: relationMinTable - 1}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of rows ever appended. It includes tombstoned
// rows; see LiveLen for the live count.
func (r *Relation) Len() int { return r.n }

// LiveLen returns the number of rows that have not been deleted.
func (r *Relation) LiveLen() int { return r.live }

// Row returns the i-th row as a view into the relation's storage. The slice
// must not be modified and is only valid until the next Insert (growth may
// move the backing array). Deleted rows keep their storage; check Live when
// the relation may have seen deletions.
func (r *Relation) Row(i int32) []ID {
	return r.rows[int(i)*r.arity : int(i+1)*r.arity : int(i+1)*r.arity]
}

// Live reports whether the i-th row has not been deleted.
func (r *Relation) Live(i int32) bool {
	// The bitmap only grows as far as the highest tombstoned index; rows
	// appended after the last Delete lie beyond it and are live.
	if int(i>>6) >= len(r.deleted) {
		return true
	}
	return r.deleted[i>>6]&(1<<(uint(i)&63)) == 0
}

// Scan calls yield for every live row in index order — insertion order
// unless rows were refilled — stopping early if yield returns false. The
// row slice is a view (see Row); arity-0 relations yield one nil row when
// non-empty.
func (r *Relation) Scan(yield func(i int32, row []ID) bool) {
	for i := int32(0); int(i) < r.n; i++ {
		if r.Live(i) && !yield(i, r.Row(i)) {
			return
		}
	}
}

// probe linearly scans the table from row's hash slot; it returns the slot
// holding the row (i >= 0) or the slot an insert should claim (i == -1:
// the first tombstone on the probe path, else the terminating empty slot).
func (r *Relation) probe(row []ID) (slot uint32, i int32) {
	if len(row) != r.arity {
		panic("intern: Relation row arity mismatch")
	}
	slot = uint32(hashRow(row)) & r.mask
	reuse := int64(-1)
	for {
		ri := r.table[slot]
		if ri == 0 {
			if reuse >= 0 {
				slot = uint32(reuse)
			}
			return slot, -1
		}
		if ri == slotTomb {
			if reuse < 0 {
				reuse = int64(slot)
			}
		} else if idsEqual(r.Row(ri-1), row) {
			return slot, ri - 1
		}
		slot = (slot + 1) & r.mask
	}
}

// Find returns the index of row and true if present (and not deleted), or
// -1 and false.
func (r *Relation) Find(row []ID) (int32, bool) {
	_, i := r.probe(row)
	return i, i >= 0
}

// Insert adds row if absent, at a new index. It returns the row's index and
// whether it was newly added. The input slice is copied into the flat
// storage.
func (r *Relation) Insert(row []ID) (int32, bool) {
	if r.arity == 0 && r.n > 0 {
		return r.Refill(0, row) // the one propositional row keeps index 0
	}
	slot, i := r.probe(row)
	if i >= 0 {
		return i, false
	}
	i = int32(r.n)
	r.rows = append(r.rows, row...)
	r.n++
	if r.link(slot, i) {
		r.rehash()
	}
	return i, true
}

// Refill adds row if absent, as Insert does, but into the deleted index i
// rather than a new one. It returns the row's index and whether it was
// newly added; when it was not, i stays deleted.
func (r *Relation) Refill(i int32, row []ID) (int32, bool) {
	slot, j := r.probe(row)
	if j >= 0 {
		return j, false
	}
	if r.Live(i) {
		panic("intern: Refill of a live row")
	}
	copy(r.Row(i), row)
	r.deleted[i>>6] &^= 1 << (uint(i) & 63)
	if r.link(slot, i) {
		r.rehash()
	}
	return i, true
}

// link enters row i, just stored, into the hash at slot, the one its failed
// probe found, and reports whether that took the hash past 3/4 load: then
// the caller rehashes. (The call stays out of link, which the compiler
// inlines into both callers.)
func (r *Relation) link(slot uint32, i int32) (crowded bool) {
	r.live++
	if r.table[slot] == 0 {
		r.used++
	}
	r.table[slot] = i + 1
	return r.used*4 > (r.mask+1)*3
}

// Delete removes row if present, returning its index and whether a row was
// removed. The flat storage keeps the tombstoned row; the index stays dead
// until a Refill.
func (r *Relation) Delete(row []ID) (int32, bool) {
	slot, i := r.probe(row)
	if i < 0 {
		return -1, false
	}
	r.table[slot] = slotTomb
	if r.deleted == nil {
		r.deleted = make([]uint64, (r.n+63)/64)
	}
	for len(r.deleted)*64 <= int(i) {
		r.deleted = append(r.deleted, 0)
	}
	r.deleted[i>>6] |= 1 << (uint(i) & 63)
	r.live--
	return i, true
}

// rehash rebuilds the hash over the live rows, doubling it when they fill
// more than half of it — under churn most of the load is tombstones, and
// rebuilding in place clears them.
func (r *Relation) rehash() {
	size := r.mask + 1
	if uint32(r.live)*2 > size {
		size *= 2
	}
	r.table = make([]int32, size)
	r.mask = size - 1
	r.used = 0
	for i := int32(0); int(i) < r.n; i++ {
		if !r.Live(i) {
			continue
		}
		slot := uint32(hashRow(r.Row(i))) & r.mask
		for r.table[slot] != 0 {
			slot = (slot + 1) & r.mask
		}
		r.table[slot] = i + 1
		r.used++
	}
}

// hashRow hashes an ID row with the same mixer as the interner's node hash
// (no kind seed: rows are not values and live in their own table).
func hashRow(row []ID) uint64 {
	h := uint64(seedNode)
	for _, id := range row {
		h = mix64(h ^ uint64(id))
	}
	return mix64(h ^ uint64(len(row)))
}

// TupleIDs appends the IDs of t's components to buf and returns it: the row
// a relation of t's width stores for t. The tuple itself is never interned
// whole — a fact batch's tuples would otherwise stay in the append-only
// arena long after the facts are deleted — but one the process-global
// interner has already seen gives up its component IDs without a lookup
// per component.
func (in *Interner) TupleIDs(buf []ID, t value.Tuple) []ID {
	if in.global {
		if id := value.InternID(t); id != 0 {
			return append(buf, in.Elems(ID(id))...)
		}
	}
	for i := 0; i < t.Len(); i++ {
		buf = append(buf, in.Intern(t.At(i)))
	}
	return buf
}

// SortRows returns the distinct rows of width IDs that flat holds back to
// back, in the order of the values they stand for: one ID's value at width
// 1, and wider the tuple of the row's values, compared component by
// component. That is the canonical order of the set the rows encode, which
// is how a store lists a relation it was handed whole. Rows of integers
// are ordered by value.RadixOrder, others by comparison.
func (in *Interner) SortRows(flat []ID, width int) []ID {
	row := func(i int32) []ID { return flat[int(i)*width : int(i)*width+width] }
	keys := make([]int64, len(flat))
	for i, id := range flat {
		x, ok := in.IntOf(id)
		if !ok {
			keys = nil
			break
		}
		keys[i] = x
	}
	var order []int32
	if keys != nil {
		order = value.RadixOrder(keys, width)
	} else {
		order = make([]int32, len(flat)/width)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			return slices.CompareFunc(row(a), row(b), func(x, y ID) int { return in.Lookup(x).Compare(in.Lookup(y)) })
		})
	}
	out := make([]ID, 0, len(flat))
	for _, o := range order {
		// One interner gives equal values equal IDs, so a repeat is an equal
		// row, and it follows the row it repeats.
		if r := row(o); len(out) == 0 || !slices.Equal(out[len(out)-width:], r) {
			out = append(out, r...)
		}
	}
	return out
}
