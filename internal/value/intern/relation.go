package intern

// Relation is a compact fixed-arity relation over interned values: rows are
// ID tuples stored back-to-back in one flat []ID, with an open-addressed
// integer hash index for O(1) membership and insert-if-absent — no per-row
// bucket allocations, so inserting n rows costs O(n) words total. Row
// indices are dense from 0 in insertion order.
//
// Deletion (used by the storage layer's in-memory backend) is by tombstone:
// Delete unlinks the row from the index and marks its slot dead, but the
// flat storage is never compacted, so row indices stay dense and stable. Len counts every row ever appended; LiveLen counts
// the surviving ones; Scan enumerates survivors in insertion order. A row
// re-inserted after deletion is appended anew, so it re-enters the scan
// order at its latest insertion position — the same contract the on-disk
// log-structured backend recovers from its segments.
//
// A Relation is not safe for concurrent mutation; each grounding or fixpoint
// run owns its relations. (The shared structure — the Interner the IDs come
// from — is what the server's concurrent executions share.)
type Relation struct {
	arity   int
	rows    []ID     // len = Len()*arity; flat row-major storage
	n       int      // appended row count, explicit so arity-0 relations work
	live    int      // rows not tombstoned (== n until the first Delete)
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
// empty row.
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
func (r *Relation) Row(i int) []ID {
	if r.arity == 0 {
		return nil
	}
	return r.rows[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
}

// Live reports whether the i-th row has not been deleted.
func (r *Relation) Live(i int) bool {
	// The bitmap only grows as far as the highest tombstoned index; rows
	// appended after the last Delete lie beyond it and are live.
	if i>>6 >= len(r.deleted) {
		return true
	}
	return r.deleted[i>>6]&(1<<(uint(i)&63)) == 0
}

// markDeleted sets row i's tombstone bit.
func (r *Relation) markDeleted(i int) {
	if r.deleted == nil {
		r.deleted = make([]uint64, (r.n+63)/64)
	}
	for len(r.deleted)*64 <= i {
		r.deleted = append(r.deleted, 0)
	}
	r.deleted[i>>6] |= 1 << (uint(i) & 63)
}

// Scan calls yield for every live row in insertion order, stopping early if
// yield returns false. The row slice is a view (see Row); arity-0 relations
// yield one nil row when non-empty.
func (r *Relation) Scan(yield func(i int, row []ID) bool) {
	if r.arity == 0 {
		if r.live > 0 {
			yield(0, nil)
		}
		return
	}
	for i := 0; i < r.n; i++ {
		if !r.Live(i) {
			continue
		}
		if !yield(i, r.Row(i)) {
			return
		}
	}
}

// probe linearly scans the table from row's hash slot; it returns the slot
// holding the row (idx >= 0) or the slot an insert should claim (idx == -1:
// the first tombstone on the probe path, else the terminating empty slot).
func (r *Relation) probe(row []ID) (slot uint32, idx int) {
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
		} else if idsEqual(r.Row(int(ri-1)), row) {
			return slot, int(ri - 1)
		}
		slot = (slot + 1) & r.mask
	}
}

// Find returns the index of row and true if present (and not deleted).
func (r *Relation) Find(row []ID) (int, bool) {
	if len(row) != r.arity {
		panic("intern: Relation row arity mismatch")
	}
	if r.arity == 0 {
		if r.live > 0 {
			return 0, true
		}
		return -1, false
	}
	if _, idx := r.probe(row); idx >= 0 {
		return idx, true
	}
	return -1, false
}

// Insert adds row if absent. It returns the row's index and whether it was
// newly added. The input slice is copied into the flat storage.
func (r *Relation) Insert(row []ID) (idx int, added bool) {
	if len(row) != r.arity {
		panic("intern: Relation row arity mismatch")
	}
	if r.arity == 0 {
		if r.live > 0 {
			return 0, false
		}
		r.n, r.live = 1, 1
		if r.deleted != nil {
			r.deleted[0] &^= 1 // revive the single propositional row
		}
		return 0, true
	}
	slot, ri := r.probe(row)
	if ri >= 0 {
		return ri, false
	}
	idx = r.n
	r.rows = append(r.rows, row...)
	r.n++
	r.live++
	if r.table[slot] == 0 {
		r.used++
	}
	// Grow at 3/4 load (live entries plus slot tombstones) so probe chains
	// stay short; otherwise claim the slot the failed probe found.
	if r.used*4 > (r.mask+1)*3 {
		r.grow()
	} else {
		r.table[slot] = int32(idx + 1)
	}
	return idx, true
}

// Delete removes row if present, returning the former row index and whether
// a row was removed. The flat storage keeps the tombstoned row (indices are
// never reused); a later Insert of the same row appends a fresh copy.
func (r *Relation) Delete(row []ID) (idx int, removed bool) {
	if len(row) != r.arity {
		panic("intern: Relation row arity mismatch")
	}
	if r.arity == 0 {
		if r.live == 0 {
			return -1, false
		}
		r.live = 0
		r.markDeleted(0)
		return 0, true
	}
	slot, ri := r.probe(row)
	if ri < 0 {
		return -1, false
	}
	r.table[slot] = slotTomb
	r.markDeleted(ri)
	r.live--
	return ri, true
}

// grow doubles the table and rehashes every live row into it.
func (r *Relation) grow() {
	size := (r.mask + 1) * 2
	r.table = make([]int32, size)
	r.mask = size - 1
	r.used = 0
	for i := 0; i < r.n; i++ {
		if !r.Live(i) {
			continue
		}
		slot := uint32(hashRow(r.Row(i))) & r.mask
		for r.table[slot] != 0 {
			slot = (slot + 1) & r.mask
		}
		r.table[slot] = int32(i + 1)
		r.used++
	}
}

// HashRow returns the row hash the relation index uses — exported so other
// row tables (the rule kernel's) agree with it on row identity.
func HashRow(row []ID) uint64 { return hashRow(row) }

// hashRow hashes an ID row with the same mixer as the interner's node hash
// (no kind seed: rows are not values and live in their own table).
func hashRow(row []ID) uint64 {
	h := uint64(seedNode)
	for _, id := range row {
		h = mix64(h ^ uint64(id))
	}
	return mix64(h ^ uint64(len(row)))
}
