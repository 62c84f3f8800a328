package ivm

import "algrec/internal/value/intern"

// rowFlags is the per-row state of a table: current membership, what
// supports it, and the in-flight batch's bookkeeping.
type rowFlags uint8

const (
	fLive    rowFlags = 1 << iota // a member right now
	fDB                           // a database fact
	fProg                         // a fact rule of the program
	fDerived                      // relDRed: derivable from the current facts
	fAdded                        // became a member during this batch
	fRemoved                      // stopped being a member during this batch
	fTouched                      // on the table's touched list
	fFree                         // the slot is on the free list
)

// relKind says what supports a derived row's membership.
type relKind uint8

const (
	relBase     relKind = iota // no rules: membership is base membership
	relCounting                // non-recursive: support counts
	relDRed                    // recursive: derivable flag, DRed-maintained
)

// relation is the stored state of one predicate: one table per arity its
// rows come in (a heterogeneous database set maps scalars to unary and
// tuples to n-ary facts of the same predicate), all maintained by the same
// strategy.
type relation struct {
	name   string
	kind   relKind
	tables []*table // by first use; a predicate rarely has more than one
	ndb    int      // rows carrying fDB, over all tables
}

// table is the flat store of one (predicate, arity): rows are ID tuples
// stored back to back in one arity-strided slice, with per-row flags and
// counters beside them, an open-addressed hash over whole rows for
// membership, and a posting chain per probed column for joins. Nothing in it
// is a value: equality is ID equality, and no row is ever interned as a
// tuple, so maintaining a view leaves nothing behind in the process-global
// arena beyond the scalars its facts mention.
//
// Row slots are stable for the life of a row and reused after it: a row
// that ends a batch with no support and no membership is released to the
// free list, so a table's size follows its live content, not its history.
// Rows removed during a batch keep their slot — and their index entries —
// until the batch ends, which is what keeps the pre-batch state probeable.
type table struct {
	rel   *relation
	arity int

	ids   []intern.ID // arity-strided: row r is ids[r*arity : (r+1)*arity]
	flags []rowFlags  // per row slot
	count []int32     // relCounting: derivations per row; nil otherwise
	free  []int32     // released slots

	slots []int32 // open-addressed row hash: slot+1, 0 empty, slotTomb deleted
	used  int     // occupied and deleted entries of slots

	cols []*colIndex // per column; nil unless a compiled plan probes it

	touched []int32 // rows whose flags or counters moved this batch
	pending []int32 // rows whose base membership moved this batch
}

const (
	slotTomb = -1
	minSlots = 16 // initial hash size; sizes are powers of two
	noRow    = int32(-1)
)

// colIndex is one column's postings: for every ID occurring in the column,
// the doubly linked chain of the rows holding it. Chains cover every
// allocated row — members, and rows removed earlier in the batch — so either
// view of the relation can be probed; linking at the head keeps an
// enumeration in progress valid while its consumer inserts.
type colIndex struct {
	head       map[intern.ID]posting
	next, prev []int32 // per row slot; noRow ends a chain
}

// posting is a chain's first row and its length (the planner's run-time
// tie-break: probe the shortest chain among the bound columns).
type posting struct {
	first, n int32
}

// table returns the relation's table of the given arity, or nil.
func (rel *relation) table(arity int) *table {
	for _, t := range rel.tables {
		if t.arity == arity {
			return t
		}
	}
	return nil
}

// tableFor returns the relation's table of the given arity, creating it.
func (rel *relation) tableFor(arity int) *table {
	if t := rel.table(arity); t != nil {
		return t
	}
	t := &table{rel: rel, arity: arity, slots: make([]int32, minSlots), cols: make([]*colIndex, arity)}
	rel.tables = append(rel.tables, t)
	return t
}

// rows returns the number of row slots, free ones included.
func (t *table) rows() int32 { return int32(len(t.flags)) }

// row returns row r as a view into the table's storage, valid until the
// next insert.
func (t *table) row(r int32) []intern.ID {
	return t.ids[int(r)*t.arity : int(r+1)*t.arity : int(r+1)*t.arity]
}

// has reports whether row r is a member in the given view: right now, or —
// old — at the start of the batch.
func (t *table) has(r int32, old bool) bool {
	f := t.flags[r]
	if old {
		return (f&fLive != 0) != (f&(fAdded|fRemoved) != 0)
	}
	return f&fLive != 0
}

// supported reports membership as the row's support implies it; fLive is
// brought in line with it at unit boundaries.
func (t *table) supported(r int32) bool {
	f := t.flags[r]
	switch {
	case f&(fDB|fProg) != 0:
		return true
	case t.rel.kind == relCounting:
		return t.count[r] > 0
	default:
		return f&fDerived != 0
	}
}

// touch puts row r on the list of rows to settle when the batch ends.
func (t *table) touch(r int32) {
	if t.flags[r]&fTouched == 0 {
		t.flags[r] |= fTouched
		t.touched = append(t.touched, r)
	}
}

// probe walks the hash from row's home slot: it returns the slot holding the
// row and the row's index, or the slot an insert should claim and noRow.
func (t *table) probe(row []intern.ID) (slot int, r int32) {
	mask := len(t.slots) - 1
	slot = int(intern.HashRow(row)) & mask
	reuse := -1
	for {
		switch s := t.slots[slot]; {
		case s == 0:
			if reuse >= 0 {
				slot = reuse
			}
			return slot, noRow
		case s == slotTomb:
			if reuse < 0 {
				reuse = slot
			}
		default:
			if rowsEqual(t.row(s-1), row) {
				return slot, s - 1
			}
		}
		slot = (slot + 1) & mask
	}
}

func rowsEqual(a, b []intern.ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// find returns the slot of the row with these IDs, or noRow.
func (t *table) find(row []intern.ID) int32 {
	_, r := t.probe(row)
	return r
}

// intern returns the slot of the row with these IDs, allocating one — with
// no flags set — when the table does not hold it. The IDs are copied.
func (t *table) intern(row []intern.ID) int32 {
	slot, r := t.probe(row)
	if r != noRow {
		return r
	}
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
		copy(t.row(r), row)
		t.flags[r] = 0
	} else {
		r = t.rows()
		t.ids = append(t.ids, row...)
		t.flags = append(t.flags, 0)
		if t.rel.kind == relCounting {
			t.count = append(t.count, 0)
		}
		for _, c := range t.cols {
			if c != nil {
				c.next = append(c.next, noRow)
				c.prev = append(c.prev, noRow)
			}
		}
	}
	if t.slots[slot] == 0 {
		t.used++
	}
	t.slots[slot] = r + 1
	if t.used*4 > len(t.slots)*3 {
		t.rehash()
	}
	for k, c := range t.cols {
		if c != nil {
			c.link(row[k], r)
		}
	}
	return r
}

// release returns row r's slot to the free list and unlinks it from the
// hash and the column chains. Only rows with no flags left are released, and
// only between batches: nothing enumerates the table then.
func (t *table) release(r int32) {
	row := t.row(r)
	slot, _ := t.probe(row)
	t.slots[slot] = slotTomb
	for k, c := range t.cols {
		if c != nil {
			c.unlink(row[k], r)
		}
	}
	t.flags[r] = fFree
	t.free = append(t.free, r)
}

// allocated returns the number of row slots in use.
func (t *table) allocated() int { return len(t.flags) - len(t.free) }

// rehash rebuilds the hash over the allocated rows, doubling it when they
// fill more than half of it — under churn most of the load is deleted
// entries, and rebuilding in place clears them.
func (t *table) rehash() {
	size := len(t.slots)
	if t.allocated()*2 > size {
		size *= 2
	}
	t.slots = make([]int32, size)
	t.used = 0
	mask := size - 1
	for r := int32(0); r < t.rows(); r++ {
		if t.flags[r]&fFree != 0 {
			continue
		}
		slot := int(intern.HashRow(t.row(r))) & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = r + 1
		t.used++
	}
}

// index makes column k probeable. Called while plans are compiled, before
// the table holds a row.
func (t *table) index(k int) {
	if t.cols[k] == nil {
		t.cols[k] = &colIndex{head: map[intern.ID]posting{}}
	}
}

func (c *colIndex) link(id intern.ID, r int32) {
	p := c.head[id]
	c.next[r], c.prev[r] = noRow, noRow
	if p.n > 0 {
		c.next[r] = p.first
		c.prev[p.first] = r
	}
	c.head[id] = posting{first: r, n: p.n + 1}
}

func (c *colIndex) unlink(id intern.ID, r int32) {
	p := c.head[id]
	next, prev := c.next[r], c.prev[r]
	if next != noRow {
		c.prev[next] = prev
	}
	if prev != noRow {
		c.next[prev] = next
	} else {
		p.first = next
	}
	if p.n--; p.n == 0 {
		delete(c.head, id)
	} else {
		c.head[id] = p
	}
}
