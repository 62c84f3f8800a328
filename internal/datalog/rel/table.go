package rel

import (
	"sync"

	"algrec/internal/value/intern"
)

// RowFlags is the per-row state of a table: current membership, what
// supports it, and the in-flight batch's bookkeeping.
type RowFlags uint8

// The row flags.
const (
	FlagLive    RowFlags = 1 << iota // a member right now
	FlagDB                           // a database fact
	FlagProg                         // a fact rule of the program
	FlagDerived                      // KindDRed: derivable from the current facts
	FlagAdded                        // became a member during this batch
	FlagRemoved                      // stopped being a member during this batch
	FlagTouched                      // on the table's touched list
	FlagFree                         // the slot is on the free list
)

// Kind says what supports a derived row's membership.
type Kind uint8

// The relation kinds.
const (
	KindBase     Kind = iota // no rules: membership is base membership
	KindCounting             // non-recursive: support counts
	KindDRed                 // recursive: derivable flag (DRed-maintained under mutation)
)

// Relation is the stored state of one predicate: one table per arity its
// rows come in (a heterogeneous database set maps scalars to unary and
// tuples to n-ary facts of the same predicate), all supported the same way.
type Relation struct {
	Name   string
	Kind   Kind
	Tables []*Table // by first use; a predicate rarely has more than one
	NDB    int      // rows carrying FlagDB, over all tables
}

// Table is the flat store of one (predicate, arity): rows are ID tuples
// stored back to back in one arity-strided slice, with per-row flags and
// counters beside them, an open-addressed hash over whole rows for
// membership, and a posting chain per probed column for joins. Nothing in it
// is a value: equality is ID equality, and no row is ever interned as a
// tuple, so evaluating or maintaining a program leaves nothing behind in the
// process-global arena beyond the scalars its facts mention.
//
// Row slots are stable for the life of a row and reused after it: a row
// released between batches goes to the free list, so a table's size follows
// its live content, not its history. Rows removed during a batch keep their
// slot — and their index entries — until the batch ends, which is what keeps
// the pre-batch state probeable.
//
// A frozen table (a fact base's, see Base) is never written again: its rows
// are all live database facts, it may be read by any number of engines at
// once, and its column postings are built on first demand, once.
type Table struct {
	Rel   *Relation
	Arity int

	ids   []intern.ID // arity-strided: row r is ids[r*Arity : (r+1)*Arity]
	Flags []RowFlags  // per row slot
	Count []int32     // KindCounting: derivations per row; nil otherwise
	free  []int32     // released slots

	slots []int32 // open-addressed row hash: slot+1, 0 empty, slotTomb deleted
	used  int     // occupied and deleted entries of slots

	cols   []*colIndex // per column; nil unless a compiled plan probes it (frozen: all, built lazily)
	frozen bool

	Touched []int32 // rows whose flags or counters moved this batch
	Pending []int32 // rows whose base membership moved this batch
}

const (
	slotTomb = -1
	minSlots = 16 // initial hash size; sizes are powers of two
	// NoRow is the row index of a row a table does not hold.
	NoRow = int32(-1)
)

// colIndex is one column's postings: for every ID occurring in the column,
// the doubly linked chain of the rows holding it. Chains cover every
// allocated row — members, and rows removed earlier in the batch — so either
// view of the relation can be probed; linking at the head keeps an
// enumeration in progress valid while its consumer inserts. A frozen table's
// chains are singly linked (nothing is ever unlinked) and built under once.
type colIndex struct {
	once       sync.Once // frozen tables only
	head       map[intern.ID]posting
	next, prev []int32 // per row slot; NoRow ends a chain
}

// posting is a chain's first row and its length (the planner's run-time
// tie-break: probe the shortest chain among the bound columns).
type posting struct {
	first, n int32
}

// table returns the relation's table of the given arity, or nil.
func (rel *Relation) table(arity int) *Table {
	for _, t := range rel.Tables {
		if t.Arity == arity {
			return t
		}
	}
	return nil
}

// tableFor returns the relation's table of the given arity, creating it.
func (rel *Relation) tableFor(arity int) *Table {
	if t := rel.table(arity); t != nil {
		return t
	}
	t := &Table{Rel: rel, Arity: arity, slots: make([]int32, minSlots), cols: make([]*colIndex, arity)}
	rel.Tables = append(rel.Tables, t)
	return t
}

// addDB makes row a database fact of the relation, in the table of its
// arity; a row added twice counts once.
func (rel *Relation) addDB(row []intern.ID) {
	t := rel.tableFor(len(row))
	if r := t.Intern(row); t.Flags[r]&FlagDB == 0 {
		t.Flags[r] |= FlagDB
		rel.NDB++
	}
}

// each calls f on every live row of the relation, table by table, in row
// order — the walk SortedKeys wants. The row is the table's own storage.
func (rel *Relation) each(f func(row []intern.ID)) {
	for _, t := range rel.Tables {
		for r := int32(0); r < t.Rows(); r++ {
			if t.Flags[r]&FlagLive != 0 {
				f(t.Row(r))
			}
		}
	}
}

// Rows returns the number of row slots, free ones included.
func (t *Table) Rows() int32 { return int32(len(t.Flags)) }

// Row returns row r as a view into the table's storage, valid until the
// next insert.
func (t *Table) Row(r int32) []intern.ID {
	return t.ids[int(r)*t.Arity : int(r+1)*t.Arity : int(r+1)*t.Arity]
}

// Has reports whether row r is a member in the given view: right now, or —
// old — at the start of the batch.
func (t *Table) Has(r int32, old bool) bool {
	f := t.Flags[r]
	if old {
		return (f&FlagLive != 0) != (f&(FlagAdded|FlagRemoved) != 0)
	}
	return f&FlagLive != 0
}

// Supported reports membership as the row's support implies it; FlagLive is
// brought in line with it at unit boundaries.
func (t *Table) Supported(r int32) bool {
	f := t.Flags[r]
	switch {
	case f&(FlagDB|FlagProg) != 0:
		return true
	case t.Rel.Kind == KindCounting:
		return t.Count[r] > 0
	default:
		return f&FlagDerived != 0
	}
}

// Touch puts row r on the list of rows to settle when the batch ends.
func (t *Table) Touch(r int32) {
	if t.Flags[r]&FlagTouched == 0 {
		t.Flags[r] |= FlagTouched
		t.Touched = append(t.Touched, r)
	}
}

// probe walks the hash from row's home slot: it returns the slot holding the
// row and the row's index, or the slot an insert should claim and NoRow.
func (t *Table) probe(row []intern.ID) (slot int, r int32) {
	mask := len(t.slots) - 1
	slot = int(intern.HashRow(row)) & mask
	reuse := -1
	for {
		switch s := t.slots[slot]; {
		case s == 0:
			if reuse >= 0 {
				slot = reuse
			}
			return slot, NoRow
		case s == slotTomb:
			if reuse < 0 {
				reuse = slot
			}
		default:
			if rowsEqual(t.Row(s-1), row) {
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

// Find returns the slot of the row with these IDs, or NoRow.
func (t *Table) Find(row []intern.ID) int32 {
	_, r := t.probe(row)
	return r
}

// Intern returns the slot of the row with these IDs, allocating one — with
// no flags set — when the table does not hold it. The IDs are copied.
func (t *Table) Intern(row []intern.ID) int32 {
	slot, r := t.probe(row)
	if r != NoRow {
		return r
	}
	if t.frozen {
		panic("rel: insert into a frozen table")
	}
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
		copy(t.Row(r), row)
		t.Flags[r] = 0
	} else {
		r = t.Rows()
		t.ids = append(t.ids, row...)
		t.Flags = append(t.Flags, 0)
		if t.Rel.Kind == KindCounting {
			t.Count = append(t.Count, 0)
		}
		for _, c := range t.cols {
			if c != nil {
				c.next = append(c.next, NoRow)
				c.prev = append(c.prev, NoRow)
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

// Release returns row r's slot to the free list and unlinks it from the
// hash and the column chains. Only rows with no flags left are released, and
// only between batches: nothing enumerates the table then.
func (t *Table) Release(r int32) {
	row := t.Row(r)
	slot, _ := t.probe(row)
	t.slots[slot] = slotTomb
	for k, c := range t.cols {
		if c != nil {
			c.unlink(row[k], r)
		}
	}
	t.Flags[r] = FlagFree
	t.free = append(t.free, r)
}

// EndBatch makes the current state the old state: the batch bookkeeping of
// every touched row is dropped, and a row the batch left with no membership
// and no support gives its slot back.
func (t *Table) EndBatch() {
	for _, r := range t.Touched {
		t.Flags[r] &^= FlagAdded | FlagRemoved | FlagTouched
		if t.Flags[r] == 0 && (t.Count == nil || t.Count[r] == 0) {
			t.Release(r)
		}
	}
	t.Touched = t.Touched[:0]
}

// allocated returns the number of row slots in use.
func (t *Table) allocated() int { return len(t.Flags) - len(t.free) }

// rehash rebuilds the hash over the allocated rows, doubling it when they
// fill more than half of it — under churn most of the load is deleted
// entries, and rebuilding in place clears them.
func (t *Table) rehash() {
	size := len(t.slots)
	if t.allocated()*2 > size {
		size *= 2
	}
	t.slots = make([]int32, size)
	t.used = 0
	mask := size - 1
	for r := int32(0); r < t.Rows(); r++ {
		if t.Flags[r]&FlagFree != 0 {
			continue
		}
		slot := int(intern.HashRow(t.Row(r))) & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = r + 1
		t.used++
	}
}

// index makes column k probeable and reports whether this call built the
// postings of a frozen table. On a private table it is called while plans
// are compiled, before the table holds a row, and the postings follow every
// insert; on a frozen table the first caller builds them from the rows, once
// — a concurrent caller waits, and every later one finds them.
func (t *Table) index(k int) (built bool) {
	if t.frozen {
		c := t.cols[k]
		c.once.Do(func() {
			c.head = make(map[intern.ID]posting)
			c.next = make([]int32, t.Rows())
			for r := t.Rows() - 1; r >= 0; r-- {
				id := t.ids[int(r)*t.Arity+k]
				p := c.head[id]
				c.next[r] = NoRow
				if p.n > 0 {
					c.next[r] = p.first
				}
				c.head[id] = posting{first: r, n: p.n + 1}
			}
			built = true
		})
		return built
	}
	if t.cols[k] == nil {
		t.cols[k] = &colIndex{head: map[intern.ID]posting{}}
	}
	return false
}

// freeze ends a base table's loading: every row is a live database fact
// from here on, and the table is read-only.
func (t *Table) freeze() {
	t.frozen = true
	for k := range t.cols {
		t.cols[k] = &colIndex{}
	}
}

func (c *colIndex) link(id intern.ID, r int32) {
	p := c.head[id]
	c.next[r], c.prev[r] = NoRow, NoRow
	if p.n > 0 {
		c.next[r] = p.first
		c.prev[p.first] = r
	}
	c.head[id] = posting{first: r, n: p.n + 1}
}

func (c *colIndex) unlink(id intern.ID, r int32) {
	p := c.head[id]
	next, prev := c.next[r], c.prev[r]
	if next != NoRow {
		c.prev[next] = prev
	}
	if prev != NoRow {
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
