package rel

import (
	"sync"

	"algrec/internal/value/intern"
)

// rowFlags is the per-row state of a table: current membership, what
// supports it, and the in-flight batch's bookkeeping.
type rowFlags uint8

// The row flags.
const (
	flagLive    rowFlags = 1 << iota // a member right now
	flagDB                           // a database fact
	flagProg                         // a fact rule of the program
	flagDerived                      // recursive: derivable from the current facts
	flagAdded                        // became a member during this batch
	flagRemoved                      // stopped being a member during this batch
	flagTouched                      // on the table's touched list
)

// relation is the stored state of one predicate: one table per arity its
// rows come in (a heterogeneous database set maps scalars to unary and
// tuples to n-ary facts of the same predicate), all supported the same way.
type relation struct {
	name string
	// counted: a rule derives into the relation outside recursion, so a
	// row's derivations are counted. Otherwise a derived row is supported by
	// its derivable flag (recursive: DRed-maintained under mutation), and a
	// relation no rule derives into has none.
	counted bool
	tables  []*table // by first use; a predicate rarely has more than one
	ndb     int      // rows carrying flagDB, over all tables
}

// table is the store of one (predicate, arity): its rows and their hash are
// an embedded intern.Relation, the same row table the storage backends keep
// a stored relation's rows in, and beside them the table keeps the kernel's
// per-row flags and counters and a posting chain per probed column for
// joins. Nothing in it is a value: equality is ID equality, and no row is
// ever interned as a tuple, so evaluating or maintaining a program leaves
// nothing behind in the process-global arena beyond the scalars its facts
// mention.
//
// Row slots are stable for the life of a row and reused after it: a row
// released between batches is deleted from the relation and its slot goes to
// the free list, which the next new row refills, so a table's size follows
// its live content, not its history. Rows removed during a batch keep their
// slot — and their index entries — until the batch ends, which is what keeps
// the pre-batch state probeable.
//
// A frozen table (a fact base's, see Base) is never written again: its rows
// are all live database facts, it may be read by any number of engines at
// once, and its column postings are built on first demand, once.
type table struct {
	intern.Relation // the rows and their hash; a released slot is deleted

	rel   *relation
	flags []rowFlags // per row slot
	count []int32    // counted: derivations per row; nil otherwise
	free  []int32    // released slots

	cols   []*colIndex // per column; nil unless a compiled plan probes it (frozen: all, built lazily)
	frozen bool

	touched []int32 // rows whose flags or counters moved this batch
	pending []int32 // rows whose base membership moved this batch
}

// noRow is the row index of a row a table does not hold.
const noRow = int32(-1)

// colIndex is one column's postings: for every ID occurring in the column,
// the doubly linked chain of the rows holding it. Chains cover every
// allocated row — members, and rows removed earlier in the batch — so either
// view of the relation can be probed; linking at the head keeps an
// enumeration in progress valid while its consumer inserts. A frozen table's
// chains are singly linked (nothing is ever unlinked) and built under once.
type colIndex struct {
	once       sync.Once // frozen tables only
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
		if t.Arity() == arity {
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
	t := &table{Relation: *intern.NewRelation(arity), rel: rel, cols: make([]*colIndex, arity)}
	rel.tables = append(rel.tables, t)
	return t
}

// addDB makes row a database fact of the relation, in the table of its
// arity; a row added twice counts once.
func (rel *relation) addDB(row []intern.ID) {
	t := rel.tableFor(len(row))
	if r := t.internRow(row); t.flags[r]&flagDB == 0 {
		t.flags[r] |= flagDB
		rel.ndb++
	}
}

// each calls f on every live row of the relation, table by table, in row
// order — the walk SortedKeys wants. The row is the table's own storage.
func (rel *relation) each(f func(row []intern.ID)) {
	for _, t := range rel.tables {
		for r := int32(0); r < t.slots(); r++ {
			if t.flags[r]&flagLive != 0 {
				f(t.Row(r))
			}
		}
	}
}

// slots returns the number of row slots, free ones included.
func (t *table) slots() int32 { return int32(len(t.flags)) }

// has reports whether row r is a member in the given view: right now, or —
// old — at the start of the batch.
func (t *table) has(r int32, old bool) bool {
	f := t.flags[r]
	if old {
		return (f&flagLive != 0) != (f&(flagAdded|flagRemoved) != 0)
	}
	return f&flagLive != 0
}

// supported reports membership as the row's support implies it; flagLive is
// brought in line with it at unit boundaries.
func (t *table) supported(r int32) bool {
	f := t.flags[r]
	switch {
	case f&(flagDB|flagProg) != 0:
		return true
	case t.rel.counted:
		return t.count[r] > 0
	default:
		return f&flagDerived != 0
	}
}

// touch puts row r on the list of rows to settle when the batch ends.
func (t *table) touch(r int32) {
	if t.flags[r]&flagTouched == 0 {
		t.flags[r] |= flagTouched
		t.touched = append(t.touched, r)
	}
}

// internRow returns the slot of the row with these IDs, allocating one — with
// no flags set — when the table does not hold it. The IDs are copied.
func (t *table) internRow(row []intern.ID) int32 {
	var r int32
	var added bool
	if n := len(t.free); n > 0 {
		if r, added = t.Refill(t.free[n-1], row); added {
			t.free = t.free[:n-1]
		}
	} else if r, added = t.Insert(row); added {
		t.flags = append(t.flags, 0)
		if t.rel.counted {
			t.count = append(t.count, 0)
		}
		for _, c := range t.cols {
			if c != nil {
				c.next = append(c.next, noRow)
				c.prev = append(c.prev, noRow)
			}
		}
	}
	if !added {
		return r
	}
	if t.frozen {
		panic("rel: insert into a frozen table")
	}
	for k, c := range t.cols {
		if c != nil {
			c.link(row[k], r)
		}
	}
	return r
}

// release deletes row r from the relation, unlinks it from the column
// chains and returns its slot to the free list. Only rows with no flags left
// are released, and only between batches: nothing enumerates the table then.
func (t *table) release(r int32) {
	row := t.Row(r)
	for k, c := range t.cols {
		if c != nil {
			c.unlink(row[k], r)
		}
	}
	t.Delete(row)
	t.free = append(t.free, r)
}

// endBatch makes the current state the old state: the batch bookkeeping of
// every touched row is dropped, and a row the batch left with no membership
// and no support gives its slot back.
func (t *table) endBatch() {
	for _, r := range t.touched {
		t.flags[r] &^= flagAdded | flagRemoved | flagTouched
		if t.flags[r] == 0 && (t.count == nil || t.count[r] == 0) {
			t.release(r)
		}
	}
	t.touched = t.touched[:0]
}

// index makes column k probeable and reports whether this call built the
// postings of a frozen table. On a private table it is called while plans
// are compiled, before the table holds a row, and the postings follow every
// insert; on a frozen table the first caller builds them from the rows, once
// — a concurrent caller waits, and every later one finds them.
func (t *table) index(k int) (built bool) {
	if t.frozen {
		c := t.cols[k]
		c.once.Do(func() {
			c.head = make(map[intern.ID]posting)
			c.next = make([]int32, t.slots())
			for r := t.slots() - 1; r >= 0; r-- {
				id := t.Row(r)[k]
				p := c.head[id]
				c.next[r] = noRow
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
func (t *table) freeze() {
	t.frozen = true
	for k := range t.cols {
		t.cols[k] = &colIndex{}
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
