package rel

import (
	"slices"
	"sort"
	"sync"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Base is the fact base of one database version: what datalog evaluation
// derives from an algebra.DB before the first rule runs. Per stored relation
// it converts the elements once, into the frozen ID tables the relational
// engine joins on (one per arity, column postings added on first probe), and
// reads every other form off their rows in CompareFacts order: the bodyless
// rules the grounder merges, and the rendered keys, the form a predicate the
// program does not add to takes in an outcome — one text holding them all as
// JSON strings, and the keys as views into it (SortedKeys).
//
// Everything is derived lazily, the first time a request needs it, exactly
// once, and never changed afterwards: a Base is safe for any number of
// concurrent requests, which share what it holds read-only. It is immutable
// in the sense that matters — it describes the database it was made from,
// which must not be modified while the Base is in use — so a serving layer
// keeps one per database version and drops it with the version.
//
// A nil *Base is the empty database.
type Base struct {
	db    algebra.DB
	once  sync.Once
	rels  map[string]*baseRel
	names []string
}

// BaseUse counts what one request made a Base derive — work an earlier
// request on the same version would have found done. All zero is a base hit.
type BaseUse struct {
	Rows    int // database rows converted into ID tables
	Indexes int // column posting indexes built
	Keys    int // fact keys rendered
}

// baseRel is one stored relation's derived forms.
type baseRel struct {
	name string
	set  value.Set

	tabOnce sync.Once
	rel     *relation // frozen tables
	scalar  bool      // an element is not a tuple

	ruleOnce sync.Once
	rules    []datalog.Rule

	keyOnce sync.Once
	keys    []string
	text    string
}

// NewBase returns the fact base of db. It does no work until a request asks
// for something.
func NewBase(db algebra.DB) *Base { return &Base{db: db} }

// DB returns the database the base describes.
func (b *Base) DB() algebra.DB {
	if b == nil {
		return nil
	}
	return b.db
}

// load lists the stored relations, once.
func (b *Base) load() {
	b.once.Do(func() {
		b.rels = make(map[string]*baseRel, len(b.db))
		for name, s := range b.db {
			if s.Len() > 0 {
				b.rels[name] = &baseRel{name: name, set: s}
				b.names = append(b.names, name)
			}
		}
		sort.Strings(b.names)
	})
}

// relation returns the derived forms of the named relation, or nil when the
// database stores no fact under that name.
func (b *Base) relation(name string) *baseRel {
	if b == nil {
		return nil
	}
	b.load()
	return b.rels[name]
}

// Names returns the names of the relations holding at least one fact,
// sorted. The slice is shared: read-only.
func (b *Base) Names() []string {
	if b == nil {
		return nil
	}
	b.load()
	return b.names
}

// Keys returns the relation's fact keys ("e(1, 2)") in CompareFacts order,
// rendered from its tables once per database version into one text
// (SortedKeys) — nil and "" for a relation the database does not store. Both
// are shared by every request on this version: read-only.
func (b *Base) Keys(name string, use *BaseUse) (keys []string, text string) {
	br := b.relation(name)
	if br == nil {
		return nil, ""
	}
	br.keyOnce.Do(func() {
		br.keys, br.text = SortedKeys(name, br.tables(use).each)
		use.Keys += len(br.keys)
	})
	return br.keys, br.text
}

// FactRules returns the relation's rows as bodyless rules in CompareFacts
// order, for merging into a program that is to be grounded. Shared:
// read-only.
func (b *Base) FactRules(name string, use *BaseUse) []datalog.Rule {
	br := b.relation(name)
	if br == nil {
		return nil
	}
	br.ruleOnce.Do(func() {
		in := intern.Global()
		n, row := sortRows(br.tables(use).each)
		br.rules = make([]datalog.Rule, n)
		for i := range br.rules {
			r := row(i)
			args := make([]datalog.Term, len(r))
			for k, id := range r {
				args[k] = datalog.Const{V: in.Lookup(id)}
			}
			br.rules[i] = datalog.Rule{Head: datalog.Atom{Pred: name, Args: args}}
		}
	})
	return br.rules
}

// TuplesOf reports whether every element the database stores under name is a
// tuple of the given width, read off the relation's tables: one table, of
// that arity, and no scalar behind its rows. It holds of an empty relation,
// and of one the database does not store (DB tells the two apart).
func (b *Base) TuplesOf(name string, width int, use *BaseUse) bool {
	br := b.relation(name)
	if br == nil {
		return true
	}
	rel := br.tables(use)
	return !br.scalar && len(rel.tables) == 1 && rel.tables[0].Arity() == width
}

// tables returns the relation's frozen tables, loading them on first use.
func (br *baseRel) tables(use *BaseUse) *relation {
	br.tabOnce.Do(func() {
		rel := &relation{name: br.name}
		in := intern.Global()
		var buf []intern.ID
		br.set.Scan(func(elem value.Value) bool {
			_, tup := elem.(value.Tuple)
			br.scalar = br.scalar || !tup
			buf = elemIDs(in, buf, elem)
			t := rel.tableFor(len(buf))
			if r := t.internRow(buf); t.flags[r] == 0 {
				t.flags[r] = flagLive | flagDB
				rel.ndb++
			}
			return true
		})
		for _, t := range rel.tables {
			t.freeze()
		}
		br.rel = rel
		use.Rows += rel.ndb
	})
	return br.rel
}

// ElemFact maps a database set element to the fact it stands for in the
// relational idiom: a tuple is an n-ary fact of its components, anything else
// a unary one. Every path from a database to datalog goes through this
// mapping or its row form.
func ElemFact(pred string, elem value.Value) datalog.Fact {
	if t, ok := elem.(value.Tuple); ok {
		return datalog.Fact{Pred: pred, Args: t.Elems()}
	}
	return datalog.Fact{Pred: pred, Args: []value.Value{elem}}
}

// FactElem is ElemFact's inverse: the element a fact contributes to its
// predicate's relation — its single argument, or a tuple of several.
func FactElem(f datalog.Fact) value.Value {
	if len(f.Args) == 1 {
		return f.Args[0]
	}
	return value.NewTuple(f.Args...)
}

// elemIDs is ElemFact in ID space: the element's row, built in buf.
func elemIDs(in *intern.Interner, buf []intern.ID, elem value.Value) []intern.ID {
	if tup, ok := elem.(value.Tuple); ok {
		return in.TupleIDs(buf[:0], tup)
	}
	return append(buf[:0], in.Intern(elem))
}

// radixRows is the number of rows from which OrderRows orders rows of
// integers by their integers: below it, reading the keys out and the
// radix's passes and scratch slices cost more than the comparisons they
// save. Measured on random pairs of integers below 5·10^4, the radix is
// faster from between 24 and 32 rows.
const radixRows = 32

// OrderRows returns the order of the rows of width IDs (width ≥ 1) that ids
// holds back to back: the permutation of their indices that lists them
// ascending by the value order of their columns, read left to right. When
// every ID stands for an Int and there are at least radixRows rows, it is
// value.RadixOrder on their integers; otherwise the rows are compare-sorted
// (compareRows). It is the one ordering of ID rows: SortedKeys and the query
// kernel's answers both order through it.
func OrderRows(ids []intern.ID, width int) []int32 {
	rows, in := len(ids)/width, intern.Global()
	if rows >= radixRows {
		if keys := intKeys(in, ids); keys != nil {
			return value.RadixOrder(keys, width)
		}
	}
	order := make([]int32, rows)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return compareRows(in, ids[int(a)*width:int(a+1)*width], ids[int(b)*width:int(b+1)*width])
	})
	return order
}

// intKeys returns the integers behind ids, or nil when one of them is not an
// Int.
func intKeys(in *intern.Interner, ids []intern.ID) []int64 {
	keys := make([]int64, len(ids))
	for i, id := range ids {
		x, ok := in.Lookup(id).(value.Int)
		if !ok {
			return nil
		}
		keys[i] = int64(x)
	}
	return keys
}

// compareRows is datalog.CompareFacts on the rows of one predicate. Equal IDs
// are equal values, so only differing positions are looked up.
func compareRows(in *intern.Interner, a, b []intern.ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for k := 0; k < n; k++ {
		if a[k] == b[k] {
			continue
		}
		if c := in.Lookup(a[k]).Compare(in.Lookup(b[k])); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
