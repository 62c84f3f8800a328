// Package storagetest is the cross-backend conformance suite for
// storage.Store implementations. Every backend must pass it unchanged — the
// suite pins the observable contract (scan order, batch atomicity,
// canonical order through a snapshot, persistence across reopen) that lets
// the server and the dlog-storage differential oracle treat backends as
// interchangeable.
package storagetest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Factory creates a fresh empty store for one subtest. reopen, when non-nil,
// must close the store and reopen the same persistent state (persistent
// backends only; return nil for purely in-memory ones). The t passed in owns
// cleanup of both.
type Factory func(t *testing.T) (st storage.Store, reopen func() storage.Store)

// Run exercises the full conformance suite against the backend.
func Run(t *testing.T, f Factory) {
	t.Run("InsertScanOrder", func(t *testing.T) { testInsertScanOrder(t, f) })
	t.Run("DeleteAndReinsert", func(t *testing.T) { testDeleteAndReinsert(t, f) })
	t.Run("ResetAndArity", func(t *testing.T) { testResetAndArity(t, f) })
	t.Run("BatchAtomicity", func(t *testing.T) { testBatchAtomicity(t, f) })
	t.Run("CanonicalOrder", func(t *testing.T) { testCanonicalOrder(t, f) })
	t.Run("DropRelation", func(t *testing.T) { testDropRelation(t, f) })
	t.Run("Arity0", func(t *testing.T) { testArity0(t, f) })
	t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, f) })
	t.Run("Reopen", func(t *testing.T) { testReopen(t, f) })
}

// row builds an ID row from small integers via the global interner — the
// vocabulary both bundled backends default to.
func row(xs ...int64) []intern.ID {
	in := intern.Global()
	ids := make([]intern.ID, len(xs))
	for i, x := range xs {
		ids[i] = in.InternInt(x)
	}
	return ids
}

func insert(t *testing.T, st storage.Store, rel string, arity int, rows ...[]intern.ID) {
	t.Helper()
	if err := st.Apply(storage.Batch{{Rel: rel, Arity: arity, Insert: rows}}); err != nil {
		t.Fatalf("Apply insert: %v", err)
	}
}

func del(t *testing.T, st storage.Store, rel string, arity int, rows ...[]intern.ID) {
	t.Helper()
	if err := st.Apply(storage.Batch{{Rel: rel, Arity: arity, Delete: rows}}); err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
}

// scanAll collects a relation's rows in scan order.
func scanAll(t *testing.T, st storage.Store, rel string) [][]intern.ID {
	t.Helper()
	r, ok, err := st.Rel(rel)
	if err != nil {
		t.Fatalf("Rel(%q): %v", rel, err)
	}
	if !ok {
		t.Fatalf("Rel(%q): missing", rel)
	}
	var out [][]intern.ID
	err = r.Scan(func(row []intern.ID) bool {
		cp := make([]intern.ID, len(row))
		copy(cp, row)
		out = append(out, cp)
		return true
	})
	if err != nil {
		t.Fatalf("Scan(%q): %v", rel, err)
	}
	return out
}

func wantRows(t *testing.T, st storage.Store, rel string, want ...[]intern.ID) {
	t.Helper()
	got := scanAll(t, st, rel)
	if len(got) != len(want) {
		t.Fatalf("relation %q: got %d rows, want %d\ngot:  %v\nwant: %v", rel, len(got), len(want), got, want)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("relation %q row %d: got %v, want %v", rel, i, got[i], want[i])
		}
	}
}

func testInsertScanOrder(t *testing.T, f Factory) {
	st, _ := f(t)
	insert(t, st, "e", 2, row(1, 2), row(3, 4))
	insert(t, st, "e", 2, row(5, 6), row(1, 2)) // duplicate: no-op, keeps position
	wantRows(t, st, "e", row(1, 2), row(3, 4), row(5, 6))

	r, _, _ := st.Rel("e")
	if r.Arity() != 2 {
		t.Fatalf("arity = %d, want 2", r.Arity())
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}

	infos, err := st.Rels()
	if err != nil {
		t.Fatalf("Rels: %v", err)
	}
	if len(infos) != 1 || infos[0] != (storage.RelInfo{Name: "e", Arity: 2, Len: 3}) {
		t.Fatalf("Rels = %+v", infos)
	}
}

func testDeleteAndReinsert(t *testing.T, f Factory) {
	st, _ := f(t)
	insert(t, st, "e", 1, row(10), row(20), row(30))
	del(t, st, "e", 1, row(20), row(99)) // deleting an absent row is a no-op
	wantRows(t, st, "e", row(10), row(30))

	// Re-insert moves the row to the latest position.
	insert(t, st, "e", 1, row(20))
	wantRows(t, st, "e", row(10), row(30), row(20))

	// Delete and insert of the same row within one mutation: deletes apply
	// first, so the row survives, repositioned at the end.
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 1, Delete: [][]intern.ID{row(10)}, Insert: [][]intern.ID{row(10)}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	wantRows(t, st, "e", row(30), row(20), row(10))

	// Delete everything; the relation stays, empty.
	del(t, st, "e", 1, row(10), row(20), row(30))
	wantRows(t, st, "e")
	r, ok, _ := st.Rel("e")
	if !ok || r.Len() != 0 {
		t.Fatalf("after full delete: ok=%v Len=%d", ok, r.Len())
	}
}

func testResetAndArity(t *testing.T, f Factory) {
	st, _ := f(t)
	insert(t, st, "e", 2, row(1, 2))

	// Mismatched arity without Reset is rejected and changes nothing.
	err := st.Apply(storage.Batch{{Rel: "e", Arity: 3, Insert: [][]intern.ID{row(1, 2, 3)}}})
	if !errors.Is(err, storage.ErrArityMismatch) {
		t.Fatalf("arity change without reset: err = %v, want ErrArityMismatch", err)
	}
	wantRows(t, st, "e", row(1, 2))

	// Reset drops the old contents and may change the arity.
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 3, Reset: true, Insert: [][]intern.ID{row(7, 8, 9)}}}); err != nil {
		t.Fatalf("reset: %v", err)
	}
	wantRows(t, st, "e", row(7, 8, 9))
	r, _, _ := st.Rel("e")
	if r.Arity() != 3 {
		t.Fatalf("arity after reset = %d, want 3", r.Arity())
	}

	// Reset to empty keeps the relation listed.
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 1, Reset: true}}); err != nil {
		t.Fatalf("reset empty: %v", err)
	}
	if _, ok, _ := st.Rel("e"); !ok {
		t.Fatal("relation vanished after empty reset")
	}
}

func testBatchAtomicity(t *testing.T, f Factory) {
	st, _ := f(t)
	insert(t, st, "a", 1, row(1))
	insert(t, st, "b", 2, row(1, 2))

	// The second mutation's arity mismatch must abort the whole batch: the
	// first mutation's insert is not applied either.
	err := st.Apply(storage.Batch{
		{Rel: "a", Arity: 1, Insert: [][]intern.ID{row(2)}},
		{Rel: "b", Arity: 1, Insert: [][]intern.ID{row(3)}},
	})
	if !errors.Is(err, storage.ErrArityMismatch) {
		t.Fatalf("err = %v, want ErrArityMismatch", err)
	}
	wantRows(t, st, "a", row(1))
	wantRows(t, st, "b", row(1, 2))

	// A malformed row width fails validation with the same atomicity.
	err = st.Apply(storage.Batch{
		{Rel: "a", Arity: 1, Insert: [][]intern.ID{row(5)}},
		{Rel: "c", Arity: 2, Insert: [][]intern.ID{row(1)}},
	})
	if err == nil {
		t.Fatal("malformed batch accepted")
	}
	wantRows(t, st, "a", row(1))
	if _, ok, _ := st.Rel("c"); ok {
		t.Fatal("relation from aborted batch exists")
	}
}

// randomRelation fills rel with deterministic pseudo-random rows (some
// duplicated column values so lookups return multiple rows) and returns the
// surviving rows in insertion order.
func randomRelation(t *testing.T, st storage.Store, rel string, arity, n int, seed int64) [][]intern.ID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type key string
	mk := func(r []intern.ID) key { return key(fmt.Sprint(r)) }
	var order [][]intern.ID
	pos := map[key]int{}
	for i := 0; i < n; i++ {
		vals := make([]int64, arity)
		for j := range vals {
			vals[j] = int64(rng.Intn(n / 2))
		}
		r := row(vals...)
		switch {
		case rng.Intn(4) == 0 && len(order) > 0: // delete a random survivor
			victim := order[rng.Intn(len(order))]
			del(t, st, rel, arity, victim)
			if p, ok := pos[mk(victim)]; ok {
				order = append(order[:p], order[p+1:]...)
				delete(pos, mk(victim))
				for k, v := range pos {
					if v > p {
						pos[k] = v - 1
					}
				}
			}
		default:
			insert(t, st, rel, arity, r)
			if _, ok := pos[mk(r)]; !ok {
				pos[mk(r)] = len(order)
				order = append(order, r)
			}
		}
	}
	return order
}

// testCanonicalOrder pins what MaterializeSet's sort skip relies on: a Reset
// batch scans in its insert order, so StoreDB's relation scans in its set's
// canonical order, a snapshot and a reopen keep that order, and a relation
// that scans out of canonical order still materializes to the canonical set.
func testCanonicalOrder(t *testing.T, f Factory) {
	st, reopen := f(t)
	in := intern.Global()

	var rows [][]intern.ID
	for i := int64(0); i < 50; i++ {
		rows = append(rows, row(i*37%50, i)) // neither value nor ID order
	}
	if err := st.Apply(storage.Batch{{Rel: "r", Arity: 2, Reset: true, Insert: rows}}); err != nil {
		t.Fatalf("Apply reset: %v", err)
	}
	wantRows(t, st, "r", rows...)

	elems := make([]value.Value, 300)
	for i := range elems {
		elems[i] = value.NewTuple(value.Int(int64(i*7%300)), value.String(fmt.Sprint("v", i%13)))
	}
	set := value.NewSet(elems...)
	if err := storage.StoreDB(st, in, map[string]value.Set{"r": set}); err != nil {
		t.Fatalf("StoreDB: %v", err)
	}
	canon, _ := storage.RowsOfSet(in, set)
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if reopen != nil {
		st = reopen()
	}
	wantRows(t, st, "r", canon...)
	r, _, _ := st.Rel("r")
	if got, err := storage.MaterializeSet(in, r, 1); err != nil || !value.Equal(got, set) {
		t.Fatalf("MaterializeSet after snapshot = %v, %v; want the stored set", got, err)
	}

	// Deleted rows re-inserted in reverse, and a row that sorts first
	// inserted last: the scan is out of canonical order, and LoadDB sorts.
	moved := canon[:10]
	del(t, st, "r", 2, moved...)
	var back [][]intern.ID
	for i := len(moved) - 1; i >= 0; i-- {
		back = append(back, moved[i])
	}
	first := value.NewTuple(value.Int(-1), value.String("a"))
	insert(t, st, "r", 2, append(back, []intern.ID{in.InternInt(-1), in.Intern(value.String("a"))})...)
	db, err := storage.LoadDB(st, in, 1)
	if want := set.Insert(first); err != nil || !value.Equal(db["r"], want) {
		t.Fatalf("LoadDB after an out-of-order batch = %v, %v; want %v", db["r"], err, want)
	}
}

func testDropRelation(t *testing.T, f Factory) {
	st, reopen := f(t)
	insert(t, st, "e", 2, row(1, 2), row(3, 4))
	insert(t, st, "keep", 1, row(9))

	// Dropping an absent relation is a no-op.
	if err := st.Apply(storage.Batch{{Rel: "ghost", Drop: true}}); err != nil {
		t.Fatalf("drop absent: %v", err)
	}

	// A Drop mutation must not carry rows or Reset.
	if err := st.Apply(storage.Batch{{Rel: "e", Drop: true, Insert: [][]intern.ID{row(5, 6)}}}); err == nil {
		t.Fatal("Drop with rows accepted")
	}
	if err := st.Apply(storage.Batch{{Rel: "e", Drop: true, Reset: true}}); err == nil {
		t.Fatal("Drop with Reset accepted")
	}
	wantRows(t, st, "e", row(1, 2), row(3, 4)) // rejected batches changed nothing

	// Drop removes the relation; others survive.
	if err := st.Apply(storage.Batch{{Rel: "e", Drop: true}}); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if _, ok, err := st.Rel("e"); ok || err != nil {
		t.Fatalf("Rel after drop: ok=%v err=%v", ok, err)
	}
	infos, err := st.Rels()
	if err != nil || len(infos) != 1 || infos[0].Name != "keep" {
		t.Fatalf("Rels after drop = %+v, %v", infos, err)
	}

	// Drop then recreate at a different arity within one atomic batch.
	if err := st.Apply(storage.Batch{
		{Rel: "keep", Drop: true},
		{Rel: "keep", Arity: 3, Insert: [][]intern.ID{row(1, 2, 3)}},
	}); err != nil {
		t.Fatalf("drop+recreate batch: %v", err)
	}
	wantRows(t, st, "keep", row(1, 2, 3))

	if reopen != nil {
		st2 := reopen()
		if _, ok, _ := st2.Rel("e"); ok {
			t.Fatal("dropped relation resurrected by reopen")
		}
		wantRows(t, st2, "keep", row(1, 2, 3))
	}
}

func testArity0(t *testing.T, f Factory) {
	st, _ := f(t)
	if err := st.Apply(storage.Batch{{Rel: "p", Arity: 0, Insert: [][]intern.ID{{}}}}); err != nil {
		t.Fatalf("insert empty row: %v", err)
	}
	r, _, _ := st.Rel("p")
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	n := 0
	if err := r.Scan(func(row []intern.ID) bool {
		if len(row) != 0 {
			t.Fatalf("arity-0 scan yielded row %v", row)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 1 {
		t.Fatalf("scan yielded %d rows, want 1", n)
	}
	if err := st.Apply(storage.Batch{{Rel: "p", Arity: 0, Delete: [][]intern.ID{{}}}}); err != nil {
		t.Fatalf("delete empty row: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", r.Len())
	}
	// Revive.
	if err := st.Apply(storage.Batch{{Rel: "p", Arity: 0, Insert: [][]intern.ID{{}}}}); err != nil {
		t.Fatalf("re-insert empty row: %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len after revive = %d, want 1", r.Len())
	}
}

func testScanEarlyStop(t *testing.T, f Factory) {
	st, _ := f(t)
	insert(t, st, "e", 1, row(1), row(2), row(3))
	r, _, _ := st.Rel("e")
	n := 0
	if err := r.Scan(func([]intern.ID) bool { n++; return n < 2 }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 2 {
		t.Fatalf("scan visited %d rows after early stop, want 2", n)
	}
}

func testReopen(t *testing.T, f Factory) {
	st, reopen := f(t)
	if reopen == nil {
		t.Skip("backend is not persistent")
	}
	want := randomRelation(t, st, "r", 2, 200, 99)
	insert(t, st, "s", 1, row(5))
	del(t, st, "s", 1, row(5))
	if err := st.Apply(storage.Batch{{Rel: "p", Arity: 0, Insert: [][]intern.ID{{}}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	st2 := reopen()
	wantRows(t, st2, "r", want...)
	wantRows(t, st2, "s")
	p, ok, err := st2.Rel("p")
	if err != nil || !ok || p.Len() != 1 {
		t.Fatalf("arity-0 relation after reopen: ok=%v err=%v", ok, err)
	}
	infos, err := st2.Rels()
	if err != nil || len(infos) != 3 {
		t.Fatalf("Rels after reopen = %+v, %v", infos, err)
	}
}
