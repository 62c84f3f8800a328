package storage_test

import (
	"fmt"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/randgen"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// TestRowsOfSetRoundTrip: RowElem inverts RowsOfSet element-wise for random
// sets — uniform tuple relations, scalar mixes, nested sets, 1-tuples.
func TestRowsOfSetRoundTrip(t *testing.T) {
	in := intern.Global()
	for seed := int64(0); seed < 8; seed++ {
		g := randgen.New(seed, randgen.Config{})
		for iter := 0; iter < 30; iter++ {
			elems := make([]value.Value, iter%7+1)
			for i := range elems {
				elems[i] = g.Value(2)
			}
			s := value.NewSet(elems...)
			rows, arity := storage.RowsOfSet(in, s)
			if len(rows) != s.Len() {
				t.Fatalf("seed %d: %d rows for set of %d", seed, len(rows), s.Len())
			}
			back := make([]value.Value, len(rows))
			for i, row := range rows {
				if len(row) != arity {
					t.Fatalf("seed %d: row width %d, arity %d", seed, len(row), arity)
				}
				back[i] = storage.RowElem(in, row, nil)
			}
			if got := value.NewSet(back...); !value.Equal(got, s) {
				t.Fatalf("seed %d: round-trip %v -> %v", seed, s, got)
			}
		}
	}
}

// TestRowsOfSetArityChoice pins the encoding rule: uniform k-tuple sets
// (k >= 2) store relationally, everything else at arity 1.
func TestRowsOfSetArityChoice(t *testing.T) {
	in := intern.Global()
	pair := func(a, b int64) value.Value { return value.NewTuple(value.Int(a), value.Int(b)) }
	for _, tc := range []struct {
		set   value.Set
		arity int
	}{
		{value.NewSet(pair(1, 2), pair(3, 4)), 2},
		{value.NewSet(pair(1, 2), value.NewTuple(value.Int(1), value.Int(2), value.Int(3))), 1}, // mixed widths
		{value.NewSet(value.Int(1), pair(1, 2)), 1},                                             // scalar mixed in
		{value.NewSet(value.NewTuple(value.Int(1))), 1},                                         // 1-tuples stay arity 1
		{value.NewSet(value.Int(1), value.Int(2)), 1},
		{value.NewSet(value.NewSet(value.Int(1))), 1}, // nested set
		{value.NewSet(), 1},
	} {
		rows, arity := storage.RowsOfSet(in, tc.set)
		if arity != tc.arity {
			t.Fatalf("set %v: arity %d, want %d", tc.set, arity, tc.arity)
		}
		if arity >= 2 {
			// Relational rows hold the tuples' element IDs directly.
			for i, row := range rows {
				el := tc.set.At(i)
				for j, id := range row {
					if want := in.Intern(el.(value.Tuple).At(j)); id != want {
						t.Fatalf("row %d col %d: %d, want %d", i, j, id, want)
					}
				}
			}
		}
	}
}

// TestStoreLoadDB round-trips a full database through both backends, then
// replaces it with a smaller one.
func TestStoreLoadDB(t *testing.T) {
	in := intern.Global()
	g := randgen.New(5, randgen.Config{})
	db := map[string]value.Set{}
	for i := 0; i < 6; i++ {
		elems := make([]value.Value, 10+i)
		for j := range elems {
			elems[j] = g.Value(2)
		}
		db[fmt.Sprintf("r%d", i)] = value.NewSet(elems...)
	}
	// A relational one and an empty one.
	pairs := make([]value.Value, 50)
	for i := range pairs {
		pairs[i] = value.NewTuple(value.Int(int64(i)), value.Int(int64(i)*2))
	}
	db["edge"] = value.NewSet(pairs...)
	db["empty"] = value.NewSet()

	check := func(t *testing.T, st storage.Store) {
		if err := storage.StoreDB(st, in, db); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := storage.LoadDB(st, in, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(db) {
				t.Fatalf("loaded %d relations, want %d", len(got), len(db))
			}
			for name, s := range db {
				if !value.Equal(got[name], s) {
					t.Fatalf("workers=%d relation %q: %v, want %v", workers, name, got[name], s)
				}
			}
		}
		// Storing a smaller database drops the relations it lacks.
		if err := storage.StoreDB(st, in, map[string]value.Set{"edge": db["edge"]}); err != nil {
			t.Fatal(err)
		}
		if infos, err := st.Rels(); err != nil || len(infos) != 1 || infos[0].Name != "edge" {
			t.Fatalf("after storing one relation: %+v, %v", infos, err)
		}
	}
	t.Run("Mem", func(t *testing.T) { check(t, storage.NewMem(nil)) })
	t.Run("Disk", func(t *testing.T) {
		st, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		check(t, st)
	})
}

// TestLoadDBInternsNoTuples: a stored fact is a row of scalar IDs, and
// loading it builds its tuple without interning it. Over stored integer
// pairs (some below the interner's own-ID range, so they are arena entries),
// a load on a private interner leaves its size as the store left it — the
// pairs' scalars and nothing more — and still gives the stored set back.
func TestLoadDBInternsNoTuples(t *testing.T) {
	in := intern.New()
	pairs := make([]value.Value, 3*2048)
	for i := range pairs {
		pairs[i] = value.NewTuple(value.Int(int64(i%1000)), value.Int(int64(i)*7919))
	}
	db := map[string]value.Set{"edge": value.NewSet(pairs...)}
	st := storage.NewMem(in)
	if err := storage.StoreDB(st, in, db); err != nil {
		t.Fatal(err)
	}
	scalars := in.Len()
	for _, workers := range []int{1, 3} {
		got, err := storage.LoadDB(st, in, workers)
		if err != nil {
			t.Fatal(err)
		}
		if n := in.Len(); n != scalars {
			t.Fatalf("workers=%d: the interner grew %d -> %d over a load of %d pairs", workers, scalars, n, len(pairs))
		}
		if !value.Equal(got["edge"], db["edge"]) {
			t.Fatalf("workers=%d: loaded %d pairs, not the %d stored", workers, got["edge"].Len(), db["edge"].Len())
		}
	}
}

// TestMaterializeSetParallel: with 1 to 4 converting workers, on both
// backends, a relation with deletes and re-inserts (so it scans out of
// canonical order) materializes to the same canonical set as a serial
// build of its elements.
func TestMaterializeSetParallel(t *testing.T) {
	in := intern.Global()
	elems := make([]value.Value, 10000)
	for i := range elems {
		elems[i] = value.NewTuple(value.Int(int64(i)), value.Int(int64(i%97)))
	}
	rows, _ := storage.RowsOfSet(in, value.NewSet(elems...))
	var gone, back [][]intern.ID
	for i := 0; i < len(rows); i += 7 {
		gone = append(gone, rows[i])
		if i%14 == 0 {
			back = append(back, rows[i])
		}
	}
	var want []value.Value
	for i, e := range elems {
		if i%7 != 0 || i%14 == 0 {
			want = append(want, e)
		}
	}
	check := func(t *testing.T, st storage.Store) {
		for _, b := range []storage.Batch{
			{{Rel: "r", Arity: 2, Reset: true, Insert: rows}},
			{{Rel: "r", Arity: 2, Delete: gone}},
			{{Rel: "r", Arity: 2, Insert: back}},
		} {
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		r, _, _ := st.Rel("r")
		for workers := 1; workers <= 4; workers++ {
			got, err := storage.MaterializeSet(in, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !value.Equal(got, value.NewSet(want...)) {
				t.Fatalf("workers=%d: materialization diverged from the serial set", workers)
			}
		}
	}
	t.Run("Mem", func(t *testing.T) { check(t, storage.NewMem(nil)) })
	t.Run("Disk", func(t *testing.T) {
		st, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		check(t, st)
	})
}

// applyFactBatch writes one fact batch through FactBatch against db, the
// store's current contents, and returns the database it leaves
// (ivm.ApplyDB's) and the batch it wrote.
func applyFactBatch(t *testing.T, st storage.Store, db algebra.DB, ins, del []datalog.Fact) (algebra.DB, storage.Batch) {
	t.Helper()
	after := ivm.ApplyDB(db, ins, del)
	b, err := storage.FactBatch(st, intern.Global(), ivm.ElemsByPred(del), ivm.ElemsByPred(ins), after)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	return after, b
}

// onBothBackends runs check against a fresh memory store and a fresh disk
// store.
func onBothBackends(t *testing.T, check func(t *testing.T, st storage.Store)) {
	t.Run("Mem", func(t *testing.T) { check(t, storage.NewMem(nil)) })
	t.Run("Disk", func(t *testing.T) {
		st, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		check(t, st)
	})
}

// TestFactBatchReshape: fact batches against a 20 000-pair relation. One
// that fits its arity — deletes, some re-inserted, present and duplicate inserts,
// a delete of a scalar that cannot be stored — is written in place; one
// that adds a scalar and a triple resets the relation to arity 1; one that
// creates a relation resets it at its own arity. After each, LoadDB equals
// ivm.ApplyDB's database.
func TestFactBatchReshape(t *testing.T) {
	in := intern.Global()
	fact := func(args ...int) datalog.Fact {
		f := datalog.Fact{Pred: "r"}
		for _, a := range args {
			f.Args = append(f.Args, value.Int(int64(a)))
		}
		return f
	}
	pairs := make([]value.Value, 20000)
	for i := range pairs {
		pairs[i] = value.Pair(value.Int(int64(i)), value.Int(int64(-i)))
	}
	var ins, del []datalog.Fact
	for i := 0; i < 20000; i += 4 {
		del = append(del, fact(i, -i))
	}
	del = append(del, fact(7))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			if i%8 == 0 {
				ins = append(ins, fact(i, -i)) // deleted above, re-inserted
			}
		case 1:
			ins = append(ins, fact(20000+i, 0)) // new
		case 2:
			ins = append(ins, fact(i, -i)) // present
		default:
			ins = append(ins, fact(20000+i-2, 0)) // a duplicate of a new one
		}
	}
	reshape := []datalog.Fact{fact(1), fact(1, 2, 3)}
	fresh := []datalog.Fact{{Pred: "s", Args: []value.Value{value.Int(1), value.Int(2)}}}

	onBothBackends(t, func(t *testing.T, st storage.Store) {
		db := algebra.DB{"r": value.NewSet(pairs...)}
		if err := storage.StoreDB(st, in, db); err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			ins, del []datalog.Fact
			arity    int
			reset    bool
		}{
			{ins, del, 2, false},
			{reshape, del[:100], 1, true},
			{fresh, nil, 2, true},
		} {
			var b storage.Batch
			db, b = applyFactBatch(t, st, db, step.ins, step.del)
			m := b[len(b)-1]
			if m.Arity != step.arity || m.Reset != step.reset {
				t.Fatalf("%s: arity %d reset %v, want %d %v", m.Rel, m.Arity, m.Reset, step.arity, step.reset)
			}
			got, err := storage.LoadDB(st, in, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(db) {
				t.Fatalf("loaded %d relations, want %d", len(got), len(db))
			}
			for name, s := range db {
				if !value.Equal(got[name], s) {
					t.Fatalf("relation %q: %d elements loaded, ivm.ApplyDB has %d", name, got[name].Len(), s.Len())
				}
			}
		}
	})
}

// TestFactBatchInternsScalarsOnly: a fact batch of fresh pairs, written in
// place into a stored pair relation and as a Reset of a new one, grows the
// process-global interner by exactly the batch's new scalars — never by the
// pairs themselves.
func TestFactBatchInternsScalarsOnly(t *testing.T) {
	in := intern.Global()
	onBothBackends(t, func(t *testing.T, st storage.Store) {
		db := algebra.DB{"e": value.NewSet(value.Pair(value.Int(1), value.Int(2)))}
		if err := storage.StoreDB(st, in, db); err != nil {
			t.Fatal(err)
		}
		for _, pred := range []string{"e", "fresh"} {
			base := in.Len()
			var ins []datalog.Fact
			for i := 0; i < 100; i++ {
				ins = append(ins, datalog.Fact{Pred: pred, Args: []value.Value{
					value.String(fmt.Sprintf("a%d-%d", base, i)), value.String(fmt.Sprintf("b%d-%d", base, i)),
				}})
			}
			db, _ = applyFactBatch(t, st, db, ins, nil)
			if grew := in.Len() - base; grew != 2*len(ins) {
				t.Fatalf("%s: the interner grew by %d IDs for %d new scalars", pred, grew, 2*len(ins))
			}
		}
	})
}
