package storage_test

import (
	"fmt"
	"testing"

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
				back[i] = storage.RowElem(in, row, arity)
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

// TestStoreLoadDB round-trips a full database through both backends.
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

// TestRearityBatch: the server fallback turns an arity-changing fact
// mutation into a Reset re-encoding at arity 1 with the same element-level
// outcome.
func TestRearityBatch(t *testing.T) {
	in := intern.Global()
	st := storage.NewMem(nil)
	pair := func(a, b int64) value.Value { return value.NewTuple(value.Int(a), value.Int(b)) }
	if err := storage.StoreDB(st, in, map[string]value.Set{
		"e": value.NewSet(pair(1, 2), pair(3, 4)),
	}); err != nil {
		t.Fatal(err)
	}
	// Insert a triple into the pair relation: direct apply must fail, the
	// re-aritied batch must succeed.
	triple := in.Intern(value.NewTuple(value.Int(5), value.Int(6), value.Int(7)))
	bad := storage.Batch{{Rel: "e", Arity: 3, Insert: [][]intern.ID{in.Elems(triple)}}}
	if err := st.Apply(bad); err == nil {
		t.Fatal("arity-changing batch applied directly")
	}
	fixed, err := storage.RearityBatch(st, in, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(fixed); err != nil {
		t.Fatal(err)
	}
	r, _, _ := st.Rel("e")
	got, err := storage.MaterializeSet(in, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(pair(1, 2), pair(3, 4), value.NewTuple(value.Int(5), value.Int(6), value.Int(7)))
	if !value.Equal(got, want) {
		t.Fatalf("after re-arity: %v, want %v", got, want)
	}
}

// TestRearityBatchLarge reshapes a 20 000-element heterogeneous relation with
// a 20 000-row pair batch — deletes, re-inserts of deleted elements, inserts
// of present ones, new elements and duplicates — and checks the re-encoded
// rows, element for element and in order, against a map-based reference:
// present elements keep their place, a deleted element re-inserted keeps its
// old place, and new elements follow in batch order.
func TestRearityBatchLarge(t *testing.T) {
	in := intern.Global()
	pair := func(a, b int) []intern.ID { return []intern.ID{in.InternInt(int64(a)), in.InternInt(int64(b))} }
	var cur [][]intern.ID
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			cur = append(cur, []intern.ID{in.InternTuple(pair(i, -i)...)})
		} else {
			cur = append(cur, []intern.ID{in.InternInt(int64(-i))})
		}
	}
	st := storage.NewMem(nil)
	if err := st.Apply(storage.Batch{{Rel: "r", Arity: 1, Insert: cur}}); err != nil {
		t.Fatal(err)
	}
	m := storage.Mutation{Rel: "r", Arity: 2}
	for i := 0; i < 20000; i += 4 {
		m.Delete = append(m.Delete, pair(i, -i))
	}
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			m.Insert = append(m.Insert, pair(i, -i)) // deleted above, re-inserted
		case 1:
			m.Insert = append(m.Insert, pair(20000+i, 0)) // new
		case 2:
			m.Insert = append(m.Insert, pair(i, -i)) // present
		default:
			m.Insert = append(m.Insert, pair(20000+i-2, 0)) // a duplicate of a new one
		}
	}

	var order []intern.ID
	live := map[intern.ID]bool{}
	for _, row := range cur {
		order = append(order, row[0])
		live[row[0]] = true
	}
	for _, row := range m.Delete {
		if id := in.InternTuple(row...); live[id] {
			live[id] = false
		}
	}
	for _, row := range m.Insert {
		id := in.InternTuple(row...)
		if _, known := live[id]; !known {
			order = append(order, id)
		}
		live[id] = true
	}
	var want [][]intern.ID
	for _, id := range order {
		if live[id] {
			want = append(want, []intern.ID{id})
		}
	}

	out, err := storage.RearityBatch(st, in, storage.Batch{m})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Arity != 1 || !out[0].Reset {
		t.Fatalf("re-arity batch = %d mutations, first %+v", len(out), out[0].Rel)
	}
	got := out[0].Insert
	if len(got) != len(want) {
		t.Fatalf("re-encoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("row %d: %v, want %v", i, in.Lookup(got[i][0]), in.Lookup(want[i][0]))
		}
	}
}
