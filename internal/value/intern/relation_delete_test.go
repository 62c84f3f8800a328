package intern

import (
	"fmt"
	"math/rand"
	"testing"
)

func irow(xs ...int) []ID {
	ids := make([]ID, len(xs))
	for i, x := range xs {
		ids[i] = ID(x + 1) // any nonzero IDs; the relation never dereferences them
	}
	return ids
}

func scanRows(r *Relation) [][]ID {
	var out [][]ID
	r.Scan(func(_ int32, row []ID) bool {
		cp := make([]ID, len(row))
		copy(cp, row)
		out = append(out, cp)
		return true
	})
	return out
}

func TestRelationDeleteBasics(t *testing.T) {
	r := NewRelation(2)
	r.Insert(irow(1, 2))
	r.Insert(irow(3, 4))
	r.Insert(irow(5, 6))

	if idx, removed := r.Delete(irow(3, 4)); !removed || idx != 1 {
		t.Fatalf("Delete = (%d, %v)", idx, removed)
	}
	if _, removed := r.Delete(irow(3, 4)); removed {
		t.Fatal("double delete reported removal")
	}
	if _, removed := r.Delete(irow(9, 9)); removed {
		t.Fatal("deleting an absent row reported removal")
	}
	if has(r, irow(3, 4)) {
		t.Fatal("deleted row still present")
	}
	if !has(r, irow(1, 2)) || !has(r, irow(5, 6)) {
		t.Fatal("surviving rows lost")
	}
	if r.Len() != 3 || r.LiveLen() != 2 {
		t.Fatalf("Len=%d LiveLen=%d, want 3/2", r.Len(), r.LiveLen())
	}
	if r.Live(1) || !r.Live(0) || !r.Live(2) {
		t.Fatal("Live bits wrong")
	}
	got := scanRows(r)
	if len(got) != 2 || got[0][0] != irow(1)[0] || got[1][0] != irow(5)[0] {
		t.Fatalf("scan after delete = %v", got)
	}

	// Re-insert appends anew: fresh index, latest scan position.
	idx, added := r.Insert(irow(3, 4))
	if !added || idx != 3 {
		t.Fatalf("re-insert = (%d, %v), want (3, true)", idx, added)
	}
	if r.Len() != 4 || r.LiveLen() != 3 {
		t.Fatalf("after revive Len=%d LiveLen=%d", r.Len(), r.LiveLen())
	}
	got = scanRows(r)
	if len(got) != 3 || got[2][0] != irow(3)[0] {
		t.Fatalf("scan after re-insert = %v", got)
	}
}

func TestRelationDeleteArity0(t *testing.T) {
	r := NewRelation(0)
	if _, removed := r.Delete(nil); removed {
		t.Fatal("delete on empty propositional relation")
	}
	if _, added := r.Insert(nil); !added {
		t.Fatal("insert empty row")
	}
	if _, added := r.Insert(nil); added {
		t.Fatal("double insert of empty row")
	}
	if _, removed := r.Delete(nil); !removed {
		t.Fatal("delete of present empty row")
	}
	if r.LiveLen() != 0 || has(r, nil) {
		t.Fatal("propositional delete did not empty the relation")
	}
	// Revive after delete: the tombstone bit must clear.
	if _, added := r.Insert(nil); !added {
		t.Fatal("revive empty row")
	}
	if r.LiveLen() != 1 || !r.Live(0) || !has(r, nil) {
		t.Fatal("revived propositional row not live")
	}
	if n := len(scanRows(r)); n != 1 {
		t.Fatalf("scan yielded %d rows, want 1", n)
	}
}

// TestRelationDeleteTombstoneReuse drives inserts through slot tombstones:
// deleting then inserting different rows must reuse table slots without ever
// losing a row or resurrecting a deleted one.
func TestRelationDeleteTombstoneReuse(t *testing.T) {
	r := NewRelation(1)
	for i := 0; i < 100; i++ {
		r.Insert(irow(i))
	}
	for i := 0; i < 100; i += 2 {
		r.Delete(irow(i))
	}
	// New keys that will probe across the tombstoned slots.
	for i := 100; i < 200; i++ {
		r.Insert(irow(i))
	}
	for i := 0; i < 200; i++ {
		want := i >= 100 || i%2 == 1
		if has(r, irow(i)) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, !want, want)
		}
	}
	if r.LiveLen() != 150 {
		t.Fatalf("LiveLen = %d, want 150", r.LiveLen())
	}
}

// TestRelationDeleteModel compares random insert/delete/refill churn against
// a model of the rows by index, at arity 2 and at arity 0, including growth
// with many tombstones: Refill puts a row into a deleted index, Insert
// appends one (at arity 0 it revives index 0), and after every few steps
// Find, Live, Len, LiveLen and Scan must agree with the model.
func TestRelationDeleteModel(t *testing.T) {
	for _, arity := range []int{2, 0} {
		rng := rand.New(rand.NewSource(21))
		r := NewRelation(arity)
		var rows [][]ID // by row index
		var dead []bool
		index := map[string]int32{} // the live rows' indices, by content
		for step := 0; step < 5000; step++ {
			row := make([]ID, arity)
			for k := range row {
				row[k] = ID(rng.Intn(60) + 1)
			}
			key := fmt.Sprint(row)
			want, present := index[key]
			var free []int32
			for i, d := range dead {
				if d {
					free = append(free, int32(i))
				}
			}
			switch op := rng.Intn(3); {
			case op == 0:
				i, removed := r.Delete(row)
				if removed != present || present && i != want {
					t.Fatalf("arity %d step %d: Delete(%v) = (%d, %v), model (%d, %v)", arity, step, row, i, removed, want, present)
				}
				if present {
					delete(index, key)
					dead[i] = true
				}
			case op == 1 && len(free) > 0:
				at := free[rng.Intn(len(free))]
				i, added := r.Refill(at, row)
				if added == present || present && i != want || !present && i != at {
					t.Fatalf("arity %d step %d: Refill(%d, %v) = (%d, %v), model has %v at %d", arity, step, at, row, i, added, present, want)
				}
				if added {
					rows[i], dead[i], index[key] = row, false, i
				}
			default:
				at := int32(len(rows))
				if arity == 0 && len(rows) > 0 {
					at = 0
				}
				i, added := r.Insert(row)
				if added == present || present && i != want || !present && i != at {
					t.Fatalf("arity %d step %d: Insert(%v) = (%d, %v), model has %v at %d", arity, step, row, i, added, present, want)
				}
				if added && int(i) == len(rows) {
					rows, dead = append(rows, nil), append(dead, false)
				}
				if added {
					rows[i], dead[i], index[key] = row, false, i
				}
			}
			if step%250 == 0 || step == 4999 {
				checkModel(t, r, rows, dead, index)
			}
		}
	}
}

// checkModel compares r with a model of its rows by index.
func checkModel(t *testing.T, r *Relation, rows [][]ID, dead []bool, index map[string]int32) {
	t.Helper()
	if r.Len() != len(rows) || r.LiveLen() != len(index) {
		t.Fatalf("Len, LiveLen = %d, %d, model %d, %d", r.Len(), r.LiveLen(), len(rows), len(index))
	}
	var want [][]ID
	for i, row := range rows {
		if r.Live(int32(i)) == dead[i] {
			t.Fatalf("Live(%d) = %v, model dead %v", i, !dead[i], dead[i])
		}
		if !dead[i] {
			want = append(want, row)
			if j, ok := r.Find(row); !ok || j != int32(i) {
				t.Fatalf("Find(%v) = (%d, %v), model %d", row, j, ok, i)
			}
		} else if _, live := index[fmt.Sprint(row)]; !live && has(r, row) {
			t.Fatalf("deleted row %v still found", row)
		}
	}
	if got := scanRows(r); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan %v, model %v", got, want)
	}
}

// TestRelationHashBoundedUnderChurn deletes and inserts distinct rows at a
// constant live size, as a sliding window of writes does to a stored
// relation: the hash must clear the tombstones the deletes leave in place,
// so it stays within a constant factor of the live rows, not of the history.
func TestRelationHashBoundedUnderChurn(t *testing.T) {
	const live, pairs = 1000, 200_000
	r := NewRelation(2)
	for i := 0; i < live; i++ {
		r.Insert(irow(i, i))
	}
	for i := live; i < live+pairs; i++ {
		r.Delete(irow(i-live, i-live))
		r.Insert(irow(i, i))
	}
	if r.LiveLen() != live || !has(r, irow(live+pairs-1, live+pairs-1)) || has(r, irow(pairs-1, pairs-1)) {
		t.Fatalf("LiveLen = %d after churn, want %d and the last window", r.LiveLen(), live)
	}
	if n := len(r.table); n > 4*live {
		t.Fatalf("a hash of %d slots for %d live rows after %d delete/insert pairs", n, live, pairs)
	}
}

// has reports whether row is present in r.
func has(r *Relation, row []ID) bool {
	_, ok := r.Find(row)
	return ok
}
