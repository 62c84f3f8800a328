package intern

import (
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
	r.Scan(func(_ int, row []ID) bool {
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

// TestRelationDeleteModel compares random insert/delete churn against a
// map+order model, including growth with many tombstones.
func TestRelationDeleteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := NewRelation(2)
	type key [2]ID
	present := map[key]bool{}
	var order []key
	for step := 0; step < 5000; step++ {
		row := irow(rng.Intn(60), rng.Intn(60))
		k := key{row[0], row[1]}
		if rng.Intn(3) == 0 {
			_, removed := r.Delete(row)
			if removed != present[k] {
				t.Fatalf("step %d: Delete(%v) = %v, model %v", step, row, removed, present[k])
			}
			if present[k] {
				delete(present, k)
				for i, o := range order {
					if o == k {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		} else {
			_, added := r.Insert(row)
			if added == present[k] {
				t.Fatalf("step %d: Insert(%v) = %v, model has %v", step, row, added, present[k])
			}
			if !present[k] {
				present[k] = true
				order = append(order, k)
			}
		}
	}
	if r.LiveLen() != len(present) {
		t.Fatalf("LiveLen = %d, model %d", r.LiveLen(), len(present))
	}
	got := scanRows(r)
	if len(got) != len(order) {
		t.Fatalf("scan %d rows, model %d", len(got), len(order))
	}
	for i, k := range order {
		if got[i][0] != k[0] || got[i][1] != k[1] {
			t.Fatalf("scan order at %d: %v, model %v", i, got[i], k)
		}
	}
	for k := range present {
		if !has(r, []ID{k[0], k[1]}) {
			t.Fatalf("model row %v missing", k)
		}
	}
	// Find agrees with Has and reports live indices only.
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			row := []ID{ID(i + 1), ID(j + 1)}
			idx, ok := r.Find(row)
			if ok != present[key{row[0], row[1]}] {
				t.Fatalf("Find(%v) = %v", row, ok)
			}
			if ok && !r.Live(idx) {
				t.Fatalf("Find returned dead index %d for %v", idx, row)
			}
		}
	}
}

// has reports whether row is present in r.
func has(r *Relation, row []ID) bool {
	_, ok := r.Find(row)
	return ok
}
