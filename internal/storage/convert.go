package storage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file is the bridge between the stored representation (fixed-arity ID
// rows) and the engines' representation (value.Set relations of complex
// objects). The encoding is chosen per relation:
//
//   - a non-empty set whose elements are all tuples of one width k >= 2 is
//     stored relationally: arity-k rows of the tuples' element IDs (the
//     shape the grounder's EDB scans want);
//   - any other set — scalars, nested sets, 1-tuples, mixed shapes — is
//     stored as arity-1 rows holding each element's own interned ID.
//
// Both directions are exact: RowElem inverts RowsOfSet element-wise, so a
// set round-trips bit-for-bit through either backend.

// RowsOfSet encodes a relation set as ID rows, returning the rows in the
// set's canonical element order and the chosen arity.
func RowsOfSet(in *intern.Interner, s value.Set) (rows [][]intern.ID, arity int) {
	arity = 1
	if s.Len() > 0 {
		k := -1
		uniform := true
		for i := 0; i < s.Len(); i++ {
			t, ok := s.At(i).(value.Tuple)
			if !ok || t.Len() < 2 || (k >= 0 && t.Len() != k) {
				uniform = false
				break
			}
			k = t.Len()
		}
		if uniform {
			arity = k
		}
	}
	flat := make([]intern.ID, s.Len()*arity)
	rows = make([][]intern.ID, s.Len())
	for i := range rows {
		row := flat[i*arity : (i+1)*arity : (i+1)*arity]
		id := in.Intern(s.At(i))
		if arity == 1 {
			row[0] = id
		} else {
			copy(row, in.Elems(id))
		}
		rows[i] = row
	}
	return rows, arity
}

// RowElem decodes one stored row back to the set element it encodes.
func RowElem(in *intern.Interner, row []intern.ID, arity int) value.Value {
	switch arity {
	case 0:
		return value.NewTuple()
	case 1:
		return in.Lookup(row[0])
	default:
		return in.Lookup(in.InternTuple(row...))
	}
}

// materializeChunk is the fewest rows MaterializeSet hands one of several
// workers; smaller relations convert on one.
const materializeChunk = 2048

// MaterializeSet builds the value.Set a stored relation encodes. One scan
// copies the rows; then up to workers goroutines (workers <= 0 means
// GOMAXPROCS) convert contiguous ranges of them into one element slice, which
// stays in scan order. A relation stored in its set's canonical order —
// StoreDB's, and a snapshot's after reopen — therefore needs no sort. The
// result is canonical and deterministic regardless of worker count.
func MaterializeSet(in *intern.Interner, r Relation, workers int) (value.Set, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		arity, n int
		flat     []intern.ID
	)
	err := r.Scan(func(row []intern.ID) bool {
		arity = len(row)
		flat = append(flat, row...)
		n++
		return true
	})
	if err != nil {
		return value.Set{}, err
	}
	elems := make([]value.Value, n)
	convert := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			elems[i] = RowElem(in, flat[i*arity:(i+1)*arity], arity)
		}
	}
	workers = max(1, min(workers, n/materializeChunk))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			convert(lo, hi)
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	return value.NewSet(elems...), nil
}

// StoreDB bulk-loads a database into the store: one Reset mutation per
// relation, applied as a single atomic batch, in sorted name order so the
// disk backend's log is deterministic.
func StoreDB(st Store, in *intern.Interner, db map[string]value.Set) error {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	b := make(Batch, 0, len(names))
	for _, name := range names {
		rows, arity := RowsOfSet(in, db[name])
		b = append(b, Mutation{Rel: name, Arity: arity, Reset: true, Insert: rows})
	}
	return st.Apply(b)
}

// LoadDB materializes every relation of the store (MaterializeSet with up
// to workers converting goroutines per relation) into a database map.
func LoadDB(st Store, in *intern.Interner, workers int) (map[string]value.Set, error) {
	infos, err := st.Rels()
	if err != nil {
		return nil, err
	}
	db := make(map[string]value.Set, len(infos))
	for _, info := range infos {
		r, ok, err := st.Rel(info.Name)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("storage: relation %q vanished during load", info.Name)
		}
		s, err := MaterializeSet(in, r, workers)
		if err != nil {
			return nil, err
		}
		db[info.Name] = s
	}
	return db, nil
}

// RearityBatch rebuilds the mutations that failed with ErrArityMismatch so
// they apply against the store's current shape: the existing relation is
// re-read, the mutation's rows are re-encoded element-wise, and the whole
// relation is replaced (Reset) in the heterogeneous arity-1 encoding. This
// is the server's fallback when a fact batch changes a relation's shape
// (e.g. inserting a 3-ary fact into a relation of pairs).
func RearityBatch(st Store, in *intern.Interner, b Batch) (Batch, error) {
	out := make(Batch, 0, len(b))
	for _, m := range b {
		r, ok, err := st.Rel(m.Rel)
		if err != nil {
			return nil, err
		}
		if !ok || m.Reset {
			out = append(out, m)
			continue
		}
		cur, _, err2 := relShape(r)
		if err2 != nil {
			return nil, err2
		}
		if r.Arity() == m.Arity {
			out = append(out, m)
			continue
		}
		// Re-encode: current elements minus deletes plus inserts, arity 1.
		have := map[intern.ID]bool{}
		order := []intern.ID{}
		add := func(id intern.ID) {
			if !have[id] {
				have[id] = true
				order = append(order, id)
			}
		}
		for _, row := range cur {
			add(elemID(in, row, r.Arity()))
		}
		for _, row := range m.Delete {
			id := elemID(in, row, m.Arity)
			if have[id] {
				have[id] = false
			}
		}
		for _, row := range m.Insert {
			id := elemID(in, row, m.Arity)
			if live, seen := have[id]; !live {
				// A key in have is already in order: a deleted element
				// re-inserted keeps its place.
				if !seen {
					order = append(order, id)
				}
				have[id] = true
			}
		}
		rm := Mutation{Rel: m.Rel, Arity: 1, Reset: true}
		for _, id := range order {
			if have[id] {
				rm.Insert = append(rm.Insert, []intern.ID{id})
			}
		}
		out = append(out, rm)
	}
	return out, nil
}

// relShape reads a relation's rows and arity.
func relShape(r Relation) ([][]intern.ID, int, error) {
	arity := r.Arity()
	var rows [][]intern.ID
	err := r.Scan(func(row []intern.ID) bool {
		cp := make([]intern.ID, len(row))
		copy(cp, row)
		rows = append(rows, cp)
		return true
	})
	return rows, arity, err
}

// elemID interns the element a row encodes.
func elemID(in *intern.Interner, row []intern.ID, arity int) intern.ID {
	switch arity {
	case 1:
		return row[0]
	default:
		return in.InternTuple(row...)
	}
}
