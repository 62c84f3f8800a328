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
// objects), and the one place that encodes a value as a row — for restore
// and fact batches alike; a PUT's script parser reads its literals straight
// into rows of this encoding. The encoding is chosen per relation:
//
//   - a non-empty set whose elements are all tuples of one width k >= 2 is
//     stored relationally: arity-k rows of the tuples' element IDs (the
//     shape the grounder's EDB scans want);
//   - any other set — scalars, nested sets, 1-tuples, mixed shapes — is
//     stored as arity-1 rows holding each element's own interned ID.
//
// Both directions are exact: RowElem inverts RowsOfSet element-wise, so a
// set round-trips bit-for-bit through either backend. A fact batch keeps a
// relation's stored arity while its elements fit it (FactBatch), so an
// arity-1 relation may hold uniform tuples; RowElem decodes those exactly
// too.

// elemRow encodes one set element as a row of len(row) IDs: at arity 1 the
// element's own ID, at arity k a k-tuple's component IDs (Interner.TupleIDs).
// It reports false when the element is not a tuple of that width.
func elemRow(in *intern.Interner, row []intern.ID, v value.Value) bool {
	if len(row) == 1 {
		row[0] = in.Intern(v)
		return true
	}
	t, ok := v.(value.Tuple)
	if !ok || t.Len() != len(row) {
		return false
	}
	in.TupleIDs(row[:0], t) // fills row in place: t has len(row) components
	return true
}

// RowsOfSet encodes a relation set as ID rows, returning the rows in the
// set's canonical element order and the chosen arity.
func RowsOfSet(in *intern.Interner, s value.Set) (rows [][]intern.ID, arity int) {
	arity = 1
	if s.Len() > 0 {
		k := -1
		uniform := true
		s.Scan(func(v value.Value) bool {
			t, ok := v.(value.Tuple)
			if !ok || t.Len() < 2 || (k >= 0 && t.Len() != k) {
				uniform = false
				return false
			}
			k = t.Len()
			return true
		})
		if uniform {
			arity = k
		}
	}
	flat := make([]intern.ID, s.Len()*arity)
	rows = make([][]intern.ID, 0, s.Len())
	s.Scan(func(v value.Value) bool {
		row := flat[len(rows)*arity : (len(rows)+1)*arity : (len(rows)+1)*arity]
		elemRow(in, row, v)
		rows = append(rows, row)
		return true
	})
	return rows, arity
}

// RowElem decodes one stored row back to the set element it encodes: an
// arity-1 row's value, or the tuple of a k-ary row's component values carved
// from slab (nil: the heap). The tuple is built, never interned.
func RowElem(in *intern.Interner, row []intern.ID, slab *value.TupleSlab) value.Value {
	if len(row) == 1 {
		return in.Lookup(row[0])
	}
	var buf [8]value.Value
	parts := buf[:0]
	for _, id := range row {
		parts = append(parts, in.Lookup(id))
	}
	return slab.Tuple(parts...)
}

// materializeChunk is the fewest rows MaterializeSet hands one of several
// workers; smaller relations convert on one.
const materializeChunk = 2048

// MaterializeSet builds the value.Set a stored relation encodes: one scan
// copies its rows, and MaterializeRows converts them. A relation stored in
// its set's canonical order — StoreDB's, and a snapshot's after reopen —
// needs no sort.
func MaterializeSet(in *intern.Interner, r Relation, workers int) (value.Set, error) {
	arity := r.Arity()
	flat := make([]intern.ID, 0, r.Len()*arity)
	n := 0
	err := r.Scan(func(row []intern.ID) bool {
		flat = append(flat, row...)
		n++
		return true
	})
	if err != nil {
		return value.Set{}, err
	}
	return materialize(in, flat, n, arity, workers), nil
}

// MaterializeRows builds the value.Set that rows of arity >= 1 IDs encode,
// held back to back in flat: up to workers goroutines (workers <= 0 means
// GOMAXPROCS) convert contiguous ranges of them, each from a slab of its
// own, into one element slice in row order, which the set takes over. The
// result is canonical and deterministic regardless of worker count, and
// nothing is interned. Rows in the set's canonical order need no sort.
func MaterializeRows(in *intern.Interner, arity int, flat []intern.ID, workers int) value.Set {
	return materialize(in, flat, len(flat)/arity, arity, workers)
}

// materialize is MaterializeRows of n rows, which may be of arity 0.
func materialize(in *intern.Interner, flat []intern.ID, n, arity, workers int) value.Set {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	elems := make([]value.Value, n)
	workers = max(1, min(workers, n/materializeChunk))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var slab *value.TupleSlab
			if arity > 1 {
				slab = value.NewTupleSlab(hi-lo, (hi-lo)*arity)
			}
			for i := lo; i < hi; i++ {
				elems[i] = RowElem(in, flat[i*arity:(i+1)*arity], slab)
			}
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	return value.SetOf(elems)
}

// StoreDB replaces the store's contents with a database in one atomic
// batch: Replace with one Reset mutation per relation of db, its RowsOfSet.
func StoreDB(st Store, in *intern.Interner, db map[string]value.Set) error {
	resets := make(Batch, 0, len(db))
	for name, s := range db {
		rows, arity := RowsOfSet(in, s)
		resets = append(resets, Mutation{Rel: name, Arity: arity, Reset: true, Insert: rows})
	}
	return Replace(st, resets)
}

// Replace replaces the store's contents with the relations of resets, one
// Reset mutation each, in one atomic batch: a Drop for each stored relation
// resets lacks, then the resets in sorted name order, so the disk backend's
// log is deterministic. It sorts resets in place.
func Replace(st Store, resets Batch) error {
	infos, err := st.Rels()
	if err != nil {
		return err
	}
	keep := make(map[string]bool, len(resets))
	for _, m := range resets {
		keep[m.Rel] = true
	}
	var b Batch
	for _, info := range infos {
		if !keep[info.Name] {
			b = append(b, Mutation{Rel: info.Name, Drop: true})
		}
	}
	sort.Slice(resets, func(i, j int) bool { return resets[i].Rel < resets[j].Rel })
	return st.Apply(append(b, resets...))
}

// RowsOf returns the rows of arity >= 1 IDs that flat holds back to back,
// as a Mutation carries them: slices of flat, which they share.
func RowsOf(flat []intern.ID, arity int) [][]intern.ID {
	rows := make([][]intern.ID, len(flat)/arity)
	for i := range rows {
		rows[i] = flat[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return rows
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

// FactBatch encodes a fact batch as the store batch that brings each touched
// relation to its post-batch set. del and ins hold each touched relation's
// deleted and inserted elements (deletes apply first), and after is the
// database the batch leaves (ivm.ApplyDB's). Per relation, in sorted name
// order, it writes one of two mutations:
//
//   - in place, when the store has the relation and every inserted element
//     fits its arity: the batch's rows are deleted and inserted, O(batch).
//     A deleted element that does not fit cannot be stored, so it is skipped;
//   - a Reset to RowsOfSet(after[rel]) otherwise: a relation the store lacks,
//     or one gaining an element its arity cannot hold.
//
// Deletes from a relation neither the store nor after has write nothing.
func FactBatch(st Store, in *intern.Interner, del, ins map[string][]value.Value, after map[string]value.Set) (Batch, error) {
	names := make([]string, 0, len(del)+len(ins))
	for name := range del {
		names = append(names, name)
	}
	for name := range ins {
		if _, dup := del[name]; !dup {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b Batch
	for _, name := range names {
		r, inPlace, err := st.Rel(name)
		if err != nil {
			return nil, err
		}
		m := Mutation{Rel: name}
		if inPlace {
			m.Arity = r.Arity()
			m.Delete, _ = elemRows(in, del[name], m.Arity)
			m.Insert, inPlace = elemRows(in, ins[name], m.Arity)
		}
		if !inPlace {
			s, ok := after[name]
			if !ok {
				continue
			}
			m = Mutation{Rel: name, Reset: true}
			m.Insert, m.Arity = RowsOfSet(in, s)
		}
		b = append(b, m)
	}
	return b, nil
}

// elemRows encodes the elements that fit arity as rows, reporting whether
// all of them did.
func elemRows(in *intern.Interner, elems []value.Value, arity int) (rows [][]intern.ID, all bool) {
	flat := make([]intern.ID, len(elems)*arity)
	all = true
	for _, v := range elems {
		row := flat[:arity:arity]
		if !elemRow(in, row, v) {
			all = false
			continue
		}
		rows = append(rows, row)
		flat = flat[arity:]
	}
	return rows, all
}
