package algebra

import (
	"fmt"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// This file implements a hash equi-join fast path. The algebra has no join
// operator — the paper builds joins from ×, σ and MAP — so every join in a
// translated program has the shape
//
//	σ_test(L × R)  with test containing conjuncts  p.1.⟨path⟩ = p.2.⟨path⟩.
//
// Materializing the full product makes that quadratic. When the shape is
// detected, the evaluators instead hash R on its key paths and probe with
// L's key paths, re-checking the *complete* original test on each candidate
// pair, so results are identical to the naive evaluation. If any key path
// fails to apply to an element (a kind or arity mismatch the naive product
// would have surfaced as an error inside the test), the caller falls back
// to the naive path, so error behaviour is preserved too.
//
// Budget.NoHashJoin disables the fast path; the A3 ablation benchmark
// measures the difference.

// KeyPath is a sequence of 1-based tuple projections applied to one side of
// a product element.
type KeyPath []int

// EquiJoinKeys inspects a selection test over product elements (bound to
// var v) and extracts equi-join key paths: conjuncts of the form
// side1-path = side2-path. It returns ok=false when no such conjunct exists.
func EquiJoinKeys(v string, test FExpr) (lks, rks []KeyPath, ok bool) {
	for _, a := range conjuncts(test) {
		cmp, isCmp := a.(FCmp)
		if !isCmp || cmp.Op != OpEq {
			continue
		}
		ls, lp, lok := sidePath(cmp.L, v)
		rs, rp, rok := sidePath(cmp.R, v)
		if !lok || !rok {
			continue
		}
		switch {
		case ls == 1 && rs == 2:
			lks = append(lks, lp)
			rks = append(rks, rp)
		case ls == 2 && rs == 1:
			lks = append(lks, rp)
			rks = append(rks, lp)
		}
	}
	return lks, rks, len(lks) > 0
}

// sidePath decomposes a field-projection chain rooted at the product
// element variable: p.side.i1.i2...  →  (side, [i1, i2, ...], true).
func sidePath(e FExpr, v string) (side int, path KeyPath, ok bool) {
	var rev []int
	for {
		switch ee := e.(type) {
		case FField:
			rev = append(rev, ee.Idx)
			e = ee.Of
		case FVar:
			if ee.Name != v || len(rev) == 0 {
				return 0, nil, false
			}
			side = rev[len(rev)-1]
			if side != 1 && side != 2 {
				return 0, nil, false
			}
			path = make(KeyPath, 0, len(rev)-1)
			for i := len(rev) - 2; i >= 0; i-- {
				path = append(path, rev[i])
			}
			return side, path, true
		default:
			return 0, nil, false
		}
	}
}

// applyPath projects a value along the path; ok=false on a kind or range
// mismatch.
func applyPath(val value.Value, path KeyPath) (value.Value, bool) {
	for _, idx := range path {
		t, isTuple := val.(value.Tuple)
		if !isTuple || idx < 1 || idx > t.Len() {
			return nil, false
		}
		val = t.At(idx - 1)
	}
	return val, true
}

// HashJoin evaluates σ_test(l × r) by hashing r on rks and probing with
// lks, re-checking the complete test on every candidate pair. It returns
// ok=false (and no error) when a key path fails to apply, signalling the
// caller to fall back to the naive product.
//
// With interning enabled the index is keyed by the hash-consed ID of each
// key projection (integer map operations, no key string is ever built);
// otherwise by the canonical string encoding. Both give the same buckets —
// IDs are canonical and the encoding is injective — and the complete test is
// re-checked either way, so results are bit-for-bit identical.
func HashJoin(l, r value.Set, v string, test FExpr, lks, rks []KeyPath, maxSize int) (value.Set, bool, error) {
	if value.InterningEnabled() {
		return hashJoinID(l, r, v, test, lks, rks, maxSize)
	}
	index := make(map[string][]value.Value, r.Len())
	for i := 0; i < r.Len(); i++ {
		re := r.At(i)
		key, ok := joinKey(re, rks)
		if !ok {
			return value.Set{}, false, nil
		}
		index[key] = append(index[key], re)
	}
	var out []value.Value
	for i := 0; i < l.Len(); i++ {
		le := l.At(i)
		key, ok := joinKey(le, lks)
		if !ok {
			return value.Set{}, false, nil
		}
		for _, re := range index[key] {
			pair := value.Pair(le, re)
			keep, err := EvalTest(test, FEnv{v: pair})
			if err != nil {
				return value.Set{}, false, err
			}
			if keep {
				out = append(out, pair)
				if len(out) > maxSize {
					return value.Set{}, false, fmt.Errorf("%w: join result exceeds MaxSetSize %d", ErrBudget, maxSize)
				}
			}
		}
	}
	return value.NewSet(out...), true, nil
}

// hashJoinID is HashJoin's interned fast path: ID-keyed index, same shape.
func hashJoinID(l, r value.Set, v string, test FExpr, lks, rks []KeyPath, maxSize int) (value.Set, bool, error) {
	in := intern.Global()
	index := make(map[intern.ID][]value.Value, r.Len())
	var buf []intern.ID
	for i := 0; i < r.Len(); i++ {
		re := r.At(i)
		key, ok := joinKeyID(in, re, rks, &buf)
		if !ok {
			return value.Set{}, false, nil
		}
		index[key] = append(index[key], re)
	}
	var out []value.Value
	for i := 0; i < l.Len(); i++ {
		le := l.At(i)
		key, ok := joinKeyID(in, le, lks, &buf)
		if !ok {
			return value.Set{}, false, nil
		}
		for _, re := range index[key] {
			pair := value.Pair(le, re)
			keep, err := EvalTest(test, FEnv{v: pair})
			if err != nil {
				return value.Set{}, false, err
			}
			if keep {
				out = append(out, pair)
				if len(out) > maxSize {
					return value.Set{}, false, fmt.Errorf("%w: join result exceeds MaxSetSize %d", ErrBudget, maxSize)
				}
			}
		}
	}
	return value.NewSet(out...), true, nil
}

// joinKey builds the composite key string for an element.
func joinKey(e value.Value, paths []KeyPath) (string, bool) {
	if len(paths) == 1 {
		v, ok := applyPath(e, paths[0])
		if !ok {
			return "", false
		}
		return v.String(), true
	}
	parts := make([]value.Value, len(paths))
	for i, p := range paths {
		v, ok := applyPath(e, p)
		if !ok {
			return "", false
		}
		parts[i] = v
	}
	return value.NewTuple(parts...).String(), true
}

// joinKeyID conses an element's composite key to its canonical ID. buf is
// scratch reused across calls (InternTuple copies what it keeps).
func joinKeyID(in *intern.Interner, e value.Value, paths []KeyPath, buf *[]intern.ID) (intern.ID, bool) {
	if len(paths) == 1 {
		v, ok := applyPath(e, paths[0])
		if !ok {
			return 0, false
		}
		return in.Intern(v), true
	}
	ids := (*buf)[:0]
	for _, p := range paths {
		v, ok := applyPath(e, p)
		if !ok {
			*buf = ids
			return 0, false
		}
		ids = append(ids, in.Intern(v))
	}
	*buf = ids
	return in.InternTuple(ids...), true
}
