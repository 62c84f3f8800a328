package algebra

import "algrec/internal/value"

// This file recognises equi-joins. The algebra has no join operator — the
// paper builds joins from ×, σ and MAP — so every join in a translated
// program has the shape
//
//	σ_test(L × R)  with test containing conjuncts  p.1.⟨path⟩ = p.2.⟨path⟩.
//
// Materializing the full product makes that quadratic, so the join planner
// (planner.go) joins on the key paths instead and re-checks the complete test
// on each candidate pair; only the Budget.NoStreaming reference builds the
// product. EquiJoinKeys reports the key paths of a test, sidePath decomposes
// one side's path and applyPath follows a path into an element.

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
