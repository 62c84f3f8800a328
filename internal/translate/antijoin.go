package translate

import (
	"algrec/internal/algebra"
	"algrec/internal/builtin"
)

// antiJoinElemVar is the element-variable name used in the reconstructed row
// expression of a recognized anti-join.
const antiJoinElemVar = "__aj"

// antiJoin is the decomposition of the Flip-annotated anti-join shape
//
//	Diff(L, Map(Select(Product(Flip(L), Q), v, test), v2, v2.1))
//
// where test equates every column of Q's rows with an expression over the
// environment element. env and q are the operands; row rebuilds the Q-row
// value from the environment element (bound to antiJoinElemVar).
type antiJoin struct {
	env algebra.Expr
	q   algebra.Expr
	row algebra.FExpr
}

// antiJoinParts recognizes the anti-join shape. It is deliberately strict:
// anything that deviates falls back to the generic Diff translation, which
// is always sound.
func antiJoinParts(d algebra.Diff) (antiJoin, bool) {
	m, ok := d.R.(algebra.Map)
	if !ok {
		return antiJoin{}, false
	}
	// Out must be the first projection of the map variable.
	proj, ok := m.Out.(algebra.FField)
	if !ok || proj.Idx != 1 {
		return antiJoin{}, false
	}
	if v, ok := proj.Of.(algebra.FVar); !ok || v.Name != m.Var {
		return antiJoin{}, false
	}
	sel, ok := m.Of.(algebra.Select)
	if !ok || sel.Var != m.Var {
		return antiJoin{}, false
	}
	prod, ok := sel.Of.(algebra.Product)
	if !ok {
		return antiJoin{}, false
	}
	fl, ok := prod.L.(algebra.Flip)
	if !ok || fl.E.String() != d.L.String() {
		return antiJoin{}, false
	}
	row, ok := reconstructRow(sel.Var, sel.Test)
	if !ok {
		return antiJoin{}, false
	}
	return antiJoin{env: d.L, q: prod.R, row: row}, true
}

// reconstructRow inverts the selection test: when every conjunct equates a
// distinct row column p.2[.i] with an environment expression (over p.1), the
// full row value is expressible as a function of the environment element.
func reconstructRow(v string, test algebra.FExpr) (algebra.FExpr, bool) {
	var conds []algebra.FCmp
	var flatten func(e algebra.FExpr) bool
	flatten = func(e algebra.FExpr) bool {
		if and, isAnd := e.(algebra.FAnd); isAnd {
			return flatten(and.L) && flatten(and.R)
		}
		cmp, isCmp := e.(algebra.FCmp)
		if !isCmp || cmp.Op != builtin.Eq {
			return false
		}
		conds = append(conds, cmp)
		return true
	}
	if !flatten(test) {
		return nil, false
	}
	byCol := map[int]algebra.FExpr{} // 0 = whole row; i>0 = column i
	for _, c := range conds {
		rowSide, envSide := c.L, c.R
		col, ok := rowColumn(rowSide, v)
		if !ok {
			rowSide, envSide = c.R, c.L
			col, ok = rowColumn(rowSide, v)
			if !ok {
				return nil, false
			}
		}
		envExpr, ok := rebaseEnvExpr(envSide, v)
		if !ok {
			return nil, false
		}
		if _, dup := byCol[col]; dup {
			return nil, false
		}
		byCol[col] = envExpr
	}
	if whole, ok := byCol[0]; ok {
		if len(byCol) != 1 {
			return nil, false
		}
		return whole, true
	}
	// Columns must be exactly 1..k.
	elems := make([]algebra.FExpr, len(byCol))
	for i := 1; i <= len(byCol); i++ {
		e, ok := byCol[i]
		if !ok {
			return nil, false
		}
		elems[i-1] = e
	}
	return algebra.FTuple{Elems: elems}, true
}

// rowColumn recognizes p.2 (the whole row, column 0) or p.2.i (column i).
func rowColumn(e algebra.FExpr, v string) (int, bool) {
	f, ok := e.(algebra.FField)
	if !ok {
		return 0, false
	}
	if inner, ok := f.Of.(algebra.FVar); ok {
		if inner.Name == v && f.Idx == 2 {
			return 0, true
		}
		return 0, false
	}
	if inner, ok := f.Of.(algebra.FField); ok {
		if base, ok := inner.Of.(algebra.FVar); ok && base.Name == v && inner.Idx == 2 {
			return f.Idx, true
		}
	}
	return 0, false
}

// rebaseEnvExpr rewrites an expression over the product element's first
// component (p.1...) into an expression over the bare environment element
// (antiJoinElemVar); it fails if the expression touches the row side or the
// raw product variable.
func rebaseEnvExpr(e algebra.FExpr, v string) (algebra.FExpr, bool) {
	switch ee := e.(type) {
	case algebra.FVar:
		// a bare reference to the product element cannot be rebased
		return nil, ee.Name != v
	case algebra.FConst:
		return ee, true
	case algebra.FField:
		if base, ok := ee.Of.(algebra.FVar); ok && base.Name == v {
			if ee.Idx == 1 {
				return algebra.FVar{Name: antiJoinElemVar}, true
			}
			return nil, false // row side
		}
		of, ok := rebaseEnvExpr(ee.Of, v)
		if !ok {
			return nil, false
		}
		return algebra.FField{Of: of, Idx: ee.Idx}, true
	case algebra.FTuple:
		elems := make([]algebra.FExpr, len(ee.Elems))
		for i, el := range ee.Elems {
			re, ok := rebaseEnvExpr(el, v)
			if !ok {
				return nil, false
			}
			elems[i] = re
		}
		return algebra.FTuple{Elems: elems}, true
	case algebra.FCmp:
		l, ok := rebaseEnvExpr(ee.L, v)
		if !ok {
			return nil, false
		}
		r, ok := rebaseEnvExpr(ee.R, v)
		if !ok {
			return nil, false
		}
		return algebra.FCmp{Op: ee.Op, L: l, R: r}, true
	case algebra.FArith:
		l, ok := rebaseEnvExpr(ee.L, v)
		if !ok {
			return nil, false
		}
		r, ok := rebaseEnvExpr(ee.R, v)
		if !ok {
			return nil, false
		}
		return algebra.FArith{Op: ee.Op, L: l, R: r}, true
	case algebra.FAnd:
		l, ok := rebaseEnvExpr(ee.L, v)
		if !ok {
			return nil, false
		}
		r, ok := rebaseEnvExpr(ee.R, v)
		if !ok {
			return nil, false
		}
		return algebra.FAnd{L: l, R: r}, true
	case algebra.FOr:
		l, ok := rebaseEnvExpr(ee.L, v)
		if !ok {
			return nil, false
		}
		r, ok := rebaseEnvExpr(ee.R, v)
		if !ok {
			return nil, false
		}
		return algebra.FOr{L: l, R: r}, true
	case algebra.FNot:
		inner, ok := rebaseEnvExpr(ee.E, v)
		if !ok {
			return nil, false
		}
		return algebra.FNot{E: inner}, true
	case algebra.FMem:
		el, ok := rebaseEnvExpr(ee.Elem, v)
		if !ok {
			return nil, false
		}
		s, ok := rebaseEnvExpr(ee.Set, v)
		if !ok {
			return nil, false
		}
		return algebra.FMem{Elem: el, Set: s}, true
	default:
		return nil, false
	}
}
