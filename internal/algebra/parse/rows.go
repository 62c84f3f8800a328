package parse

import (
	"algrec/internal/lex"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// Rows is a relation read straight into ID rows, in the encoding a store
// keeps it in (internal/storage's RowsOfSet): a non-empty set of k-tuples
// of one width k >= 2 as arity-k rows of their component IDs, any other as
// arity-1 rows of its elements' IDs. The rows are distinct and in the
// canonical order of the set they encode.
type Rows struct {
	Arity int
	// IDs holds the rows back to back.
	IDs []intern.ID
}

// relRows reads a rel statement's set literal into Rows of in. A tuple
// element's components are read as IDs and never made a tuple unless the
// relation turns out not to be uniform.
func (p *parser) relRows(in *intern.Interner) (Rows, error) {
	if err := p.next(); err != nil {
		return Rows{}, err
	}
	r := rowReader{in: in}
	l := ids{in}
	err := p.elems(lex.RBrace, func() error {
		if p.tok.Kind == lex.LParen {
			comps, err := parseTuple(p, l, r.comps[:0])
			r.comps = comps
			if err == nil {
				r.tuple(comps)
			}
			return err
		}
		id, err := parseLiteral(p, l)
		if err == nil {
			r.elem(id)
		}
		return err
	})
	if err != nil {
		return Rows{}, err
	}
	if r.arity == 0 { // the empty set
		r.arity = 1
	}
	return Rows{Arity: r.arity, IDs: in.SortRows(r.ids, r.arity)}, nil
}

// rowReader collects a set literal's elements as rows, deciding the arity
// as they come.
type rowReader struct {
	in *intern.Interner
	// arity is 0 before the first element, then the rows' width: k while
	// every element has been a k-tuple with k >= 2, 1 for good after any
	// other element.
	arity int
	ids   []intern.ID
	comps []intern.ID // scratch for a tuple element's components
}

// tuple adds the tuple element of the given component IDs.
func (r *rowReader) tuple(comps []intern.ID) {
	if r.arity == 0 && len(comps) >= 2 {
		r.arity = len(comps)
	}
	if r.arity < 2 || r.arity != len(comps) {
		r.elem(r.in.InternTuple(comps...))
		return
	}
	r.ids = append(r.ids, comps...)
}

// elem adds the element of the given ID. Tuple rows read before it become
// their tuples' IDs, since the relation is not uniform.
func (r *rowReader) elem(id intern.ID) {
	if k := r.arity; k > 1 {
		n := len(r.ids) / k
		for i := range n {
			r.ids[i] = r.in.InternTuple(r.ids[i*k : i*k+k]...)
		}
		r.ids = r.ids[:n]
	}
	r.arity = 1
	r.ids = append(r.ids, id)
}

// ids reads literals into the IDs of an interner.
type ids struct{ in *intern.Interner }

func (l ids) integer(n int64) intern.ID         { return l.in.InternInt(n) }
func (l ids) str(s string) intern.ID            { return l.in.InternString(s) }
func (l ids) boolean(b bool) intern.ID          { return l.in.Intern(value.Bool(b)) }
func (l ids) tuple(elems []intern.ID) intern.ID { return l.in.InternTuple(elems...) }
func (l ids) set(elems []intern.ID) intern.ID   { return l.in.InternSet(elems...) }
