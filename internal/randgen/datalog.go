package randgen

import (
	"algrec/internal/builtin"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// DatalogKind selects the negation discipline of a generated deductive
// program.
type DatalogKind uint8

// The program families, by increasing expressive power (and decreasing
// number of semantics that agree on them — see internal/diffcheck's oracle
// matrix).
const (
	// DlogPositive generates negation-free programs: every semantics in
	// internal/semantics computes the same (minimal) model on them.
	DlogPositive DatalogKind = iota
	// DlogStratified generates programs that are stratifiable by
	// construction: a negated atom's predicate is always an EDB relation or
	// an IDB predicate of a strictly earlier stratum, and positive references
	// never reach back past the head's stratum, so no cycle crosses a
	// negative edge. Stratified, well-founded and valid evaluation all
	// compute the same total model on these.
	DlogStratified
	// DlogFree generates programs with unrestricted (safe) polarity:
	// negation may be recursive, so the valid/well-founded model may be
	// genuinely three-valued and stable models may branch. Only the paired
	// engines for one semantics are comparable.
	DlogFree
)

// String returns the kind's name.
func (k DatalogKind) String() string {
	switch k {
	case DlogPositive:
		return "positive"
	case DlogStratified:
		return "stratified"
	case DlogFree:
		return "free"
	default:
		return "DatalogKind(?)"
	}
}

// pred is a predicate slot of the generated schema.
type pred struct {
	name  string
	arity int
}

// Datalog generates a safe deductive program of the given kind: EDB facts
// over a small integer domain, and rules whose bodies open with one to three
// positive atoms binding every variable — some of their argument positions
// holding a constant instead — followed by optional comparison literals, an
// optional guarded arithmetic assignment (exercising interpreted functions
// while keeping the active domain finite), and negated atoms per the kind's
// discipline. Safety in the sense of Definition 4.1 holds by construction;
// DlogStratified output additionally satisfies datalog.IsStratified.
func (g *Gen) Datalog(kind DatalogKind) *datalog.Program {
	p := &datalog.Program{}
	edb := []pred{{"d", 1}, {"e", 2}}
	// idb is ordered; DlogStratified treats the index as the stratum.
	idb := []pred{{"p", 1}, {"q", 1}, {"s", 2}}
	nConst := 2 + g.intn(2+g.cfg.Size)

	// EDB facts; occasionally an IDB fact too (translations must carry
	// explicit IDB facts through).
	for i := 0; i < 3+g.intn(3*g.cfg.Size); i++ {
		rel := edb[g.intn(len(edb))]
		if g.chance(8) {
			rel = idb[g.intn(len(idb))]
		}
		args := make([]value.Value, rel.arity)
		for j := range args {
			args[j] = value.Int(int64(g.intn(nConst)))
		}
		p.AddFacts(datalog.Fact{Pred: rel.name, Args: args})
	}

	vars := []datalog.Var{"X", "Y", "Z"}
	for i := 0; i < 2+g.intn(2*g.cfg.Size); i++ {
		hi := g.intn(len(idb))
		head := idb[hi]

		// Predicates a body atom may reference, by polarity and kind.
		var posPool, negPool []pred
		posPool = append(posPool, edb...)
		switch kind {
		case DlogPositive:
			posPool = append(posPool, idb...)
		case DlogStratified:
			// Positive references stay at or below the head's stratum so
			// every cycle lives inside one stratum; negative references stay
			// strictly below.
			posPool = append(posPool, idb[:hi+1]...)
			negPool = append(append(negPool, edb...), idb[:hi]...)
		case DlogFree:
			posPool = append(posPool, idb...)
			negPool = posPool
		}

		var body []datalog.Literal
		bound := map[datalog.Var]bool{}
		var boundList []datalog.Var
		for j := 0; j < 1+g.intn(3); j++ {
			rel := posPool[g.intn(len(posPool))]
			args := make([]datalog.Term, rel.arity)
			for k := range args {
				// One position in five holds a constant: a position that is
				// bound whatever the rule is entered from, so with up to
				// three atoms a body has entry patterns (incremental
				// maintenance compiles one join order per entry) whose best
				// order is not the textual one. The body's first position
				// stays a variable — the head needs something bound.
				if (j > 0 || k > 0) && g.chance(5) {
					args[k] = datalog.CInt(int64(g.intn(nConst)))
					continue
				}
				v := vars[g.intn(len(vars))]
				args[k] = v
				if !bound[v] {
					bound[v] = true
					boundList = append(boundList, v)
				}
			}
			body = append(body, datalog.LitAtom{Atom: datalog.Atom{Pred: rel.name, Args: args}})
		}
		if g.chance(3) {
			v := boundList[g.intn(len(boundList))]
			body = append(body, datalog.Cmp(builtin.Cmp(g.intn(6)), v, datalog.CInt(int64(g.intn(nConst)))))
		}
		if g.chance(4) {
			// W = plus(V, 1), W < bound: an interpreted-function assignment
			// whose guard keeps grounding finite.
			src := boundList[g.intn(len(boundList))]
			w := datalog.Var("W")
			if !bound[w] {
				body = append(body,
					datalog.Cmp(builtin.Eq, w, datalog.Apply{Fn: "plus", Args: []datalog.Term{src, datalog.CInt(1)}}),
					datalog.Cmp(builtin.Lt, w, datalog.CInt(int64(nConst+2))))
				bound[w] = true
				boundList = append(boundList, w)
			}
		}
		for j := g.intn(2); j > 0 && len(negPool) > 0; j-- {
			rel := negPool[g.intn(len(negPool))]
			args := make([]datalog.Term, rel.arity)
			for k := range args {
				args[k] = boundList[g.intn(len(boundList))]
			}
			body = append(body, datalog.LitAtom{Neg: true, Atom: datalog.Atom{Pred: rel.name, Args: args}})
		}
		headArgs := make([]datalog.Term, head.arity)
		for k := range headArgs {
			headArgs[k] = boundList[g.intn(len(boundList))]
		}
		p.Rules = append(p.Rules, datalog.Rule{Head: datalog.Atom{Pred: head.name, Args: headArgs}, Body: body})
	}
	return p
}
