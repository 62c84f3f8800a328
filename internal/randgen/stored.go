package randgen

import (
	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/value"
)

// StoredInstance is a deductive program whose facts are split between the
// program text and a database, the way a served datalog request meets them:
// the rules (and whatever facts stayed) in Prog, the rest as relations of DB
// under the relational reading — a unary fact is a scalar element, an n-ary
// fact a tuple.
type StoredInstance struct {
	Prog *datalog.Program
	DB   algebra.DB
}

// StoredDatalog generates a StoredInstance: a Datalog program — stratified,
// one time in four negation-free — and then, drawn after it on the same
// stream so no existing generator is perturbed, the shapes a relational
// evaluation over stored relations has to get right:
//
//   - where each fact lives: all in the program (an empty database), all in
//     the database (a fact of a derived predicate then makes that predicate
//     both stored and derived), or fact by fact in the program, the database
//     or both (program facts beside database facts of one predicate);
//   - one time in three, a stored element of another width under a stored
//     name — a pair in d, a scalar or a 1-tuple in e — so one predicate name
//     holds several arities;
//   - one time in three, one rule's head argument V becomes plus(V, 1) under
//     the guard V < 8, so heads carry computed arguments (the guard keeps a
//     recursive rule's growth finite).
//
// Stratifiability and safety are those of the Datalog program: none of the
// above adds a dependency or frees a variable.
func (g *Gen) StoredDatalog() *StoredInstance {
	kind := DlogStratified
	if g.chance(4) {
		kind = DlogPositive
	}
	return g.stored(g.Datalog(kind))
}

// StoredFreeDatalog generates a StoredInstance from a DlogFree program —
// safe negation of unrestricted polarity, so its valid / well-founded model
// may be three-valued — stored the way StoredDatalog stores a stratified
// one; one time in two the program also gets one of negationShapes, because
// unrestricted polarity alone seldom draws them.
func (g *Gen) StoredFreeDatalog() *StoredInstance {
	p := g.Datalog(DlogFree)
	if g.chance(2) {
		p.Rules = append(p.Rules, datalog.MustParse(negationShapes[g.intn(len(negationShapes))]).Rules...)
	}
	return g.stored(p)
}

// negationShapes are the ways negation meets recursion that a three-valued
// evaluation has to get right, over the generator's schema.
var negationShapes = []string{
	// The WIN game: positions of e are won, lost or — on and behind a cycle —
	// drawn, and every round of the alternation settles one more layer.
	"p(X) :- e(X, Y), not p(Y).",
	// p :- not p: undefined, unless a fact says otherwise.
	"q(X) :- d(X), not q(X).",
	// Negation through positive recursion: the possible half of s is
	// recursive, so what a new q takes from it is over-deleted and re-derived.
	"s(X, Y) :- e(X, Y), not q(Y). s(X, Z) :- s(X, Y), e(Y, Z). q(X) :- s(X, X), d(X).",
	// A three-valued component read negatively by a stratified one above it.
	"p(X) :- e(X, Y), not p(Y). r(X) :- d(X), not p(X).",
}

// stored splits a generated program between text and database.
func (g *Gen) stored(p *datalog.Program) *StoredInstance {
	in := &StoredInstance{Prog: &datalog.Program{}, DB: algebra.DB{}}

	store := func(pred string, elem value.Value) { in.DB[pred] = in.DB[pred].Insert(elem) }
	placement := g.intn(4) // 0: program only; 1: database only; 2, 3: fact by fact
	for _, r := range p.Rules {
		if !r.IsFact() {
			in.Prog.Rules = append(in.Prog.Rules, r)
			continue
		}
		where := placement
		if placement >= 2 {
			where = g.intn(3) // 0 program, 1 database, 2 both
		}
		if where != 1 {
			in.Prog.Rules = append(in.Prog.Rules, r)
		}
		if where != 0 {
			// Generated facts have constant arguments.
			f, _ := datalog.EvalGroundAtom(r.Head, nil)
			if len(f.Args) == 1 {
				store(f.Pred, f.Args[0])
			} else {
				store(f.Pred, value.NewTuple(f.Args...))
			}
		}
	}
	if placement != 0 && g.chance(3) {
		x, y := value.Int(int64(g.intn(4))), value.Int(int64(g.intn(4)))
		switch g.intn(3) {
		case 0:
			store("d", value.NewTuple(x, y))
		case 1:
			store("e", x)
		default:
			store("e", value.NewTuple(x))
		}
	}
	if g.chance(3) {
		var rules []int
		for i, r := range in.Prog.Rules {
			if !r.IsFact() && len(r.Head.Args) > 0 {
				rules = append(rules, i)
			}
		}
		if len(rules) > 0 {
			i := rules[g.intn(len(rules))]
			r := in.Prog.Rules[i]
			k := g.intn(len(r.Head.Args))
			v := r.Head.Args[k]
			args := append([]datalog.Term{}, r.Head.Args...)
			args[k] = datalog.Apply{Fn: "plus", Args: []datalog.Term{v, datalog.CInt(1)}}
			body := append(append([]datalog.Literal{}, r.Body...), datalog.Cmp(datalog.OpLt, v, datalog.CInt(8)))
			in.Prog.Rules[i] = datalog.Rule{Head: datalog.Atom{Pred: r.Head.Pred, Args: args}, Body: body}
		}
	}
	return in
}
