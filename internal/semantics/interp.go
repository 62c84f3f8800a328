// Package semantics implements every evaluation semantics the paper uses or
// compares against, over ground programs produced by internal/datalog/ground:
//
//   - minimal model of positive programs (one least-fixpoint pass)
//   - stratified evaluation (stratum-by-stratum minimal models)
//   - inflationary fixpoint semantics (negation as "not derived so far")
//   - well-founded semantics (Van Gelder–Ross–Schlipf alternating fixpoint)
//   - the valid semantics, implemented literally as the iterative
//     true/false-set procedure described in the paper's Section 2.2
//   - stable models (Gelfond–Lifschitz), by a serial exhaustive search over
//     the atoms left undefined by the well-founded model
//
// Each semantics is written as its definition over []bool truth vectors, on
// top of one least-fixpoint pass; the package is the plain reference the
// datalog oracles compare the relational kernel against, so it keeps no
// speed device beyond what holds that pass linear in the ground program, and
// it does not depend on the kernel. All engines return three-valued
// interpretations (Interp). On the ground programs of this repository the
// Section 2.2 valid procedure and the alternating fixpoint compute the same
// model; both are kept as independent implementations and their agreement is
// property-tested, serving as an executable check of the paper's remark that
// its results transfer between the valid and well-founded semantics.
package semantics

import (
	"sort"

	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
)

// Truth is a three-valued truth value.
type Truth uint8

// The truth values. The zero value is Undef.
const (
	Undef Truth = iota
	True
	False
)

// String returns "true", "false" or "undef".
func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	case Undef:
		return "undef"
	default:
		return "Truth(?)"
	}
}

// Interp is a three-valued interpretation of a ground program: a truth value
// for every interned atom. Atoms that were never interned are certainly false
// (they are not derivable under any semantics), which Interp's accessors
// reflect.
type Interp struct {
	G *ground.Program
	t []Truth
}

// NewInterp returns an interpretation with every atom at the given default.
func NewInterp(g *ground.Program, def Truth) *Interp {
	t := make([]Truth, g.NumAtoms())
	if def != Undef {
		for i := range t {
			t[i] = def
		}
	}
	return &Interp{G: g, t: t}
}

// Truth returns the truth value of the atom with the given id.
func (in *Interp) Truth(id int) Truth { return in.t[id] }

// Set assigns a truth value to the atom with the given id.
func (in *Interp) Set(id int, v Truth) { in.t[id] = v }

// TruthOf returns the truth value of a fact; facts outside the interned
// universe are certainly false.
func (in *Interp) TruthOf(f datalog.Fact) Truth {
	id, ok := in.G.Lookup(f)
	if !ok {
		return False
	}
	return in.t[id]
}

// FactsWith returns the facts of the given predicate with the given truth
// value, sorted. With truth False the result covers only interned atoms; the
// complement of the interned universe is false too but not enumerable.
func (in *Interp) FactsWith(pred string, v Truth) []datalog.Fact {
	var out []datalog.Fact
	for _, id := range in.G.AtomsOf(pred) {
		if in.t[id] == v {
			out = append(out, in.G.Atom(id))
		}
	}
	datalog.SortFacts(out)
	return out
}

// TrueFacts returns the certainly-true facts of the predicate, sorted.
func (in *Interp) TrueFacts(pred string) []datalog.Fact { return in.FactsWith(pred, True) }

// UndefFacts returns the undefined facts of the predicate, sorted.
func (in *Interp) UndefFacts(pred string) []datalog.Fact { return in.FactsWith(pred, Undef) }

// CountUndef returns the number of undefined atoms.
func (in *Interp) CountUndef() int {
	n := 0
	for _, v := range in.t {
		if v == Undef {
			n++
		}
	}
	return n
}

// IsTotal reports whether no atom is undefined — the executable counterpart
// of the paper's "well-defined" (the valid interpretation is two-valued, so
// an initial valid model exists for the queried part).
func (in *Interp) IsTotal() bool { return in.CountUndef() == 0 }

// UndefAtoms returns the ids of the undefined atoms in increasing order.
func (in *Interp) UndefAtoms() []int {
	var out []int
	for id, v := range in.t {
		if v == Undef {
			out = append(out, id)
		}
	}
	return out
}

// SameTruths reports whether two interpretations over the same ground program
// assign identical truth values.
func SameTruths(a, b *Interp) bool {
	if len(a.t) != len(b.t) {
		return false
	}
	for i := range a.t {
		if a.t[i] != b.t[i] {
			return false
		}
	}
	return true
}

// SamePred reports whether a and b agree (as three-valued relations) on the
// given predicate. The interpretations may come from different ground
// programs: facts interned in one but not the other count as False there.
func SamePred(a, b *Interp, pred string) bool {
	keys := map[string]bool{}
	for _, id := range a.G.AtomsOf(pred) {
		keys[a.G.AtomKey(id)] = true
	}
	for _, id := range b.G.AtomsOf(pred) {
		keys[b.G.AtomKey(id)] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	byKeyA := factTruths(a, pred)
	byKeyB := factTruths(b, pred)
	for _, k := range sorted {
		ta, ok := byKeyA[k]
		if !ok {
			ta = False
		}
		tb, ok := byKeyB[k]
		if !ok {
			tb = False
		}
		if ta != tb {
			return false
		}
	}
	return true
}

func factTruths(in *Interp, pred string) map[string]Truth {
	out := map[string]Truth{}
	for _, id := range in.G.AtomsOf(pred) {
		out[in.G.AtomKey(id)] = in.Truth(id)
	}
	return out
}
