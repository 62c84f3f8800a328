package algebra

import (
	"fmt"
	"sort"
	"strings"

	"algrec/internal/value"
)

// Expr is a set-valued algebra expression. It is a sealed interface; the
// variants are exactly the operators of the paper's Section 3.1 plus Call,
// which applies an operation defined by an algebra= equation (Section 3.2).
type Expr interface {
	String() string
	isExpr()
}

// Rel names a set: a database relation, a defined constant, a definition
// parameter, or the recursion variable of an enclosing IFP.
type Rel struct{ Name string }

// Lit is a literal finite set (EMPTY, {0}, {(a,b), (b,c)}, ...).
type Lit struct{ Set value.Set }

// Union is L ∪ R.
type Union struct{ L, R Expr }

// Diff is L − R: the algebra's only source of negation, which is why the
// paper must study recursion and negation together.
type Diff struct{ L, R Expr }

// Product is the cartesian product L × R, producing pairs.
type Product struct{ L, R Expr }

// Select is σ_test(Of): the elements of Of for which the test holds. Var
// names the element inside Test.
type Select struct {
	Of   Expr
	Var  string
	Test FExpr
}

// Map is MAP_f(Of): Of restructured element-wise by Out. Var names the
// element inside Out.
type Map struct {
	Of  Expr
	Var string
	Out FExpr
}

// IFP is the inflationary fixed point IFP_exp: starting from the empty set,
// Body is applied to the accumulated result (bound to Var) and the output is
// accumulated, until nothing new is added.
type IFP struct {
	Var  string
	Body Expr
}

// Call applies a named operation defined by an algebra= equation
// f(x1, ..., xn) = exp to argument expressions.
type Call struct {
	Name string
	Args []Expr
}

// Flip is a polarity annotation: Flip{E} evaluates E at the opposite of the
// incoming polarity. Without the Evaluator's Pos/Neg overlays — on total
// databases — it is the identity; it matters to the lower/upper bound
// passes of internal/core, which set them. Its purpose is correlation: the
// anti-join encoding of a negated atom, env − π(σ(env × Q)), mentions env
// twice, and without the annotation the copy inside the subtrahend would be
// read at flipped polarity, decorrelating the two occurrences and losing
// precision (elements whose match status is decided would be reported
// undefined). Wrapping the inner copy as Flip{env} makes both bounds exact:
//
//	lower(env − π(σ(Flip(env) × Q))) = lower(env) − π(σ(lower(env) × upper(Q)))
//	upper(env − π(σ(Flip(env) × Q))) = upper(env) − π(σ(upper(env) × lower(Q)))
//
// which per element x reads: x certainly survives iff x is certainly in env
// and x possibly matches nothing in Q — the exact three-valued semantics of
// the original rule.
type Flip struct {
	E Expr
}

func (Rel) isExpr()     {}
func (Lit) isExpr()     {}
func (Union) isExpr()   {}
func (Diff) isExpr()    {}
func (Product) isExpr() {}
func (Select) isExpr()  {}
func (Map) isExpr()     {}
func (IFP) isExpr()     {}
func (Call) isExpr()    {}
func (Flip) isExpr()    {}

// String implements Expr.
func (e Rel) String() string { return e.Name }

// String implements Expr.
func (e Lit) String() string { return e.Set.String() }

// String implements Expr.
func (e Union) String() string {
	return "union(" + e.L.String() + ", " + e.R.String() + ")"
}

// String implements Expr.
func (e Diff) String() string {
	return "diff(" + e.L.String() + ", " + e.R.String() + ")"
}

// String implements Expr.
func (e Product) String() string {
	return "product(" + e.L.String() + ", " + e.R.String() + ")"
}

// String implements Expr.
func (e Select) String() string {
	return "select(" + e.Of.String() + ", \\" + e.Var + " -> " + e.Test.String() + ")"
}

// String implements Expr.
func (e Map) String() string {
	return "map(" + e.Of.String() + ", \\" + e.Var + " -> " + e.Out.String() + ")"
}

// String implements Expr.
func (e IFP) String() string {
	return "ifp(" + e.Var + ", " + e.Body.String() + ")"
}

// String implements Expr.
func (e Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// String implements Expr.
func (e Flip) String() string { return "flip(" + e.E.String() + ")" }

// Proj returns the paper's π_i shorthand: MAP_{x.i}(of).
func Proj(of Expr, i int) Map {
	return Map{Of: of, Var: "x", Out: FField{Of: FVar{Name: "x"}, Idx: i}}
}

// EmptyLit is the EMPTY constant as an expression.
var EmptyLit = Lit{Set: value.EmptySet}

// Singleton returns the literal set {v}.
func Singleton(v value.Value) Lit { return Lit{Set: value.NewSet(v)} }

// Children returns the set-valued subexpressions of e, in operand order:
// none for Rel and Lit, the operands of ∪, − and ×, the input of σ and MAP,
// an IFP's body, a Flip's operand and a Call's arguments. With WithChildren
// it is the one child enumeration every generic walk recurses through.
func Children(e Expr) []Expr {
	switch ee := e.(type) {
	case Rel, Lit:
		return nil
	case Union:
		return []Expr{ee.L, ee.R}
	case Diff:
		return []Expr{ee.L, ee.R}
	case Product:
		return []Expr{ee.L, ee.R}
	case Select:
		return []Expr{ee.Of}
	case Map:
		return []Expr{ee.Of}
	case IFP:
		return []Expr{ee.Body}
	case Flip:
		return []Expr{ee.E}
	case Call:
		return ee.Args
	default:
		panic(fmt.Sprintf("algebra: unknown Expr %T", e))
	}
}

// WithChildren returns e with its subexpressions replaced by kids, given in
// the order Children returns them; every other field is kept.
func WithChildren(e Expr, kids []Expr) Expr {
	switch ee := e.(type) {
	case Rel, Lit:
		return e
	case Union:
		return Union{L: kids[0], R: kids[1]}
	case Diff:
		return Diff{L: kids[0], R: kids[1]}
	case Product:
		return Product{L: kids[0], R: kids[1]}
	case Select:
		return Select{Of: kids[0], Var: ee.Var, Test: ee.Test}
	case Map:
		return Map{Of: kids[0], Var: ee.Var, Out: ee.Out}
	case IFP:
		return IFP{Var: ee.Var, Body: kids[0]}
	case Flip:
		return Flip{E: kids[0]}
	case Call:
		return Call{Name: ee.Name, Args: kids}
	default:
		panic(fmt.Sprintf("algebra: unknown Expr %T", e))
	}
}

// FreeRels returns the free relation names of e, sorted: every Rel name not
// bound by an enclosing IFP variable. Call names are reported separately by
// CallNames; they are not free relations.
func FreeRels(e Expr) []string {
	seen := map[string]bool{}
	var walk func(Expr, map[string]bool)
	walk = func(e Expr, bound map[string]bool) {
		switch ee := e.(type) {
		case Rel:
			if !bound[ee.Name] {
				seen[ee.Name] = true
			}
		case IFP:
			inner := map[string]bool{ee.Var: true}
			for k := range bound {
				inner[k] = true
			}
			bound = inner
		}
		for _, k := range Children(e) {
			walk(k, bound)
		}
	}
	walk(e, map[string]bool{})
	return sortedKeys(seen)
}

// CallNames returns the names of operations applied by Call nodes in e,
// sorted.
func CallNames(e Expr) []string {
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		if c, ok := e.(Call); ok {
			seen[c.Name] = true
		}
		for _, k := range Children(e) {
			walk(k)
		}
	}
	walk(e)
	return sortedKeys(seen)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// OccursPositively reports whether every free occurrence of name in e is
// positive: not inside the right operand of an odd number of enclosing
// subtractions. This is the syntactic condition of the paper's positive
// IFP-algebra ("the variable does not appear negatively, i.e. does not
// appear in a sub-expression being subtracted"), which guarantees
// monotonicity in the sense of Definition 3.3 and hence, by Proposition 3.4,
// agreement between the recursive equation S = exp(S) and IFP_exp. A Flip
// inverts polarity as a subtrahend does.
func OccursPositively(e Expr, name string) bool {
	var walk func(Expr, bool) bool
	walk = func(e Expr, positive bool) bool {
		switch ee := e.(type) {
		case Rel:
			return positive || ee.Name != name
		case Diff:
			return walk(ee.L, positive) && walk(ee.R, !positive)
		case Flip:
			return walk(ee.E, !positive)
		case IFP:
			if ee.Var == name {
				return true // inner occurrences refer to the IFP variable
			}
		case Call:
			// Without the callee's definition the occurrence polarity is
			// unknown; conservatively reject any occurrence under a call and
			// let callers expand non-recursive definitions first
			// (core.Program.Inline).
			return !occursFree(e, name)
		}
		for _, k := range Children(e) {
			if !walk(k, positive) {
				return false
			}
		}
		return true
	}
	return walk(e, true)
}

func occursFree(e Expr, name string) bool {
	for _, r := range FreeRels(e) {
		if r == name {
			return true
		}
	}
	return false
}

// IsPositiveIFP reports whether every IFP subexpression of e binds a
// variable that occurs only positively in its body — the defining condition
// of the paper's positive IFP-algebra (Theorem 4.3).
func IsPositiveIFP(e Expr) bool {
	if f, ok := e.(IFP); ok && !OccursPositively(f.Body, f.Var) {
		return false
	}
	for _, k := range Children(e) {
		if !IsPositiveIFP(k) {
			return false
		}
	}
	return true
}

// HasIFP reports whether e contains an IFP operator; expressions without one
// belong to the paper's plain "algebra".
func HasIFP(e Expr) bool {
	if _, ok := e.(IFP); ok {
		return true
	}
	for _, k := range Children(e) {
		if HasIFP(k) {
			return true
		}
	}
	return false
}
