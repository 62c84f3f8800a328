// Package core implements the paper's primary contribution: algebra= and
// IFP-algebra= (Section 3.2) — the algebra extended with general recursive
// definitions f(x1, ..., xn) = exp(x1, ..., xn) — together with their
// valid-model semantics.
//
// A Program is a set of such defining equations over the operators of
// internal/algebra. Evaluation follows the paper's Section 2.2 valid-model
// procedure, lifted from ground facts to membership facts MEM(a, S): the
// evaluator maintains a certainly-true lower bound and a possibly-true upper
// bound for every defined set and alternates the Γ operator between them
// (negative occurrences of defined sets — occurrences in a subtracted
// position — read the opposite bound). A program is *well defined* on a
// database when the two bounds meet, i.e. the valid interpretation is
// two-valued and an initial valid model exists for the queried part; the
// paper's S = {a} − S is the canonical ill-defined example, and by
// Proposition 3.2 well-definedness is undecidable in general, so the check
// here is per-database and budget-bounded.
//
// Restriction: recursion must go through 0-ary definitions (named set
// constants). Definitions with parameters are supported but are expanded as
// macros before evaluation ("interpreting functions instantiation as a
// macro, i.e. a code duplication will take place", Section 3.1), which
// requires them to be non-recursive. Every construction in the paper —
// S_c^e, WIN, S = {a} − S, and the Proposition 6.1 simulation-function
// translation — uses recursive constants only.
//
// Execution: the dual-bound evaluator shares internal/algebra's streaming
// runtime — σ/MAP pipelines over products are planned into lazy
// pushdown/hash-join iterators, and IFPs and defining equations are evaluated
// semi-naively on a schedule, unless Budget.NoStreaming selects the reference.
// Those operators are polarity-transparent, so the same pipeline serves both
// the lower- and upper-bound passes (see docs/architecture.md).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"algrec/internal/algebra"
)

// Def is one defining equation f(params...) = Body.
type Def struct {
	Name   string
	Params []string
	Body   algebra.Expr
}

// String returns the equation in concrete syntax.
func (d Def) String() string {
	if len(d.Params) == 0 {
		return "def " + d.Name + " = " + d.Body.String() + ";"
	}
	s := "def " + d.Name + "("
	for i, p := range d.Params {
		if i > 0 {
			s += ", "
		}
		s += p
	}
	return s + ") = " + d.Body.String() + ";"
}

// Program is an algebra= program: a list of defining equations. The paper
// allows exactly one equation per operation name.
type Program struct {
	Defs []Def
}

// Def returns the definition of name, if any.
func (p *Program) Def(name string) (Def, bool) {
	for _, d := range p.Defs {
		if d.Name == name {
			return d, true
		}
	}
	return Def{}, false
}

// DefNames returns the defined names in definition order.
func (p *Program) DefNames() []string {
	out := make([]string, len(p.Defs))
	for i, d := range p.Defs {
		out[i] = d.Name
	}
	return out
}

// String returns the program in concrete syntax, one definition per line.
func (p *Program) String() string {
	s := ""
	for _, d := range p.Defs {
		s += d.String() + "\n"
	}
	return s
}

// BaseRels returns the relation names referenced by the program that are not
// defined by it and not bound parameters — the database relations the
// program expects — sorted.
func (p *Program) BaseRels() []string {
	defined := map[string]bool{}
	for _, d := range p.Defs {
		defined[d.Name] = true
	}
	seen := map[string]bool{}
	for _, d := range p.Defs {
		params := map[string]bool{}
		for _, q := range d.Params {
			params[q] = true
		}
		for _, r := range algebra.FreeRels(d.Body) {
			if !defined[r] && !params[r] {
				seen[r] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural well-formedness: unique definition names,
// distinct parameters, every Call arity matching its definition, and no Call
// to an undefined name.
func (p *Program) Validate() error {
	seen := map[string]bool{}
	arity := map[string]int{}
	for _, d := range p.Defs {
		if seen[d.Name] {
			return fmt.Errorf("core: duplicate definition of %q (the paper allows one equation per operation)", d.Name)
		}
		seen[d.Name] = true
		arity[d.Name] = len(d.Params)
		ps := map[string]bool{}
		for _, q := range d.Params {
			if ps[q] {
				return fmt.Errorf("core: definition of %q repeats parameter %q", d.Name, q)
			}
			ps[q] = true
		}
	}
	var check func(e algebra.Expr) error
	check = func(e algebra.Expr) error {
		switch ee := e.(type) {
		case algebra.Rel, algebra.Lit:
			return nil
		case algebra.Union:
			if err := check(ee.L); err != nil {
				return err
			}
			return check(ee.R)
		case algebra.Diff:
			if err := check(ee.L); err != nil {
				return err
			}
			return check(ee.R)
		case algebra.Product:
			if err := check(ee.L); err != nil {
				return err
			}
			return check(ee.R)
		case algebra.Select:
			return check(ee.Of)
		case algebra.Map:
			return check(ee.Of)
		case algebra.IFP:
			return check(ee.Body)
		case algebra.Flip:
			return check(ee.E)
		case algebra.Call:
			want, ok := arity[ee.Name]
			if !ok {
				return fmt.Errorf("core: call to undefined operation %q", ee.Name)
			}
			if want != len(ee.Args) {
				return fmt.Errorf("core: %q takes %d arguments, called with %d", ee.Name, want, len(ee.Args))
			}
			for _, a := range ee.Args {
				if err := check(a); err != nil {
					return err
				}
			}
			return nil
		default:
			panic(fmt.Sprintf("core: unknown Expr %T", e))
		}
	}
	for _, d := range p.Defs {
		if err := check(d.Body); err != nil {
			return fmt.Errorf("core: in definition of %q: %w", d.Name, err)
		}
	}
	return nil
}

// recursiveDefs returns the set of definition names that participate in a
// cycle of the call/reference graph (a name counts as referenced by a Call
// node or by a free Rel occurrence).
func (p *Program) recursiveDefs() map[string]bool {
	defined := map[string]bool{}
	for _, d := range p.Defs {
		defined[d.Name] = true
	}
	adj := map[string][]string{}
	for _, d := range p.Defs {
		var refs []string
		for _, n := range algebra.CallNames(d.Body) {
			if defined[n] {
				refs = append(refs, n)
			}
		}
		for _, n := range algebra.FreeRels(d.Body) {
			if defined[n] {
				refs = append(refs, n)
			}
		}
		adj[d.Name] = refs
	}
	// A def is recursive iff it can reach itself.
	recursive := map[string]bool{}
	for _, d := range p.Defs {
		visited := map[string]bool{}
		stack := append([]string(nil), adj[d.Name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == d.Name {
				recursive[d.Name] = true
				break
			}
			if visited[n] {
				continue
			}
			visited[n] = true
			stack = append(stack, adj[n]...)
		}
	}
	return recursive
}

// HasRecursion reports whether any definition participates in a reference
// cycle. A program with no recursive definitions and only positive IFP
// bodies is a positive IFP-algebra program in the sense of Theorem 4.3.
func (p *Program) HasRecursion() bool {
	return len(p.recursiveDefs()) > 0
}

// ErrRecursiveParams is returned when a parameterized definition is
// recursive; see the package comment for the restriction.
var ErrRecursiveParams = errors.New("core: recursive definitions must be 0-ary set constants (parameterized definitions are macros)")

// Inline expands every call to a parameterized (and therefore non-recursive)
// definition as a macro, and normalizes 0-ary calls to relation references.
// The result contains only 0-ary definitions whose bodies reference each
// other by name. IFP variables are renamed apart first, so substitution
// cannot capture.
func (p *Program) Inline() (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	recursive := p.recursiveDefs()
	for _, d := range p.Defs {
		if recursive[d.Name] && len(d.Params) > 0 {
			return nil, fmt.Errorf("%w: %q has %d parameters and is recursive", ErrRecursiveParams, d.Name, len(d.Params))
		}
	}
	fresh := &gensym{prefix: "__v"}
	byName := map[string]Def{}
	for _, d := range p.Defs {
		byName[d.Name] = d
	}
	// expand rewrites an expression, macro-expanding parameterized calls.
	// depth guards against mutual recursion missed by recursiveDefs (cannot
	// happen, but a defensive bound is cheap).
	var expand func(e algebra.Expr, depth int) (algebra.Expr, error)
	expand = func(e algebra.Expr, depth int) (algebra.Expr, error) {
		if depth > 10_000 {
			return nil, fmt.Errorf("core: macro expansion too deep")
		}
		switch ee := e.(type) {
		case algebra.Rel, algebra.Lit:
			return e, nil
		case algebra.Union:
			l, err := expand(ee.L, depth)
			if err != nil {
				return nil, err
			}
			r, err := expand(ee.R, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Union{L: l, R: r}, nil
		case algebra.Diff:
			l, err := expand(ee.L, depth)
			if err != nil {
				return nil, err
			}
			r, err := expand(ee.R, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Diff{L: l, R: r}, nil
		case algebra.Product:
			l, err := expand(ee.L, depth)
			if err != nil {
				return nil, err
			}
			r, err := expand(ee.R, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Product{L: l, R: r}, nil
		case algebra.Select:
			of, err := expand(ee.Of, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Select{Of: of, Var: ee.Var, Test: ee.Test}, nil
		case algebra.Map:
			of, err := expand(ee.Of, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Map{Of: of, Var: ee.Var, Out: ee.Out}, nil
		case algebra.IFP:
			b, err := expand(ee.Body, depth)
			if err != nil {
				return nil, err
			}
			return algebra.IFP{Var: ee.Var, Body: b}, nil
		case algebra.Flip:
			inner, err := expand(ee.E, depth)
			if err != nil {
				return nil, err
			}
			return algebra.Flip{E: inner}, nil
		case algebra.Call:
			d, ok := byName[ee.Name]
			if !ok {
				return nil, fmt.Errorf("core: call to undefined operation %q", ee.Name)
			}
			if len(d.Params) == 0 {
				// 0-ary call: a reference to a recursive (or plain) constant.
				return algebra.Rel{Name: ee.Name}, nil
			}
			args := make([]algebra.Expr, len(ee.Args))
			for i, a := range ee.Args {
				ex, err := expand(a, depth+1)
				if err != nil {
					return nil, err
				}
				args[i] = ex
			}
			body := freshenIFPVars(d.Body, fresh)
			subst := map[string]algebra.Expr{}
			for i, q := range d.Params {
				subst[q] = args[i]
			}
			replaced := substRels(body, subst)
			return expand(replaced, depth+1)
		default:
			panic(fmt.Sprintf("core: unknown Expr %T", e))
		}
	}
	out := &Program{}
	for _, d := range p.Defs {
		if len(d.Params) > 0 {
			continue // macros disappear after expansion
		}
		b, err := expand(d.Body, 0)
		if err != nil {
			return nil, fmt.Errorf("core: expanding %q: %w", d.Name, err)
		}
		out.Defs = append(out.Defs, Def{Name: d.Name, Body: b})
	}
	return out, nil
}

type gensym struct {
	prefix string
	n      int
}

func (g *gensym) next() string {
	g.n++
	return g.prefix + strconv.Itoa(g.n)
}

// substRels replaces free relation references per subst, respecting IFP
// binders (a bound variable shadows a substitution of the same name).
func substRels(e algebra.Expr, subst map[string]algebra.Expr) algebra.Expr {
	if len(subst) == 0 {
		return e
	}
	switch ee := e.(type) {
	case algebra.Rel:
		if r, ok := subst[ee.Name]; ok {
			return r
		}
		return ee
	case algebra.Lit:
		return ee
	case algebra.Union:
		return algebra.Union{L: substRels(ee.L, subst), R: substRels(ee.R, subst)}
	case algebra.Diff:
		return algebra.Diff{L: substRels(ee.L, subst), R: substRels(ee.R, subst)}
	case algebra.Product:
		return algebra.Product{L: substRels(ee.L, subst), R: substRels(ee.R, subst)}
	case algebra.Select:
		return algebra.Select{Of: substRels(ee.Of, subst), Var: ee.Var, Test: ee.Test}
	case algebra.Map:
		return algebra.Map{Of: substRels(ee.Of, subst), Var: ee.Var, Out: ee.Out}
	case algebra.IFP:
		if _, shadowed := subst[ee.Var]; shadowed {
			inner := make(map[string]algebra.Expr, len(subst))
			for k, v := range subst {
				if k != ee.Var {
					inner[k] = v
				}
			}
			return algebra.IFP{Var: ee.Var, Body: substRels(ee.Body, inner)}
		}
		return algebra.IFP{Var: ee.Var, Body: substRels(ee.Body, subst)}
	case algebra.Flip:
		return algebra.Flip{E: substRels(ee.E, subst)}
	case algebra.Call:
		args := make([]algebra.Expr, len(ee.Args))
		for i, a := range ee.Args {
			args[i] = substRels(a, subst)
		}
		return algebra.Call{Name: ee.Name, Args: args}
	default:
		panic(fmt.Sprintf("core: unknown Expr %T", e))
	}
}

// freshenIFPVars alpha-renames every IFP binder in e to a fresh name so that
// substituting argument expressions into the body cannot capture their free
// relation names.
func freshenIFPVars(e algebra.Expr, g *gensym) algebra.Expr {
	switch ee := e.(type) {
	case algebra.Rel, algebra.Lit:
		return e
	case algebra.Union:
		return algebra.Union{L: freshenIFPVars(ee.L, g), R: freshenIFPVars(ee.R, g)}
	case algebra.Diff:
		return algebra.Diff{L: freshenIFPVars(ee.L, g), R: freshenIFPVars(ee.R, g)}
	case algebra.Product:
		return algebra.Product{L: freshenIFPVars(ee.L, g), R: freshenIFPVars(ee.R, g)}
	case algebra.Select:
		return algebra.Select{Of: freshenIFPVars(ee.Of, g), Var: ee.Var, Test: ee.Test}
	case algebra.Map:
		return algebra.Map{Of: freshenIFPVars(ee.Of, g), Var: ee.Var, Out: ee.Out}
	case algebra.IFP:
		nv := g.next()
		body := substRels(ee.Body, map[string]algebra.Expr{ee.Var: algebra.Rel{Name: nv}})
		return algebra.IFP{Var: nv, Body: freshenIFPVars(body, g)}
	case algebra.Flip:
		return algebra.Flip{E: freshenIFPVars(ee.E, g)}
	case algebra.Call:
		args := make([]algebra.Expr, len(ee.Args))
		for i, a := range ee.Args {
			args[i] = freshenIFPVars(a, g)
		}
		return algebra.Call{Name: ee.Name, Args: args}
	default:
		panic(fmt.Sprintf("core: unknown Expr %T", e))
	}
}

// IsPositive reports whether, after inlining, every defined name occurs only
// positively in every definition body and every IFP is positive — the
// syntactic condition under which the valid interpretation is two-valued in
// one alternation and Proposition 3.4 applies (S = exp(S) coincides with
// IFP_exp).
func (p *Program) IsPositive() (bool, error) {
	q, err := p.Inline()
	if err != nil {
		return false, err
	}
	for _, d := range q.Defs {
		if !algebra.IsPositiveIFP(d.Body) {
			return false, nil
		}
		for _, other := range q.Defs {
			if !algebra.OccursPositively(d.Body, other.Name) {
				return false, nil
			}
		}
	}
	return true, nil
}
