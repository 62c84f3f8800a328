// Package ref computes the benchmark's reference answers in plain Go —
// breadth-first reachability, backward-induction win/lose/draw labelling,
// adjacency-list joins — without calling any engine of the repository, and
// summarises an answer as (fact count, order-independent hash) so that it can
// be compared with a response of any size in one pass.
package ref

import (
	"maps"
	"strconv"
)

// Summary is a multiset of rendered facts reduced to its size and the
// wrapping sum of the facts' FNV-1a hashes, which does not depend on order.
type Summary struct {
	N    int
	Hash uint64
}

// Add folds one rendered fact into the summary.
func (s *Summary) Add(fact string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(fact); i++ {
		h = (h ^ uint64(fact[i])) * 1099511628211
	}
	s.N++
	s.Hash += h
}

// Answer maps a part of a response — a datalog predicate, "value" for an
// expression's result set, "<name>?" for the undefined part — to its
// summary. Parts with no facts are absent.
type Answer map[string]Summary

// Add folds one rendered fact into the named part.
func (a Answer) Add(part, fact string) {
	s := a[part]
	s.Add(fact)
	a[part] = s
}

// Equal reports whether two answers have the same parts and summaries.
func (a Answer) Equal(b Answer) bool { return maps.Equal(a, b) }

// Graph is the adjacency-list form of relation e.
type Graph struct {
	Out [][]int
}

// NewGraph builds the adjacency lists of a graph with the given node count;
// an edge naming a node beyond it grows the lists.
func NewGraph(nodes int, edges [][2]int) *Graph {
	g := &Graph{Out: make([][]int, nodes)}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func (g *Graph) grow(n int) {
	for len(g.Out) <= n {
		g.Out = append(g.Out, nil)
	}
}

// AddEdge inserts e(from, to).
func (g *Graph) AddEdge(from, to int) {
	g.grow(max(from, to))
	g.Out[from] = append(g.Out[from], to)
}

// DelEdge removes e(from, to) if present.
func (g *Graph) DelEdge(from, to int) {
	if from >= len(g.Out) {
		return
	}
	out := g.Out[from]
	for i, w := range out {
		if w == to {
			g.Out[from] = append(out[:i:i], out[i+1:]...)
			return
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

// Pair renders the tuple (a, b) as the algebra renders it.
func Pair(a, b int) string { return "(" + itoa(a) + ", " + itoa(b) + ")" }

// fact1 and fact2 render datalog facts as the service renders them.
func fact1(pred string, a int) string    { return pred + "(" + itoa(a) + ")" }
func fact2(pred string, a, b int) string { return pred + "(" + itoa(a) + ", " + itoa(b) + ")" }

// edbFacts adds every e fact to the answer: datalog responses list the
// extensional predicate next to the derived ones.
func (g *Graph) edbFacts(a Answer) {
	for v, out := range g.Out {
		for _, w := range out {
			a.Add("e", fact2("e", v, w))
		}
	}
}

// reach marks the nodes reachable from srcs by one or more edges.
func (g *Graph) reach(srcs ...int) []bool {
	seen := make([]bool, len(g.Out))
	var queue []int
	visit := func(v int) {
		for _, w := range g.Out[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, s := range srcs {
		if s < len(g.Out) {
			visit(s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visit(v)
	}
	return seen
}

// DlogReach answers
//
//	r(X) :- e(s,X).  r(Y) :- r(X), e(X,Y).  far(X) :- e(X,Y), not r(X).
//
// under the stratified semantics. With far false the third rule is absent.
func (g *Graph) DlogReach(s int, far bool) Answer {
	a := Answer{}
	g.edbFacts(a)
	r := g.reach(s)
	for v, in := range r {
		if in {
			a.Add("r", fact1("r", v))
		}
		if far && !in && len(g.Out[v]) > 0 {
			a.Add("far", fact1("far", v))
		}
	}
	return a
}

// DlogOrphan answers
//
//	r(X) :- e(s,X).  r(Y) :- r(X), e(X,Y).  orphan(Y) :- e(X,Y), not r(X).
//
// under the stratified semantics: the nodes with a parent outside the
// closure of s.
func (g *Graph) DlogOrphan(s int) Answer {
	a := Answer{}
	g.edbFacts(a)
	r := g.reach(s)
	orphan := make([]bool, len(g.Out))
	for v, in := range r {
		if in {
			a.Add("r", fact1("r", v))
			continue
		}
		for _, w := range g.Out[v] {
			orphan[w] = true
		}
	}
	for v, is := range orphan {
		if is {
			a.Add("orphan", fact1("orphan", v))
		}
	}
	return a
}

// DlogTC answers tc(s,X) :- e(s,X) for each source and
// tc(A,Y) :- tc(A,X), e(X,Y).
func (g *Graph) DlogTC(srcs ...int) Answer {
	a := Answer{}
	g.edbFacts(a)
	for _, s := range srcs {
		for v, in := range g.reach(s) {
			if in {
				a.Add("tc", fact2("tc", s, v))
			}
		}
	}
	return a
}

// DlogGP answers gp(X,Z) :- e(X,Y), e(Y,Z).
func (g *Graph) DlogGP() Answer {
	a := Answer{}
	g.edbFacts(a)
	for x, seen := range g.twoHopPairs() {
		for z := range seen {
			a.Add("gp", fact2("gp", x, z))
		}
	}
	return a
}

// twoHopPairs returns, per node x, the set of z with e(x,y), e(y,z).
func (g *Graph) twoHopPairs() []map[int]bool {
	pairs := make([]map[int]bool, len(g.Out))
	for x, ys := range g.Out {
		for _, y := range ys {
			for _, z := range g.Out[y] {
				if pairs[x] == nil {
					pairs[x] = map[int]bool{}
				}
				pairs[x][z] = true
			}
		}
	}
	return pairs
}

// Game labels every position of the game "move along an edge; a player who
// cannot move loses" by backward induction: a position is won if some move
// reaches a lost one, lost if every move reaches a won one (none at all
// included), and drawn otherwise. Under the well-founded and valid semantics
// win(X) :- e(X,Y), not win(Y) is true at won, false at lost and undefined at
// drawn positions.
func (g *Graph) Game() (won, drawn []bool) {
	n := len(g.Out)
	in := make([][]int, n)
	pending := make([]int, n) // moves not yet known to reach a won position
	for v, out := range g.Out {
		pending[v] = len(out)
		for _, w := range out {
			in[w] = append(in[w], v)
		}
	}
	const (
		unknown = iota
		isWon
		isLost
	)
	label := make([]int, n)
	var queue []int
	for v := range g.Out {
		if pending[v] == 0 {
			label[v] = isLost
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, v := range in[w] {
			if label[v] != unknown {
				continue
			}
			if label[w] == isLost {
				label[v] = isWon
				queue = append(queue, v)
			} else if pending[v]--; pending[v] == 0 {
				label[v] = isLost
				queue = append(queue, v)
			}
		}
	}
	won, drawn = make([]bool, n), make([]bool, n)
	for v, l := range label {
		won[v] = l == isWon
		drawn[v] = l == unknown
	}
	return won, drawn
}

// DlogWin answers win(X) :- e(X,Y), not win(Y) under the well-founded
// semantics; the undefined facts are part "win?".
func (g *Graph) DlogWin() Answer {
	a := Answer{}
	g.edbFacts(a)
	won, drawn := g.Game()
	for v := range g.Out {
		if won[v] {
			a.Add("win", fact1("win", v))
		}
		if drawn[v] {
			a.Add("win?", fact1("win", v))
		}
	}
	return a
}

// EqWin answers the algebra= WIN definition and the query win under the
// valid semantics: parts "win", "win?" and "query".
func (g *Graph) EqWin() Answer {
	a := Answer{}
	won, drawn := g.Game()
	for v := range g.Out {
		if won[v] {
			a.Add("win", itoa(v))
			a.Add("query", itoa(v))
		}
		if drawn[v] {
			a.Add("win?", itoa(v))
			a.Add("query?", itoa(v))
		}
	}
	return a
}

// ClosurePairs answers the IFP closure seeded with the out-edges of srcs:
// the pairs (s, x) with x reachable from s by one or more edges.
func (g *Graph) ClosurePairs(srcs ...int) Answer {
	a := Answer{}
	for _, s := range srcs {
		for v, in := range g.reach(s) {
			if in {
				a.Add("value", Pair(s, v))
			}
		}
	}
	return a
}

// TwoHop answers map(select(product(e, e), p.1.2 = p.2.1), (p.1.1, p.2.2)).
func (g *Graph) TwoHop() Answer {
	a := Answer{}
	for x, seen := range g.twoHopPairs() {
		for z := range seen {
			a.Add("value", Pair(x, z))
		}
	}
	return a
}

// Triangles answers the three-way product select: every ((e1, e2), e3) whose
// edges chain back to the start of e1.
func (g *Graph) Triangles() Answer {
	a := Answer{}
	for x, ys := range g.Out {
		for _, y := range ys {
			for _, z := range g.Out[y] {
				for _, w := range g.Out[z] {
					if w == x {
						a.Add("value", "(("+Pair(x, y)+", "+Pair(y, z)+"), "+Pair(z, x)+")")
					}
				}
			}
		}
	}
	return a
}

// PointOut answers select(e, p.1 = k).
func (g *Graph) PointOut(k int) Answer {
	a := Answer{}
	if k < len(g.Out) {
		for _, w := range g.Out[k] {
			a.Add("value", Pair(k, w))
		}
	}
	return a
}

// PointTwoHop answers the two-hop neighbours of k.
func (g *Graph) PointTwoHop(k int) Answer {
	a := Answer{}
	seen := map[int]bool{}
	for _, y := range g.Out[k] {
		for _, z := range g.Out[y] {
			if !seen[z] {
				seen[z] = true
				a.Add("value", itoa(z))
			}
		}
	}
	return a
}

// PointLevels answers the depth-bounded closure
//
//	ifp(s, {(k, 0)} ∪ {(y, d+1) : (x, d) ∈ s, e(x, y), d < depth})
//
// — the pairs (x, d) such that a walk of exactly d ≤ depth edges leads from k
// to x.
func (g *Graph) PointLevels(k, depth int) Answer {
	a := Answer{}
	level := map[int]bool{k: true}
	for d := 0; ; d++ {
		for x := range level {
			a.Add("value", Pair(x, d))
		}
		if d == depth {
			return a
		}
		next := map[int]bool{}
		for x := range level {
			for _, y := range g.Out[x] {
				next[y] = true
			}
		}
		level = next
	}
}
