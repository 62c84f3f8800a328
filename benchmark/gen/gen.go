// Package gen makes every input of the benchmark from one seed: the four
// data sets (relation e of int pairs), the sources and constants the query
// texts carry, the per-request class and constant streams, and the mutation
// schedule of the write workload. The seed is the only source of randomness;
// the server under test sees nothing but what this package generated.
//
// The generator is a SplitMix64 written out here rather than math/rand, so
// the golden test pins the bytes independently of the standard library.
package gen

import (
	"strconv"
	"strings"
)

// Rand is a SplitMix64 stream.
type Rand struct{ s uint64 }

// New returns the stream for seed; sub keeps the streams of different inputs
// apart, so resizing one data set does not shift another.
func New(seed uint64, sub string) *Rand {
	r := &Rand{s: seed}
	for i := 0; i < len(sub); i++ {
		r.s = r.s*1099511628211 ^ uint64(sub[i])
	}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Intn returns a value in [0, n). The modulo bias is below 2^-40 for every n
// the benchmark uses.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Edge is one fact e(From, To).
type Edge struct{ From, To int }

// Graph is one data set: Nodes ids 0..Nodes-1 and distinct edges between
// them.
type Graph struct {
	Nodes int
	Edges []Edge
}

// Sizes of the four data sets (see benchmark/README.md for why these).
type Sizes struct {
	GNodes, GEdges int // g20k
	WNodes, WChain int // w300: nodes in all, of which a simple path
	HNodes         int // h10k
	BNodes, BEdges int // b100k
}

// Full is the benchmark's sizing; Toy is what -smoke and the tests run.
var (
	Full = Sizes{GNodes: 10000, GEdges: 20000, WNodes: 300, WChain: 30, HNodes: 8000, BNodes: 50000, BEdges: 100000}
	Toy  = Sizes{GNodes: 200, GEdges: 400, WNodes: 40, WChain: 8, HNodes: 300, BNodes: 500, BEdges: 1000}
)

// RandomDigraph draws edges distinct directed edges without self-loops.
func RandomDigraph(r *Rand, nodes, edges int) *Graph {
	g := &Graph{Nodes: nodes, Edges: make([]Edge, 0, edges)}
	seen := make(map[Edge]bool, edges)
	for len(g.Edges) < edges {
		e := Edge{r.Intn(nodes), r.Intn(nodes)}
		if e.From == e.To || seen[e] {
			continue
		}
		seen[e] = true
		g.Edges = append(g.Edges, e)
	}
	return g
}

// GameGraph draws the WIN game's move relation: a random digraph of average
// out-degree 2 on the first nodes-chain nodes, and beside it a simple path
// over the last chain nodes. The path pins the depth of the backward
// induction — and with it the number of alternation rounds an evaluation of
// WIN takes — at chain, whatever the seed; the random part alone needs
// anywhere from 6 to 16 levels at this size, which made the request's cost
// swing by a factor of two from seed to seed.
func GameGraph(r *Rand, nodes, chain int) *Graph {
	g := RandomDigraph(r, nodes-chain, 2*(nodes-chain))
	for v := g.Nodes; v+1 < nodes; v++ {
		g.Edges = append(g.Edges, Edge{v, v + 1})
	}
	g.Nodes = nodes
	return g
}

// hierarchyWindow is how far below itself a node looks for a parent.
const hierarchyWindow = 200

// Hierarchy draws a DAG: node i > 0 gets a parent from the hierarchyWindow
// ids below it and, one time in four, a second distinct one. Edges point
// from parent to child, so node 0 reaches every node.
func Hierarchy(r *Rand, nodes int) *Graph {
	g := &Graph{Nodes: nodes}
	for i := 1; i < nodes; i++ {
		lo := i - hierarchyWindow
		if lo < 0 {
			lo = 0
		}
		p := lo + r.Intn(i-lo)
		g.Edges = append(g.Edges, Edge{p, i})
		if r.Intn(4) == 0 && i-lo > 1 {
			q := lo + r.Intn(i-lo)
			if q != p {
				g.Edges = append(g.Edges, Edge{q, i})
			}
		}
	}
	return g
}

// Script renders the graph as the service's database format: one algebra=
// rel statement.
func (g *Graph) Script() string {
	var b strings.Builder
	b.Grow(16*len(g.Edges) + 16)
	b.WriteString("rel e = {")
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		b.WriteString(strconv.Itoa(e.From))
		b.WriteString(", ")
		b.WriteString(strconv.Itoa(e.To))
		b.WriteByte(')')
	}
	b.WriteString("};\n")
	return b.String()
}

// Out returns the adjacency lists of the graph.
func (g *Graph) Out() [][]int {
	out := make([][]int, g.Nodes)
	for _, e := range g.Edges {
		out[e.From] = append(out[e.From], e.To)
	}
	return out
}

// Sources picks n distinct nodes whose forward closure covers at least a
// quarter of the graph — nodes inside the giant out-component — by running
// the generator's own BFS on candidates drawn from r. A fixpoint query from
// such a node does the amount of work the workload was sized for; one from
// a sink would return at once.
func (g *Graph) Sources(r *Rand, n int) []int {
	out := g.Out()
	picked := map[int]bool{}
	var srcs []int
	mark := make([]int, g.Nodes)
	for try := 1; len(srcs) < n && try <= 64*n; try++ {
		s := r.Intn(g.Nodes)
		if picked[s] {
			continue
		}
		reached, queue := 0, []int{s}
		mark[s] = try
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range out[v] {
				if mark[w] != try {
					mark[w] = try
					reached++
					queue = append(queue, w)
				}
			}
		}
		if 4*reached >= g.Nodes {
			picked[s] = true
			srcs = append(srcs, s)
		}
	}
	for s := 0; len(srcs) < n && s < g.Nodes; s++ { // toy graphs may have no giant component
		if !picked[s] {
			srcs = append(srcs, s)
		}
	}
	return srcs
}
