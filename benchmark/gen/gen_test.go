package gen

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

func hashOf(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// golden is what one seed generates, abridged.
type golden struct {
	gHead, gHash, wHash, hHash, bHash string
	hEdges                            int
	sources                           []int
	points                            string
	batches                           string
	deck                              string
}

var goldens = map[uint64]golden{
	1: {gHead: "rel e = {(4150, 4495), (8641, 1352), (2261, 4148", gHash: "44d55f1730682559", wHash: "b422178ee3f8a279", hHash: "50aea5075a63963b", bHash: "6859d67ee890d493", hEdges: 9909, sources: []int{1332, 8554, 9854}, points: "8232/false 4249/true 6959/false 9292/false 7095/true 4247/false ", batches: "{[{6532 8000} {4074 8001} {5055 8002} {6597 8003}] []} {5163 8004}", deck: "0321021302"},
	2: {gHead: "rel e = {(4762, 6924), (6456, 6900), (6535, 2534", gHash: "d40c510d2baa9692", wHash: "4e1bec8722892b54", hHash: "13eb3f25558c992e", bHash: "cf5cccf019de7d8c", hEdges: 10063, sources: []int{8022, 1666, 5208}, points: "509/false 5960/false 2893/true 3041/false 1948/false 9983/false ", batches: "{[{6585 8000} {5869 8001} {4399 8002} {7423 8003}] []} {4600 8004}", deck: "3102302102"},
}

// TestGolden pins what a seed generates: the first bytes and the hash of
// each full-size data set's script, the sources, the first constants and the
// first batches. A change here changes every number the benchmark has
// reported, so it must be deliberate.
func TestGolden(t *testing.T) {
	for seed, w := range goldens {
		z := Full
		g := RandomDigraph(New(seed, "g20k"), z.GNodes, z.GEdges)
		h := Hierarchy(New(seed, "h10k"), z.HNodes)
		got := golden{
			gHead:   g.Script()[:48],
			gHash:   hashOf(g.Script()),
			wHash:   hashOf(GameGraph(New(seed, "w300"), z.WNodes, z.WChain).Script()),
			hHash:   hashOf(h.Script()),
			bHash:   hashOf(RandomDigraph(New(seed, "b100k"), z.BNodes, z.BEdges).Script()),
			hEdges:  len(h.Edges),
			sources: g.Sources(New(seed, "dlog-read"), 3),
		}
		pts := NewPoints(New(seed, "adhoc-points"), g.Nodes)
		for i := 0; i < 6; i++ {
			k, hot := pts.Next()
			got.points += fmt.Sprintf("%d/%v ", k, hot)
		}
		sched := NewSchedule(New(seed, "write-schedule"), h.Nodes)
		got.batches = fmt.Sprintf("%v %v", sched.Next(), sched.Next().Insert[0])
		deck := NewDeck(New(seed, "alg-read-mix"), 4)
		for i := 0; i < 10; i++ {
			got.deck += fmt.Sprint(deck.Next())
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("seed %d generates\n%#v\nwant\n%#v", seed, got, w)
		}
	}
}

func TestRandomDigraph(t *testing.T) {
	g := RandomDigraph(New(7, "x"), 50, 400)
	seen := map[Edge]bool{}
	for _, e := range g.Edges {
		if e.From == e.To || e.From < 0 || e.To < 0 || e.From >= 50 || e.To >= 50 || seen[e] {
			t.Fatalf("bad or repeated edge %v", e)
		}
		seen[e] = true
	}
	if len(g.Edges) != 400 {
		t.Errorf("%d edges", len(g.Edges))
	}
	if !reflect.DeepEqual(g, RandomDigraph(New(7, "x"), 50, 400)) {
		t.Error("the same seed generates another graph")
	}
	if reflect.DeepEqual(g.Edges, RandomDigraph(New(8, "x"), 50, 400).Edges) {
		t.Error("another seed generates the same graph")
	}
	if !strings.HasPrefix(g.Script(), "rel e = {(") || !strings.HasSuffix(g.Script(), ")};\n") {
		t.Errorf("script %.40q", g.Script())
	}
}

func TestHierarchy(t *testing.T) {
	h := Hierarchy(New(3, "h"), 1000)
	parents := make([]int, h.Nodes)
	for _, e := range h.Edges {
		if e.From >= e.To || e.To-e.From > hierarchyWindow {
			t.Fatalf("edge %v does not point up from within the window", e)
		}
		parents[e.To]++
	}
	two := 0
	for v := 1; v < h.Nodes; v++ {
		if parents[v] < 1 || parents[v] > 2 {
			t.Fatalf("node %d has %d parents", v, parents[v])
		}
		if parents[v] == 2 {
			two++
		}
	}
	if two < 150 || two > 350 {
		t.Errorf("%d of 999 nodes have a second parent, want about a quarter", two)
	}
}

func TestSources(t *testing.T) {
	g := RandomDigraph(New(5, "g"), 2000, 4000)
	out := g.Out()
	for _, s := range g.Sources(New(5, "s"), 4) {
		seen, queue := map[int]bool{}, []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range out[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if 4*len(seen) < g.Nodes {
			t.Errorf("source %d reaches %d of %d nodes", s, len(seen), g.Nodes)
		}
	}
	// A graph without a giant component still yields distinct sources.
	srcs := (&Graph{Nodes: 5}).Sources(New(5, "s"), 3)
	if len(srcs) != 3 || srcs[0] == srcs[1] || srcs[1] == srcs[2] || srcs[0] == srcs[2] {
		t.Errorf("sources of an empty graph: %v", srcs)
	}
}

func TestDeckDealsEvenly(t *testing.T) {
	d := NewDeck(New(1, "d"), 5)
	count := make([]int, 5)
	for i := 0; i < 5*40+3; i++ {
		count[d.Next()]++
	}
	for c, n := range count {
		if n < 40 || n > 41 {
			t.Errorf("class %d dealt %d times in 203 draws", c, n)
		}
	}
}

func TestPointsMix(t *testing.T) {
	p := NewPoints(New(1, "p"), 10000)
	if len(p.Hot) != HotSetSize {
		t.Fatalf("%d hot constants", len(p.Hot))
	}
	isHot := map[int]bool{}
	for _, k := range p.Hot {
		isHot[k] = true
	}
	hot := 0
	for i := 0; i < 5000; i++ {
		k, h := p.Next()
		if h {
			hot++
			if !isHot[k] {
				t.Fatalf("hot draw %d is not in the hot set", k)
			}
		}
		if k < 0 || k >= 10000 {
			t.Fatalf("constant %d out of range", k)
		}
	}
	if hot < 850 || hot > 1150 {
		t.Errorf("%d of 5000 draws were hot, want about a fifth", hot)
	}
}

func TestSchedule(t *testing.T) {
	const nodes = 100
	s := NewSchedule(New(1, "s"), nodes)
	live := map[Edge]bool{}
	for i := 0; i < 3*ChurnLag; i++ {
		b := s.Next()
		if len(b.Insert) != BatchEdges {
			t.Fatalf("batch %d inserts %d edges", i, len(b.Insert))
		}
		if (len(b.Delete) == BatchEdges) != (i >= ChurnLag) || (len(b.Delete) != 0 && len(b.Delete) != BatchEdges) {
			t.Fatalf("batch %d deletes %d edges", i, len(b.Delete))
		}
		for _, e := range b.Delete {
			if !live[e] {
				t.Fatalf("batch %d deletes %v, which is not there", i, e)
			}
			delete(live, e)
		}
		for _, e := range b.Insert {
			if e.From < nodes/2 || e.From >= nodes || e.To < nodes || live[e] {
				t.Fatalf("batch %d inserts %v: want a fresh leaf under an upper-half node", i, e)
			}
			live[e] = true
		}
	}
	if len(live) != ChurnLag*BatchEdges {
		t.Errorf("%d leaves live after the window filled, want %d", len(live), ChurnLag*BatchEdges)
	}
}
