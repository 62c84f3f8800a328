package ref

import (
	"reflect"
	"testing"
)

// want builds an answer from parts listed by hand.
func want(parts map[string][]string) Answer {
	a := Answer{}
	for part, facts := range parts {
		for _, f := range facts {
			a.Add(part, f)
		}
	}
	return a
}

func check(t *testing.T, name string, got Answer, parts map[string][]string) {
	t.Helper()
	if w := want(parts); !got.Equal(w) {
		t.Errorf("%s: got %v, want %v (%v)", name, got, w, parts)
	}
}

func TestSummaryIgnoresOrder(t *testing.T) {
	a, b := Answer{}, Answer{}
	for _, f := range []string{"r(1)", "r(2)", "r(3)"} {
		a.Add("r", f)
	}
	for _, f := range []string{"r(3)", "r(1)", "r(2)"} {
		b.Add("r", f)
	}
	if !a.Equal(b) {
		t.Error("the same facts in another order compare unequal")
	}
	b.Add("r", "r(4)")
	if a.Equal(b) {
		t.Error("an extra fact compares equal")
	}
	c := Answer{}
	for _, f := range []string{"r(1)", "r(2)", "r(4)"} {
		c.Add("r", f)
	}
	if a.Equal(c) {
		t.Error("a different fact compares equal")
	}
	if (Answer{"r": a["r"]}).Equal(Answer{"s": a["r"]}) {
		t.Error("another part name compares equal")
	}
}

// A diamond with a tail and a detached edge:
//
//	0 -> 1 -> 3 -> 4      5 -> 6
//	0 -> 2 -> 3
func diamond() *Graph {
	return NewGraph(7, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {5, 6}})
}

var diamondEdges = []string{"e(0, 1)", "e(0, 2)", "e(1, 3)", "e(2, 3)", "e(3, 4)", "e(5, 6)"}

func TestDlogReach(t *testing.T) {
	check(t, "reach from 1 with far", diamond().DlogReach(1, true), map[string][]string{
		"e":   diamondEdges,
		"r":   {"r(3)", "r(4)"},
		"far": {"far(0)", "far(1)", "far(2)", "far(5)"},
	})
	check(t, "reach from 0", diamond().DlogReach(0, false), map[string][]string{
		"e": diamondEdges,
		"r": {"r(1)", "r(2)", "r(3)", "r(4)"},
	})
}

func TestDlogOrphan(t *testing.T) {
	// From 1 the closure is {3, 4}; 1, 2, 3 and 6 have a parent outside it.
	check(t, "orphan", diamond().DlogOrphan(1), map[string][]string{
		"e":      diamondEdges,
		"r":      {"r(3)", "r(4)"},
		"orphan": {"orphan(1)", "orphan(2)", "orphan(3)", "orphan(6)"},
	})
}

func TestDlogTCAndGP(t *testing.T) {
	check(t, "tc", diamond().DlogTC(2, 5), map[string][]string{
		"e":  diamondEdges,
		"tc": {"tc(2, 3)", "tc(2, 4)", "tc(5, 6)"},
	})
	check(t, "gp", diamond().DlogGP(), map[string][]string{
		"e":  diamondEdges,
		"gp": {"gp(0, 3)", "gp(1, 4)", "gp(2, 4)"},
	})
}

func TestGame(t *testing.T) {
	// The paper's Example 3: a -> b, b -> c, b -> d. c and d cannot move and
	// lose, b wins, a can only move to a winner and loses.
	g := NewGraph(4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	won, drawn := g.Game()
	if !reflect.DeepEqual(won, []bool{false, true, false, false}) || !reflect.DeepEqual(drawn, make([]bool, 4)) {
		t.Errorf("acyclic game: won %v drawn %v", won, drawn)
	}
	// A 2-cycle is drawn; a node that can step off a cycle onto a dead end
	// wins; its predecessor on the cycle then loses.
	g = NewGraph(5, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {3, 4}})
	won, drawn = g.Game()
	if !reflect.DeepEqual(won, []bool{false, false, false, true, false}) ||
		!reflect.DeepEqual(drawn, []bool{true, true, false, false, false}) {
		t.Errorf("cyclic game: won %v drawn %v", won, drawn)
	}
	check(t, "dlog win", g.DlogWin(), map[string][]string{
		"e":    {"e(0, 1)", "e(1, 0)", "e(2, 3)", "e(3, 2)", "e(3, 4)"},
		"win":  {"win(3)"},
		"win?": {"win(0)", "win(1)"},
	})
	check(t, "algebra= win", g.EqWin(), map[string][]string{
		"win": {"3"}, "query": {"3"}, "win?": {"0", "1"}, "query?": {"0", "1"},
	})
}

func TestAlgebraAnswers(t *testing.T) {
	g := diamond()
	check(t, "closure pairs", g.ClosurePairs(1, 5), map[string][]string{"value": {"(1, 3)", "(1, 4)", "(5, 6)"}})
	check(t, "two-hop", g.TwoHop(), map[string][]string{"value": {"(0, 3)", "(1, 4)", "(2, 4)"}})
	check(t, "no triangle", g.Triangles(), nil)
	tri := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	check(t, "triangle", tri.Triangles(), map[string][]string{"value": {
		"(((0, 1), (1, 2)), (2, 0))", "(((1, 2), (2, 0)), (0, 1))", "(((2, 0), (0, 1)), (1, 2))",
	}})
	check(t, "point out", g.PointOut(0), map[string][]string{"value": {"(0, 1)", "(0, 2)"}})
	check(t, "point out of a sink", g.PointOut(4), nil)
	check(t, "point two-hop", g.PointTwoHop(0), map[string][]string{"value": {"3"}})
	// Walks from 0: length 0 at 0; length 1 at 1, 2; length 2 at 3.
	check(t, "levels", g.PointLevels(0, 2), map[string][]string{"value": {"(0, 0)", "(1, 1)", "(2, 1)", "(3, 2)"}})
	// On a cycle a node is reached by walks of several lengths.
	check(t, "levels on a cycle", tri.PointLevels(0, 3), map[string][]string{"value": {"(0, 0)", "(1, 1)", "(2, 2)", "(0, 3)"}})
}

func TestAddDelEdge(t *testing.T) {
	g := diamond()
	g.AddEdge(3, 9) // beyond the node count: the lists grow
	g.DelEdge(3, 4)
	g.DelEdge(3, 5)  // absent: no-op
	g.DelEdge(42, 1) // unknown node: no-op
	check(t, "after mutation", g.DlogReach(1, false), map[string][]string{
		"e": {"e(0, 1)", "e(0, 2)", "e(1, 3)", "e(2, 3)", "e(3, 9)", "e(5, 6)"},
		"r": {"r(3)", "r(9)"},
	})
	if got := len(diamond().Out[3]); got != 1 {
		t.Errorf("a fresh graph shares state with a mutated one: out(3) has %d edges", got)
	}
}
