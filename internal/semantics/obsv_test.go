package semantics

import (
	"reflect"
	"testing"

	"algrec/internal/obsv"
)

// capture records every event it receives, for exact-count assertions.
type capture struct {
	fix    []obsv.FixpointStats
	stable []obsv.StableSearchStats
}

// attach builds an engine for src with a capturing collector installed.
func attach(t *testing.T, src string) (*Engine, *capture) {
	t.Helper()
	e := mustEngine(t, src)
	c := &capture{}
	e.SetCollector(obsv.Func(func(ev obsv.Event) {
		switch s := ev.(type) {
		case obsv.FixpointStats:
			c.fix = append(c.fix, s)
		case obsv.StableSearchStats:
			c.stable = append(c.stable, s)
		}
	}))
	return e, c
}

// TestObsvInflationaryExactCounts pins the inflationary event on a program
// whose evaluation is computable by hand: a is a fact, b fires in step 1,
// c in step 2, each step deriving exactly one new atom.
func TestObsvInflationaryExactCounts(t *testing.T) {
	e, c := attach(t, "a. b :- a. c :- b.")
	_, steps := e.Inflationary()
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	if len(c.fix) != 1 {
		t.Fatalf("got %d fixpoint events, want 1", len(c.fix))
	}
	got := c.fix[0]
	want := obsv.FixpointStats{
		Semantics: "inflationary",
		Passes:    2,
		Atoms:     3,
		Derived:   3,
		Deltas:    []int{1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event = %+v, want %+v", got, want)
	}
}

// TestObsvInflationaryDistinctDeltas: two spent rules deriving the same head
// in one step count as one delta atom, not two.
func TestObsvInflationaryDistinctDeltas(t *testing.T) {
	// step 1: both rules fire, both with head b — one new atom.
	e, c := attach(t, "a. b :- a. b :- not c.")
	e.Inflationary()
	got := c.fix[len(c.fix)-1]
	if got.Passes != 1 || !reflect.DeepEqual(got.Deltas, []int{1}) {
		t.Errorf("passes = %d deltas = %v, want 1 and [1]", got.Passes, got.Deltas)
	}
}

// TestObsvMinimalExactCounts pins the minimal-model event on the 4-node TC
// chain: 3 edge facts + 6 closure atoms derived in one pass, on each of two
// calls.
func TestObsvMinimalExactCounts(t *testing.T) {
	e, c := attach(t, tcSrc)
	if _, err := e.Minimal(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Minimal(); err != nil {
		t.Fatal(err)
	}
	if len(c.fix) != 2 {
		t.Fatalf("got %d fixpoint events, want 2", len(c.fix))
	}
	for i, got := range c.fix {
		if got.Semantics != "minimal" || got.Passes != 1 || got.Atoms != 9 || got.Derived != 9 {
			t.Errorf("event %d = %+v, want minimal/1 pass/9 atoms/9 derived", i, got)
		}
	}
}

// TestObsvWellFoundedExactCounts pins the alternating-fixpoint event on the
// 4-position win chain: lose(4) ⇒ win(3) ⇒ lose(2) ⇒ win(1) resolves in 3
// double-gamma iterations; the final truth vector holds the 3 move facts
// plus win(1) and win(3).
func TestObsvWellFoundedExactCounts(t *testing.T) {
	e, c := attach(t, `
move(1, 2). move(2, 3). move(3, 4).
win(X) :- move(X, Y), not win(Y).
`)
	e.WellFounded()
	if len(c.fix) != 1 {
		t.Fatalf("got %d fixpoint events, want 1", len(c.fix))
	}
	got := c.fix[0]
	if got.Semantics != "wellfounded" || got.Passes != 3 || got.Derived != 5 {
		t.Errorf("event = %+v, want wellfounded/3 passes/5 derived", got)
	}
}

// TestObsvStableSearchExactCounts pins the stable-search event on the even
// loop: 2 undefined atoms, 4 candidate masks, 2 stable models, serial path.
func TestObsvStableSearchExactCounts(t *testing.T) {
	e, c := attach(t, "a :- not b. b :- not a.")
	models, err := e.StableModels(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d models, want 2", len(models))
	}
	if len(c.stable) != 1 {
		t.Fatalf("got %d stable events, want 1", len(c.stable))
	}
	got := c.stable[0]
	if got.Undef != 2 || got.Candidates != 4 || got.Models != 2 {
		t.Errorf("event = %+v, want undef 2, candidates 4, models 2", got)
	}
}

// TestObsvDisabledEmitsNothing: a nil collector (the default) must produce
// no events and leave results identical to an observed run.
func TestObsvDisabledEmitsNothing(t *testing.T) {
	eOn, c := attach(t, tcSrc)
	eOff := mustEngine(t, tcSrc)
	eOff.SetCollector(nil)
	inOn, err := eOn.Minimal()
	if err != nil {
		t.Fatal(err)
	}
	inOff, err := eOff.Minimal()
	if err != nil {
		t.Fatal(err)
	}
	if len(inOn.TrueFacts("tc")) != len(inOff.TrueFacts("tc")) {
		t.Error("observed and unobserved runs disagree")
	}
	if len(c.fix) != 1 {
		t.Fatalf("observed engine: got %d events, want 1", len(c.fix))
	}
}
