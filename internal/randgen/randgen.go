// Package randgen generates seeded, size-budgeted random instances for the
// differential testing of the theorem oracles (see internal/diffcheck): com-
// plex-object databases, algebra and IFP-algebra expressions, algebra=
// programs with recursive definitions, and Datalog¬ programs with controlled
// polarity and stratifiability.
//
// Every generator is a pure function of (seed, Config): the same inputs
// always produce the same instance, byte for byte, across processes and
// platforms (only math/rand with a fixed source is used, and no map
// iteration order leaks into output). The pinned-corpus tests in
// pin_test.go enforce this, so a refactor of the generator cannot silently
// re-roll the committed fuzz corpora.
//
// Construction is type-directed. Expressions carry an element shape (int or
// pair-of-ints); each operator is only emitted where its operand shapes make
// the result well-kinded, so generated expressions never fail evaluation
// with kind errors — with one deliberate exception: an ExprInstance rooted
// at a point select sometimes holds a non-pair in the selection's operand
// (expr.go, misfit), because whether a projection applies to every element
// is exactly what decides if a selection may be answered from the sorted
// order, and the evaluator pairs must fail alike when it does not. All
// integer arithmetic is passed through mod-c with a small positive c, which
// keeps the active domain finite and every IFP convergent within modest
// budgets (the paper's framework allows divergent fixpoints; finite
// instances keep the differential harness fast). Datalog rules are safe by
// construction in the sense of Definition 4.1: bodies start with positive
// atoms binding every variable, and comparisons, negated atoms and head
// arguments use bound variables only.
package randgen

import (
	"math/rand"
)

// Config bounds the size of generated instances.
type Config struct {
	// Size is the overall size budget, 1 (tiny) to 8 (large). Zero means 2.
	// It scales relation cardinalities, rule counts and expression depth.
	Size int
}

// withDefaults returns the config with zero fields replaced by defaults and
// the size clamped to [1, 8].
func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 2
	}
	if c.Size < 1 {
		c.Size = 1
	}
	if c.Size > 8 {
		c.Size = 8
	}
	return c
}

// Gen is a deterministic instance generator: a seeded random source plus a
// size budget. It is not safe for concurrent use; create one per goroutine.
type Gen struct {
	r   *rand.Rand
	cfg Config
}

// New returns a generator for the given seed and config. Equal seeds and
// configs yield generators producing identical instance streams.
func New(seed int64, cfg Config) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed)), cfg: cfg.withDefaults()}
}

// intn is rand.Intn with the receiver's source.
func (g *Gen) intn(n int) int { return g.r.Intn(n) }

// chance reports true with probability 1/n.
func (g *Gen) chance(n int) bool { return g.r.Intn(n) == 0 }
