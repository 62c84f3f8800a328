package intern

import (
	"testing"

	"algrec/internal/value"
)

// benchTuples returns n distinct (i, i+1) pair tuples, the grounder's
// dominant value shape.
func benchTuples(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = value.NewTuple(value.Int(int64(i)), value.Int(int64(i+1)))
	}
	return out
}

// BenchmarkInternHit measures re-interning already-consed values through a
// private interner (table probe; no cache cell shortcut).
func BenchmarkInternHit(b *testing.B) {
	in := New()
	tuples := benchTuples(1024)
	for _, t := range tuples {
		in.Intern(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Intern(tuples[i%len(tuples)])
	}
}

// BenchmarkInternHitCached measures the global interner's cached-ID path:
// after the first Intern the value's cache cell short-circuits the probe.
func BenchmarkInternHitCached(b *testing.B) {
	tuples := benchTuples(1024)
	for _, t := range tuples {
		Global().Intern(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Global().Intern(tuples[i%len(tuples)])
	}
}

// BenchmarkInternMiss measures first-sight consing, arena append included.
func BenchmarkInternMiss(b *testing.B) {
	in := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.InternTuple(in.InternInt(int64(i)), in.InternInt(int64(i%7)))
	}
}

// BenchmarkMembershipID measures set membership as a Relation probe over ID
// rows; BenchmarkMembershipStructural is the same workload through
// value.Set.Has (binary search with structural Compare). The ratio is the
// per-operation payoff the ID representation buys the grounder.
func BenchmarkMembershipID(b *testing.B) {
	in := New()
	const n = 4096
	rel := NewRelation(2)
	for i := 0; i < n; i++ {
		rel.Insert([]ID{in.InternInt(int64(i)), in.InternInt(int64(i + 1))})
	}
	row := make([]ID, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % n)
		row[0], row[1] = in.InternInt(k), in.InternInt(k+1)
		if !has(rel, row) {
			b.Fatal("missing row")
		}
	}
}

func BenchmarkMembershipStructural(b *testing.B) {
	const n = 4096
	elems := make([]value.Value, n)
	for i := range elems {
		elems[i] = value.NewTuple(value.Int(int64(i)), value.Int(int64(i+1)))
	}
	s := value.NewSet(elems...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % n)
		// A fresh tuple each probe: no cache cell, like a just-computed join key.
		if !s.Has(value.NewTuple(value.Int(k), value.Int(k+1))) {
			b.Fatal("missing element")
		}
	}
}
