package value

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortValuesMatchesCompareSort checks the radix path of SortValues, and
// the comparison sort it falls back to, against slices.SortFunc by
// Value.Compare, and SetBuilder.Set and NewSet against that plus
// deduplication, on random inputs: Int scalars and uniform Int tuples of
// widths 1–4, with negative values, the full int64 range (MinInt64 beside
// MaxInt64, whose difference overflows), duplicates, sizes on both sides of
// radixMin, and inputs of mixed kinds or widths, which must fall back.
func TestSortValuesMatchesCompareSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(name string, vs []Value, radix bool) {
		t.Helper()
		if keys, _ := intKeys(vs); (keys != nil) != radix {
			t.Fatalf("%s: radix-eligible = %v, want %v", name, keys != nil, radix)
		}
		want := slices.Clone(vs)
		slices.SortFunc(want, Value.Compare)
		got := slices.Clone(vs)
		SortValues(got)
		if !slices.EqualFunc(got, want, Equal) {
			t.Fatalf("%s: SortValues differs from the comparison sort on %d elements", name, len(vs))
		}
		want = slices.CompactFunc(want, Equal)
		b := NewSetBuilder(len(vs))
		for _, v := range vs {
			b.Add(v)
		}
		if set := b.Set(); !slices.EqualFunc(set.elems, want, Equal) {
			t.Fatalf("%s: SetBuilder.Set() = %v, want %v", name, set, SetFromSorted(want))
		}
		if set := NewSet(vs...); !slices.EqualFunc(set.elems, want, Equal) {
			t.Fatalf("%s: NewSet = %v, want %v", name, set, SetFromSorted(want))
		}
	}
	draws := map[string]func() int64{
		"small":      func() int64 { return r.Int63n(20) },
		"negative":   func() int64 { return r.Int63n(2000) - 1000 },
		"wide":       func() int64 { return r.Int63n(1<<40) - 1<<39 },
		"full range": func() int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1, r.Int63(), -r.Int63()}[r.Intn(6)] },
	}
	for dname, draw := range draws {
		for width := 0; width <= 4; width++ { // 0: Int scalars
			for _, n := range []int{1, 2, radixMin/2 - 1, radixMin / 2, radixMin - 1, radixMin, radixMin + 1, 1000} {
				vs := make([]Value, n)
				for i := range vs {
					if width == 0 {
						vs[i] = Int(draw())
						continue
					}
					parts := make([]Value, width)
					for j := range parts {
						parts[j] = Int(draw())
					}
					vs[i] = NewTuple(parts...)
				}
				vs = append(vs, vs[:n/2]...) // duplicates, out of order
				check(fmt.Sprintf("%s/width %d/%d", dname, width, len(vs)), vs, true)
			}
		}
	}

	// The full range in one column: MinInt64 and MaxInt64 side by side.
	var extremes []Value
	for i := 0; i < 2*radixMin; i++ {
		extremes = append(extremes, NewTuple(Int([]int64{math.MinInt64, math.MaxInt64}[i%2]), Int(int64(i%3))))
	}
	check("extremes", extremes, true)

	// Mixed kinds or widths fall back to the comparison sort.
	mixed := map[string]func(i int) Value{
		"an Int among tuples":   func(i int) Value { return NewTuple(Int(int64(-i)), Int(int64(i%7))) },
		"two widths":            func(i int) Value { return NewTuple(Int(int64(i % 5))) },
		"a string component":    func(i int) Value { return NewTuple(Int(int64(i%11)), Int(int64(i))) },
		"scalars then a tuple":  func(i int) Value { return Int(int64(r.Intn(50) - 25)) },
		"empty tuples and ints": func(i int) Value { return NewTuple() },
	}
	odd := map[string]Value{
		"an Int among tuples":   Int(3),
		"two widths":            NewTuple(Int(1), Int(2)),
		"a string component":    NewTuple(Int(4), String("x")),
		"scalars then a tuple":  NewTuple(Int(0)),
		"empty tuples and ints": Int(7),
	}
	for name, gen := range mixed {
		for _, at := range []int{0, radixMin / 2, 2*radixMin - 1} {
			vs := make([]Value, 2*radixMin)
			for i := range vs {
				vs[i] = gen(i)
			}
			vs[at] = odd[name]
			check(name, vs, false)
		}
	}
}

// TestRadixOrderIsStable checks that rows with equal keys keep their
// relative order: the LSD passes rely on it from one column to the next.
func TestRadixOrderIsStable(t *testing.T) {
	keys := []int64{5, 1, 3, 9, 5, 0, 3, 2, 5, -1}
	order := RadixOrder(keys, 2) // rows (5,1) (3,9) (5,0) (3,2) (5,-1)
	if want := []int32{3, 1, 4, 2, 0}; !slices.Equal(order, want) {
		t.Errorf("RadixOrder by two columns = %v, want %v", order, want)
	}
	order = RadixOrder([]int64{2, 1, 2, 1, 0}, 1)
	if want := []int32{4, 1, 3, 0, 2}; !slices.Equal(order, want) {
		t.Errorf("RadixOrder of equal keys = %v, want %v", order, want)
	}
	if got := RadixOrder(nil, 3); len(got) != 0 {
		t.Errorf("RadixOrder of no rows = %v", got)
	}
}
