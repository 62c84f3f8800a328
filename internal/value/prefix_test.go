package value

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// prefixComponent draws a tuple component from a small domain, so random
// tuples share prefixes often: integers, strings, and occasionally a nested
// tuple or a set.
func prefixComponent(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return String([]string{"a", "b"}[r.Intn(2)])
	case 1:
		return NewTuple(Int(r.Intn(2)), Int(r.Intn(2)))
	case 2:
		return NewSet(Int(r.Intn(2)))
	default:
		return Int(r.Intn(4))
	}
}

// prefixElem draws a set element: mostly tuples of 0 to 3 components, beside
// scalars of every kind and sets, which sort around the tuples.
func prefixElem(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return randValue(r, 0) // a scalar
	case 1:
		return NewSet(prefixComponent(r))
	default:
		elems := make([]Value, r.Intn(4))
		for i := range elems {
			elems[i] = prefixComponent(r)
		}
		return NewTuple(elems...)
	}
}

// scanPrefix is PrefixRange by definition: filter the elements one by one.
func scanPrefix(s Set, prefix []Value) Set {
	out, _ := s.Select(func(v Value) (bool, error) {
		t, ok := v.(Tuple)
		if !ok || t.Len() < len(prefix) {
			return false, nil
		}
		for i, p := range prefix {
			if !Equal(t.At(i), p) {
				return false, nil
			}
		}
		return true, nil
	})
	return out
}

// TestPropertyPrefixRange: the binary-search range equals the filter-by-scan
// on heterogeneous sets — scalars, the empty tuple, tuples of mixed length,
// nested tuples and sets as components, sets as elements — for prefixes of
// 0, 1 and 2 components whose keys are present, absent, or of a kind no
// element has there; and narrowing a range again equals the longer prefix.
func TestPropertyPrefixRange(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elems := make([]Value, r.Intn(60))
		for i := range elems {
			elems[i] = prefixElem(r)
		}
		s := NewSet(elems...)
		key := func() Value {
			if r.Intn(5) == 0 {
				return []Value{Bool(true), Int(99), String("zz"), NewTuple(), NewSet()}[r.Intn(5)]
			}
			return prefixComponent(r)
		}
		for trial := 0; trial < 20; trial++ {
			prefix := make([]Value, r.Intn(3))
			for i := range prefix {
				prefix[i] = key()
			}
			got, want := s.PrefixRange(prefix...), scanPrefix(s, prefix)
			if !Equal(got, want) {
				t.Logf("seed %d: %v.PrefixRange(%v) = %v, want %v", seed, s, prefix, got, want)
				return false
			}
			if len(prefix) == 2 {
				if again := s.PrefixRange(prefix[0]).PrefixRange(prefix...); !Equal(again, want) {
					t.Logf("seed %d: narrowing the range of %v to %v = %v, want %v", seed, prefix[0], prefix, again, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestPrefixRangeSharesStorage pins the non-copying contract: the range is a
// window onto the receiver's elements, and a range covering the whole set is
// the receiver itself.
func TestPrefixRangeSharesStorage(t *testing.T) {
	s := NewSet(Pair(Int(1), Int(1)), Pair(Int(1), Int(2)), Pair(Int(2), Int(1)), Pair(Int(3), Int(1)))
	allocs := testing.AllocsPerRun(100, func() {
		if s.PrefixRange(Int(1)).Len() != 2 {
			t.Fatal("wrong range")
		}
	})
	// The key slice and the range's cache cell; never the elements.
	if allocs > 2 {
		t.Errorf("PrefixRange allocated %.0f times per call; the elements must not be copied", allocs)
	}
	if whole := s.PrefixRange(); whole.c != s.c {
		t.Error("the range of every element is not the receiver itself")
	}
	if !s.PrefixRange(Int(9)).IsEmpty() || !EmptySet.PrefixRange(Int(1)).IsEmpty() {
		t.Error("absent key or empty set: want the empty range")
	}
}
