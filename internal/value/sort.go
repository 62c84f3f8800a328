package value

import (
	"cmp"
	"slices"
)

// radixMin is the size below which SortValues compare-sorts even integer
// input: under it the radix's key extraction, byte passes and three scratch
// slices cost more than the comparisons they save. Measured on random
// integers below 5·10^4, the radix is faster from about 32 pairs and from
// about 64–128 scalars.
const radixMin = 64

// SortValues sorts vs in place by the total order on values. When every
// element is an Int, or every element a tuple of one width whose components
// are all Ints, and there are at least radixMin of them, it sorts them by
// RadixOrder on their integers; otherwise it compare-sorts.
func SortValues(vs []Value) { sortValues(vs, false) }

// canonical sorts vs in place and drops its duplicates, returning the
// canonical prefix; input already strictly increasing is left as it is.
func canonical(vs []Value) []Value {
	if increasing(vs) {
		return vs
	}
	return sortValues(vs, true)
}

// sortValues is SortValues, and with dedup it also drops duplicates,
// returning the sorted prefix of vs. On the radix path the duplicates are
// found by their integers, without touching a value.
func sortValues(vs []Value, dedup bool) []Value {
	if len(vs) >= radixMin {
		if keys, width := intKeys(vs); keys != nil {
			order, kept := RadixOrder(keys, width), len(vs)
			if dedup {
				kept = uniqueFirst(order, keys, width)
			}
			permute(vs, order)
			clear(vs[kept:])
			return vs[:kept]
		}
	}
	slices.SortFunc(vs, compare)
	if dedup {
		return slices.CompactFunc(vs, func(a, b Value) bool { return compare(a, b) == 0 })
	}
	return vs
}

// RadixOrder returns the order of the rows of width integers that keys holds
// back to back: the permutation of their indices that lists them ascending,
// compared column by column from the left, equal rows keeping their relative
// order. It is a least-significant-digit radix sort: column by column from
// the last, one stable counting pass per byte of the range of the column's
// values, skipping a byte every row shares.
func RadixOrder(keys []int64, width int) []int32 {
	rows := len(keys) / width
	order, tmp := make([]int32, rows), make([]int32, rows)
	for i := range order {
		order[i] = int32(i)
	}
	for col := width - 1; rows > 0 && col >= 0; col-- {
		lo, hi := keys[col], keys[col]
		for i := col; i < len(keys); i += width {
			lo, hi = min(lo, keys[i]), max(hi, keys[i])
		}
		// hi-lo and k-lo wrap for a range over 2^63, and read unsigned they
		// are still the right offsets.
		for shift := 0; shift < 64 && uint64(hi-lo)>>shift != 0; shift += 8 {
			// The counts do not depend on the order, so they are taken in
			// one sequential sweep; only the scatter follows the order.
			var count [256]int
			for i := col; i < len(keys); i += width {
				count[uint64(keys[i]-lo)>>shift&255]++
			}
			if count[uint64(keys[col]-lo)>>shift&255] == rows {
				continue // every row has this byte: the pass would keep the order
			}
			at := 0
			for d, c := range count {
				count[d], at = at, at+c
			}
			for _, o := range order {
				d := uint64(keys[int(o)*width+col]-lo) >> shift & 255
				tmp[count[d]], count[d] = o, count[d]+1
			}
			order, tmp = tmp, order
		}
	}
	return order
}

// intKeys returns the integers of vs back to back, and how many there are
// per element, when every element is an Int or every element a non-empty
// tuple of one width whose components are all Ints; nil otherwise.
func intKeys(vs []Value) ([]int64, int) {
	width, scalar := 1, true
	switch v := vs[0].(type) {
	case Int:
	case Tuple:
		width, scalar = len(v.elems), false
		if width == 0 {
			return nil, 0
		}
	default:
		return nil, 0
	}
	keys := make([]int64, 0, len(vs)*width)
	for _, v := range vs {
		if scalar {
			x, ok := v.(Int)
			if !ok {
				return nil, 0
			}
			keys = append(keys, int64(x))
			continue
		}
		t, ok := v.(Tuple)
		if !ok || len(t.elems) != width {
			return nil, 0
		}
		for _, e := range t.elems {
			x, ok := e.(Int)
			if !ok {
				return nil, 0
			}
			keys = append(keys, int64(x))
		}
	}
	return keys, width
}

// uniqueFirst reorders a radix order in place so that the first row of each
// run of equal rows comes first, in order, and the others after them, and
// returns the number of distinct rows. Equal rows are adjacent in the order,
// so a row repeats exactly when it equals the last row kept.
func uniqueFirst(order []int32, keys []int64, width int) int {
	row := func(o int32) []int64 { return keys[int(o)*width : int(o)*width+width] }
	kept := 0
	for i, o := range order {
		if kept > 0 && slices.Equal(row(o), row(order[kept-1])) {
			continue
		}
		order[kept], order[i] = o, order[kept]
		kept++
	}
	return kept
}

// permute rearranges vs in place so that vs[i] becomes the old vs[order[i]],
// following each cycle of the permutation once; it consumes order.
func permute(vs []Value, order []int32) {
	for i := range order {
		if order[i] < 0 {
			continue
		}
		held, j := vs[i], i
		for {
			k := int(order[j])
			order[j] = -1
			if k == i {
				vs[j] = held
				break
			}
			vs[j], j = vs[k], k
		}
	}
}

// compare is a.Compare(b), with two Ints compared in place instead of
// through the interface.
func compare(a, b Value) int {
	if x, ok := a.(Int); ok {
		if y, ok := b.(Int); ok {
			return cmp.Compare(x, y)
		}
	}
	return a.Compare(b)
}

// increasing reports whether vs is strictly increasing: sorted and free of
// duplicates, so already canonical.
func increasing(vs []Value) bool {
	for i := 1; i < len(vs); i++ {
		if compare(vs[i-1], vs[i]) >= 0 {
			return false
		}
	}
	return true
}
