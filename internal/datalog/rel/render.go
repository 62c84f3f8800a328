package rel

import (
	"encoding/json"
	"slices"
	"unicode/utf8"
	"unsafe"

	"algrec/internal/datalog"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// SortedKeys renders rows of one predicate as fact keys ("tc(1, 2)") in
// CompareFacts order (sortRows) into one text (renderKeys). Outcomes and
// deltas of both clients, and the fact base, render their rows through it.
// each calls its argument on every row, once or twice; the rows stay valid
// and are only read.
func SortedKeys(pred string, each func(f func(row []intern.ID))) (keys []string, text string) {
	n, row := sortRows(each)
	in := intern.Global()
	return renderKeys(n, func(buf []byte, i int) []byte { return appendKey(buf, pred, row(i), in.AppendText) })
}

// sortRows orders the n rows each lists in CompareFacts order — argument-wise
// by the values behind the IDs, a shorter row before its extensions — and
// row(i) returns the ith. Rows of one width are read back to back into one
// slice and ordered by OrderRows; rows of mixed widths, or none, are
// compare-sorted.
func sortRows(each func(f func(row []intern.ID))) (n int, row func(i int) []intern.ID) {
	var ids []intern.ID
	width := -1
	each(func(r []intern.ID) {
		if n == 0 {
			width = len(r)
		} else if len(r) != width {
			width = 0
		}
		if len(ids)+len(r) > cap(ids) { // double, not append's quarter steps
			ids = slices.Grow(ids, max(len(ids), 64))
		}
		ids = append(ids, r...)
		n++
	})
	if width > 0 {
		order := OrderRows(ids, width)
		return n, func(i int) []intern.ID {
			r := int(order[i]) * width
			return ids[r : r+width]
		}
	}
	rows := make([][]intern.ID, 0, n)
	each(func(r []intern.ID) { rows = append(rows, r) })
	in := intern.Global()
	slices.SortFunc(rows, func(a, b []intern.ID) int { return compareRows(in, a, b) })
	return n, func(i int) []intern.ID { return rows[i] }
}

// FactKeys renders facts, in the order given, as renderKeys does.
func FactKeys(facts []datalog.Fact) (keys []string, text string) {
	return renderKeys(len(facts), func(buf []byte, i int) []byte {
		return appendKey(buf, facts[i].Pred, facts[i].Args, value.Append)
	})
}

// appendKey appends the key ("tc(1, 2)") of a fact whose arguments arg writes.
func appendKey[T any](buf []byte, pred string, args []T, arg func([]byte, T) []byte) []byte {
	buf = append(append(buf, pred...), '(')
	for k, a := range args {
		if k > 0 {
			buf = append(buf, ", "...)
		}
		buf = arg(buf, a)
	}
	return append(buf, ')')
}

// renderKeys renders a predicate's facts once: key appends the ith of n keys.
// The text holds every key as a JSON string, comma-separated — the body of
// the JSON array a response sends, copied whole — and each key returned is a
// view into it, except a key JSON escapes, which is a string of its own while
// the text holds its escaped form. No facts are (nil, "").
func renderKeys(n int, key func(buf []byte, i int) []byte) ([]string, string) {
	if n == 0 {
		return nil, ""
	}
	keys, at := make([]string, n), make([]int32, n)
	var buf []byte
	for i := range keys {
		if i > 0 && cap(buf)-len(buf) < 64 { // room for the rest, at the mean key so far
			buf = slices.Grow(buf, len(buf)/i*(n-i)*9/8+64)
		}
		buf = append(buf, '"')
		at[i] = int32(len(buf))
		buf, keys[i] = EscapeTail(key(buf, i), int(at[i]))
		buf = append(buf, '"', ',')
	}
	buf = buf[:len(buf)-1]
	// buf is never written again: the text is a view of it, as
	// strings.Builder's String is of its buffer.
	text := unsafe.String(unsafe.SliceData(buf), len(buf))
	for i := range keys {
		if keys[i] == "" {
			end := len(text) - 1
			if i+1 < n {
				end = int(at[i+1]) - 3 // before `","`
			}
			keys[i] = text[at[i]:end]
		}
	}
	return keys, text
}

// EscapeTail escapes buf[from:], text just appended to buf, for a JSON string
// in place, exactly as encoding/json escapes a string: quote, backslash and
// control characters, HTML's <, > and &, U+2028 and U+2029, and invalid UTF-8.
// Text of none of these, and of no other non-ASCII character, stays as it
// is, and raw is "". Otherwise raw is a copy of the text, and buf holds its
// escaped form.
func EscapeTail(buf []byte, from int) (out []byte, raw string) {
	for _, b := range buf[from:] {
		if b < 0x20 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' || b >= utf8.RuneSelf {
			raw = string(buf[from:])
			q, _ := json.Marshal(raw) // a string always marshals
			return append(buf[:from], q[1:len(q)-1]...), raw
		}
	}
	return buf, ""
}
