// Package value implements the complex-object data model shared by every
// language in this repository: the algebra, algebra=, and the deductive
// language all manipulate the same universe of values.
//
// A Value is a boolean, a 64-bit integer, a string (which doubles as an
// uninterpreted atom/symbol), a tuple of values, or a finite set of values.
// Values are immutable once constructed. Sets are kept in a canonical sorted,
// duplicate-free form, so structural equality coincides with set equality and
// String() is an injective encoding usable as a map key.
//
// The total order provided by Compare is arbitrary but fixed: values of
// different kinds are ordered by kind, and values of the same kind are ordered
// by their natural content order. The order exists to canonicalize sets and to
// make results deterministic; no language construct exposes it except the
// explicit comparison predicates on integers and strings.
package value

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// vcache is the mutable cache cell shared by all copies of one Tuple or Set:
// the canonical String() encoding, computed at most once, and the value's
// process-global intern id (0 while unassigned — intern ids start at 1).
// Both fields are monotonic (unset → set-once), so racing writers agree and
// atomic access keeps readers race-clean.
type vcache struct {
	str atomic.Pointer[string]
	id  atomic.Uint32
}

// cachedEqual reports whether two cache cells prove their owners equal: the
// same cell (copies of one value), or both carrying the same nonzero
// process-global intern id. It never proves inequality — ids may simply not
// be assigned yet — so callers fall through to the structural comparison.
func cachedEqual(a, b *vcache) bool {
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return true
	}
	ida := a.id.Load()
	return ida != 0 && ida == b.id.Load()
}

// InternID returns the process-global intern id cached on v, or 0 when none
// is assigned (scalars and the zero Set have no cache cell). It is the seam
// internal/value/intern uses to make re-interning a value O(1).
func InternID(v Value) uint32 {
	switch vv := v.(type) {
	case Tuple:
		if vv.c != nil {
			return vv.c.id.Load()
		}
	case Set:
		if vv.c != nil {
			return vv.c.id.Load()
		}
	}
	return 0
}

// CacheInternID records the process-global intern id on v's cache cell. It
// is a no-op for scalar values and the zero Set, which have no cell. Only
// the process-global interner may call it — private interners caching their
// ids here would corrupt every other user of the cell.
func CacheInternID(v Value, id uint32) {
	switch vv := v.(type) {
	case Tuple:
		if vv.c != nil {
			vv.c.id.Store(id)
		}
	case Set:
		if vv.c != nil {
			vv.c.id.Store(id)
		}
	}
}

// Kind identifies the variant of a Value.
type Kind uint8

// The value kinds, in comparison order.
const (
	KindBool Kind = iota
	KindInt
	KindString
	KindTuple
	KindSet
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	case KindSet:
		return "set"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a complex-object value. It is a sealed interface: the only
// implementations are Bool, Int, String, Tuple and Set.
type Value interface {
	// Kind reports the variant.
	Kind() Kind
	// Compare returns -1, 0 or +1 as the receiver sorts before, equal to,
	// or after other in the fixed total order on values.
	Compare(other Value) int
	// String returns a canonical, injective textual encoding.
	String() string

	isValue()
}

// Bool is a boolean value. The paper treats TRUE and FALSE as ordinary
// values of the specification (not meta-level truth), which is exactly why
// negation is needed to define MEM totally; Bool plays that role here.
type Bool bool

// Int is a 64-bit integer value.
type Int int64

// String is a string value; lowercase identifiers in program text (symbols
// such as `a` or `paris`) are represented as String values.
type String string

// Tuple is an ordered, fixed-length sequence of values.
type Tuple struct {
	elems []Value
	c     *vcache // shared by copies; nil only for the zero Tuple
}

func (Bool) isValue()   {}
func (Int) isValue()    {}
func (String) isValue() {}
func (Tuple) isValue()  {}
func (Set) isValue()    {}

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// Kind implements Value.
func (String) Kind() Kind { return KindString }

// Kind implements Value.
func (Tuple) Kind() Kind { return KindTuple }

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// NewTuple returns the tuple of the given elements. The slice is copied.
func NewTuple(elems ...Value) Tuple {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Tuple{elems: cp, c: &vcache{}}
}

// tupleFromOwned wraps a slice the caller promises not to retain.
func tupleFromOwned(elems []Value) Tuple { return Tuple{elems: elems, c: &vcache{}} }

// Pair returns the 2-tuple [a, b], the element shape produced by the
// algebra's cartesian product.
func Pair(a, b Value) Tuple { return NewTuple(a, b) }

// Len returns the number of elements of the tuple.
func (t Tuple) Len() int { return len(t.elems) }

// At returns the i-th element, 0-based. It panics if i is out of range.
func (t Tuple) At(i int) Value { return t.elems[i] }

// Elems returns a copy of the tuple's elements.
func (t Tuple) Elems() []Value {
	cp := make([]Value, len(t.elems))
	copy(cp, t.elems)
	return cp
}

// Compare implements Value.
func (b Bool) Compare(other Value) int {
	o, same := other.(Bool)
	if !same {
		return compareKinds(KindBool, other.Kind())
	}
	switch {
	case b == o:
		return 0
	case !bool(b): // false < true
		return -1
	default:
		return 1
	}
}

// Compare implements Value.
func (i Int) Compare(other Value) int {
	o, same := other.(Int)
	if !same {
		return compareKinds(KindInt, other.Kind())
	}
	switch {
	case i < o:
		return -1
	case i > o:
		return 1
	default:
		return 0
	}
}

// Compare implements Value.
func (s String) Compare(other Value) int {
	o, same := other.(String)
	if !same {
		return compareKinds(KindString, other.Kind())
	}
	return strings.Compare(string(s), string(o))
}

// Compare implements Value.
func (t Tuple) Compare(other Value) int {
	o, same := other.(Tuple)
	if !same {
		return compareKinds(KindTuple, other.Kind())
	}
	if cachedEqual(t.c, o.c) {
		return 0
	}
	return compareSlices(t.elems, o.elems)
}

// compareKinds orders values of different kinds. It takes the kinds, not
// the values: passing a scalar receiver as a Value would box it on every
// comparison.
func compareKinds(ka, kb Kind) int {
	if ka < kb {
		return -1
	}
	return 1
}

func compareSlices(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b are the same value.
func Equal(a, b Value) bool { return a.Compare(b) == 0 }

// String implements Value.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// String implements Value.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// String implements Value. Symbols made of lowercase letters, digits and
// underscores print bare; anything else prints quoted, keeping the encoding
// injective.
func (s String) String() string {
	if isBareSymbol(string(s)) {
		return string(s)
	}
	return strconv.Quote(string(s))
}

func isBareSymbol(s string) bool {
	if s == "" || s == "true" || s == "false" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// String implements Value. The encoding is computed once per tuple and
// cached; copies share the cache.
func (t Tuple) String() string {
	if t.c != nil {
		if s := t.c.str.Load(); s != nil {
			return *s
		}
	}
	var sb strings.Builder
	writeString(&sb, t)
	s := sb.String()
	if t.c != nil {
		t.c.str.Store(&s)
	}
	return s
}

// writeString writes v's encoding to sb, one buffer for the whole value: the
// components' encodings are used where cached, never built and cached one by
// one, so rendering a large set makes one string.
func writeString(sb *strings.Builder, v Value) {
	var elems []Value
	left, right := byte('('), byte(')')
	switch vv := v.(type) {
	case Int:
		var digits [20]byte
		sb.Write(strconv.AppendInt(digits[:0], int64(vv), 10))
		return
	case Tuple:
		if vv.c != nil && vv.c.str.Load() != nil {
			sb.WriteString(*vv.c.str.Load())
			return
		}
		elems = vv.elems
	case Set:
		if vv.c != nil && vv.c.str.Load() != nil {
			sb.WriteString(*vv.c.str.Load())
			return
		}
		elems, left, right = vv.flat(), '{', '}'
	default:
		sb.WriteString(v.String())
		return
	}
	sb.WriteByte(left)
	for i, e := range elems {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeString(sb, e)
	}
	sb.WriteByte(right)
}

// Append appends v's text, as v.String() prints it, to buf; an Int is written
// without a string of its own.
func Append(buf []byte, v Value) []byte {
	if x, ok := v.(Int); ok {
		return strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, v.String()...)
}

// Key returns the canonical map key for v. It is v.String(); the alias exists
// to make call sites that use values as map keys self-describing.
func Key(v Value) string { return v.String() }
