// Package intern implements hash-consing for the value model: every
// value.Value maps to a canonical ID (a uint32), so structural equality
// becomes integer comparison and nested objects can be built bottom-up from
// the IDs of their parts without re-hashing their contents.
//
// An Interner is an append-only arena plus a hash index split into 64
// shards. Each shard's index is an open-addressed array of {hash, ID, kind}
// slots: it holds no pointers, so the collector never scans it; a slot's
// position comes from the hash bits above the six that pick the shard;
// probing is linear and the array doubles at half load. Nothing is ever
// deleted: IDs are never reused or reassigned, so a published ID is
// immutable evidence: two values interned by the same Interner are
// structurally equal iff their IDs are equal. Arena IDs are dense from 1; an
// integer in [smallIntRange, 2^31) is its own ID (intTag), so fresh node
// numbers leave nothing behind. The process-global interner
// (Global) additionally writes each value's ID back onto the value's cache
// cell, which makes re-interning O(1) and lets value.Compare prove equality
// from two cached IDs without walking either value.
//
// A hit allocates nothing: a tuple's member IDs sit in a stack buffer, and an
// integer is found from its slot alone, never boxed. A miss allocates only
// the new value (none when Intern was handed it); its member IDs are carved
// from a per-shard slab, and the index and the arena grow in amortized steps.
//
// Concurrency: Intern, InternTuple, InternSet and InternInt take one shard
// lock plus a short arena lock on first sight of a value; Lookup is
// lock-free (an atomic load of the chunk directory). The arena only grows,
// entries are written before their ID is published, and publication happens
// under a shard mutex or through an atomic cache-cell store, so readers that
// hold an ID always observe its fully-written entry. The package is
// -race-clean under concurrent use from the server's executor pool.
package intern

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"algrec/internal/value"
)

// ID is the canonical identifier of an interned value. The zero ID is
// invalid: real IDs start at 1, so a zero in a cache cell or a row slot
// unambiguously means "not interned yet".
type ID uint32

const (
	// shardBits low hash bits pick a value's shard; the bits above them
	// place it in that shard's slot array.
	shardBits = 6
	nShards   = 1 << shardBits
	shardMask = nShards - 1

	// minSlots is a shard's initial slot count (a power of two).
	minSlots = 16

	// slabSize is the ID count of a shard's signature slab; a signature
	// longer than slabWide gets an allocation of its own.
	slabSize, slabWide = 1024, 64

	// stackIDs is the widest value whose member IDs Intern keeps on the stack.
	stackIDs = 8

	// chunkBits sizes the arena chunks (4096 entries each). Chunks are never
	// moved once allocated, so &entry stays valid across growth and the
	// directory can be republished with a plain copy.
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// smallIntRange bounds the direct-indexed fast path for InternInt: the
	// workload integers of every experiment (chain node numbers, generated
	// scalars) land far below it.
	smallIntRange = 1 << 14

	// intTag is the top bit of an ID: set, the other 31 bits are an integer
	// at or above smallIntRange, which Lookup boxes afresh; clear, the ID
	// names an arena entry, as the smaller integers keep so that Lookup hands
	// them back without allocating.
	intTag = 1 << 31
)

// entry is one arena cell: the canonical value and, for tuples and sets, the
// IDs of its elements (in tuple order / canonical set order). sub doubles as
// the structural signature used to verify a probe's candidates, so a probe
// never needs a deep Compare.
type entry struct {
	v   value.Value
	sub []ID // nil for scalars
}

// slot is one index entry; ID 0 marks it empty. The value's kind rides in
// the hash's padding, so a probe passes values of other kinds without
// reading the arena, and an int, whose hash is a bijection of it, is found
// from its slot alone.
type slot struct {
	hash uint64
	id   ID
	kind value.Kind
}

// shard is one lock's share of the hash index, guarded by mu.
type shard struct {
	mu    sync.Mutex
	slots []slot // open-addressed, len a power of two, at most half full
	used  int
	slab  []ID // the rest of the current signature slab
}

// probe walks the probe path of hash h. It returns the first ID on it of
// the given kind that match accepts (a nil match accepts any), or 0 and the
// index of the empty slot that ends the path.
func (sh *shard) probe(h uint64, kind value.Kind, match func(ID) bool) (ID, int) {
	mask := len(sh.slots) - 1
	for i := int(h>>shardBits) & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s.id == 0 {
			return 0, i
		}
		if s.hash == h && s.kind == kind && (match == nil || match(s.id)) {
			return s.id, i
		}
	}
}

// insert publishes s in the empty slot i that probe returned for it, then
// doubles the array if that made it half full.
func (sh *shard) insert(i int, s slot) {
	sh.slots[i] = s
	if sh.used++; 2*sh.used < len(sh.slots) {
		return
	}
	old := sh.slots
	sh.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.id != 0 {
			_, j := sh.probe(s.hash, s.kind, func(ID) bool { return false })
			sh.slots[j] = s
		}
	}
}

// carve returns a copy of ids the shard owns: a capped window of its slab,
// or an allocation of its own when ids is wide. The copy is never nil, even
// when empty: a nil signature marks a scalar.
func (sh *shard) carve(ids []ID) []ID {
	if len(ids) > slabWide {
		return append(make([]ID, 0, len(ids)), ids...)
	}
	if len(ids) > cap(sh.slab)-len(sh.slab) || sh.slab == nil {
		sh.slab = make([]ID, 0, slabSize)
	}
	at := len(sh.slab)
	sh.slab = append(sh.slab, ids...)
	return sh.slab[at:len(sh.slab):len(sh.slab)]
}

// Interner is a hash-consing arena. The zero value is not usable; construct
// with New, or use the shared process-global instance from Global.
type Interner struct {
	// global marks the process-global interner, the only one allowed to
	// write IDs into value cache cells (a private interner's IDs would
	// corrupt the cells for everyone else).
	global bool

	shards [nShards]shard

	mu   sync.Mutex // guards arena growth (dir republish, next)
	dir  atomic.Pointer[[]*chunk]
	next atomic.Uint32 // count of assigned IDs; written under mu

	smallInts []atomic.Uint32 // value.Int(i) -> ID, 0 = not yet consed

	trueID, falseID ID
}

type chunk struct {
	entries [chunkSize]entry
}

// New returns a fresh private interner with its own ID space. Private
// interners never touch value cache cells; tests use them to exercise the
// consing logic in isolation.
func New() *Interner { return newInterner(false) }

var globalInterner = newInterner(true)

// Global returns the process-global interner shared by every engine and, via
// the server, by all named databases. Its IDs are the ones cached on value
// cells and used by the Compare fast path.
func Global() *Interner { return globalInterner }

func newInterner(global bool) *Interner {
	in := &Interner{
		global:    global,
		smallInts: make([]atomic.Uint32, smallIntRange),
	}
	for i := range in.shards {
		in.shards[i].slots = make([]slot, minSlots)
	}
	dir := make([]*chunk, 0)
	in.dir.Store(&dir)
	in.trueID = in.Intern(value.True)
	in.falseID = in.Intern(value.False)
	return in
}

// Len returns the number of values in the arena (own-ID integers excluded).
func (in *Interner) Len() int { return int(in.next.Load()) }

// Lookup returns the canonical value for id. It is lock-free and safe for
// concurrent use. Lookup panics if id is zero or was not issued by this
// interner.
func (in *Interner) Lookup(id ID) value.Value {
	if id&intTag != 0 {
		return value.Int(id &^ intTag)
	}
	return in.entryOf(id).v
}

// AppendText appends the text of id's value, as value.Append writes it, to
// buf. An own-ID integer is written from its ID, without boxing its value.
func (in *Interner) AppendText(buf []byte, id ID) []byte {
	if id&intTag != 0 {
		return strconv.AppendInt(buf, int64(id&^intTag), 10)
	}
	return value.Append(buf, in.entryOf(id).v)
}

// Elems returns the element IDs of an interned tuple or set (tuple order,
// respectively canonical set order), or nil for a scalar. The returned slice
// is owned by the interner and must not be modified.
func (in *Interner) Elems(id ID) []ID {
	if id&intTag != 0 {
		return nil
	}
	return in.entryOf(id).sub
}

func (in *Interner) entryOf(id ID) *entry {
	if id == 0 {
		panic("intern: Lookup of zero ID")
	}
	i := uint32(id) - 1
	dir := *in.dir.Load()
	return &dir[i>>chunkBits].entries[i&chunkMask]
}

// Intern returns the canonical ID for v, assigning one if v has not been
// seen. Nested tuples and sets are consed bottom-up, so a second Intern of a
// structurally equal value — however it was built — returns the same ID.
func (in *Interner) Intern(v value.Value) ID {
	if in.global {
		if id := value.InternID(v); id != 0 {
			return ID(id)
		}
	}
	switch vv := v.(type) {
	case value.Bool:
		// trueID/falseID are 0 only during newInterner's own bootstrap.
		if vv && in.trueID != 0 {
			return in.trueID
		}
		if !vv && in.falseID != 0 {
			return in.falseID
		}
		return in.internScalar(v, hashBool(bool(vv)))
	case value.Int:
		return in.InternInt(int64(vv))
	case value.String:
		return in.internScalar(v, hashString(string(vv)))
	case value.Tuple, value.Set:
		elems := v.(interface {
			Len() int
			At(int) value.Value
		})
		var buf [stackIDs]ID
		ids := buf[:0]
		if elems.Len() > len(buf) {
			ids = make([]ID, 0, elems.Len())
		}
		for i := 0; i < elems.Len(); i++ {
			ids = append(ids, in.Intern(elems.At(i)))
		}
		return in.internNode(v.Kind(), ids, v)
	default:
		panic("intern: unknown value kind")
	}
}

// InternInt returns the canonical ID for the integer i. Small non-negative
// integers resolve through a direct-indexed array: one atomic load on a hit;
// the larger ones below 2^31 are their own ID.
func (in *Interner) InternInt(i int64) ID {
	if i >= smallIntRange && i < intTag {
		return ID(i) | intTag
	}
	if i >= 0 && i < smallIntRange {
		if id := in.smallInts[i].Load(); id != 0 {
			return ID(id)
		}
		id := in.internInt(i)
		in.smallInts[i].Store(uint32(id))
		return id
	}
	return in.internInt(i)
}

// IntOf returns the integer id stands for, and whether it stands for one,
// without boxing it.
func (in *Interner) IntOf(id ID) (int64, bool) {
	if id&intTag != 0 {
		return int64(id &^ intTag), true
	}
	x, ok := in.entryOf(id).v.(value.Int)
	return int64(x), ok
}

// InternString returns the canonical ID of the string s without boxing it
// first. A miss stores a copy of s, so the arena never shares the caller's
// bytes (a parser's source text, say).
func (in *Interner) InternString(s string) ID {
	match := func(c ID) bool {
		t, ok := in.entryOf(c).v.(value.String)
		return ok && string(t) == s
	}
	return in.cons(hashString(s), value.KindString, match, func(*shard) entry {
		return entry{v: value.String(strings.Clone(s))}
	})
}

// internInt interns i. Its hash and kind identify it, so a probe reads no
// candidate value, and only a miss boxes i.
func (in *Interner) internInt(i int64) ID {
	return in.cons(hashInt(i), value.KindInt, nil, func(*shard) entry { return entry{v: value.Int(i)} })
}

// InternTuple returns the canonical ID of the tuple whose elements are the
// given already-interned IDs, materializing the tuple value only on first
// sight: the consing constructor that turns an ID row into one ID.
func (in *Interner) InternTuple(ids ...ID) ID {
	return in.internNode(value.KindTuple, ids, nil)
}

// InternSet returns the canonical ID of the set of the given already-interned
// element IDs. The elements are canonicalized (sorted by the value order,
// deduplicated) first, so InternSet agrees with Intern of the equivalent
// value.NewSet regardless of input order.
func (in *Interner) InternSet(ids ...ID) ID {
	cp := make([]ID, len(ids))
	copy(cp, ids)
	sort.Slice(cp, func(i, j int) bool {
		return in.Lookup(cp[i]).Compare(in.Lookup(cp[j])) < 0
	})
	out := cp[:0]
	for _, id := range cp {
		// Equal values have equal IDs here, so adjacent-ID dedup is exact.
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return in.internNode(value.KindSet, out, nil)
}

// cons returns the ID of the value of the given kind hashing to h that
// match accepts (see probe). On a miss it appends the entry build makes and
// publishes its ID, all under the shard lock.
func (in *Interner) cons(h uint64, kind value.Kind, match func(ID) bool, build func(*shard) entry) ID {
	sh := &in.shards[h&shardMask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, at := sh.probe(h, kind, match)
	if id == 0 {
		id = in.alloc(build(sh))
		sh.insert(at, slot{hash: h, id: id, kind: kind})
	}
	return id
}

// internScalar interns a bool or string by content hash.
func (in *Interner) internScalar(v value.Value, h uint64) ID {
	return in.cons(h, v.Kind(), func(c ID) bool { return value.Equal(in.entryOf(c).v, v) },
		func(*shard) entry { return entry{v: v} })
}

// internNode interns a tuple or set given its element IDs. v is the original
// value when the caller has one (Intern) and nil when the node is built from
// IDs alone (InternTuple/InternSet); in the latter case the canonical value
// is materialized from the arena on first sight.
func (in *Interner) internNode(kind value.Kind, ids []ID, v value.Value) ID {
	match := func(c ID) bool { return idsEqual(in.entryOf(c).sub, ids) }
	id := in.cons(hashIDs(kind, ids), kind, match, func(sh *shard) entry {
		if v == nil {
			v = in.nodeValue(kind, ids)
		}
		return entry{v: v, sub: sh.carve(ids)} // own the signature: callers may reuse ids
	})
	if in.global && v != nil {
		value.CacheInternID(v, uint32(id))
	}
	return id
}

// nodeValue builds the value for a node interned from IDs alone; a narrow
// tuple's elements are gathered on the stack, since NewTuple copies them.
func (in *Interner) nodeValue(kind value.Kind, ids []ID) value.Value {
	if kind == value.KindSet {
		elems := make([]value.Value, len(ids))
		for i, id := range ids {
			elems[i] = in.Lookup(id)
		}
		// ids are in canonical set order: InternSet sorted and deduplicated them.
		return value.SetFromSorted(elems)
	}
	var buf [stackIDs]value.Value
	elems := buf[:0]
	if len(ids) > len(buf) {
		elems = make([]value.Value, 0, len(ids))
	}
	for _, id := range ids {
		elems = append(elems, in.Lookup(id))
	}
	return value.NewTuple(elems...)
}

// alloc appends a fully-written entry to the arena and returns its new ID.
// Callers publish the ID (a slot written under the shard mutex, or an atomic
// cache-cell store) only after alloc returns, which is what makes lock-free
// Lookup safe.
func (in *Interner) alloc(e entry) ID {
	in.mu.Lock()
	i := in.next.Load()
	if i+1 >= intTag {
		in.mu.Unlock()
		panic("intern: arena full")
	}
	ci, off := int(i>>chunkBits), i&chunkMask
	dir := *in.dir.Load()
	if ci >= len(dir) {
		nd := make([]*chunk, ci+1)
		copy(nd, dir)
		nd[ci] = &chunk{}
		in.dir.Store(&nd)
		dir = nd
	}
	dir[ci].entries[off] = e
	in.next.Store(i + 1)
	in.mu.Unlock()
	return ID(i + 1)
}

func idsEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Kind seeds keep hashes of different kinds decorrelated even for equal
// payload bits (Int(1) vs an ID sequence [1]).
const (
	seedBool   = 0x42085931bca93457
	seedInt    = 0x9e3779b97f4a7c15
	seedString = 0xc2b2ae3d27d4eb4f
	seedNode   = 0x2545f4914f6cdd1d
)

func hashBool(b bool) uint64 {
	if b {
		return mix64(seedBool ^ 1)
	}
	return mix64(seedBool)
}

// hashInt is a bijection on int64 (an xor and mix64's invertible steps),
// which internInt's probe relies on.
func hashInt(i int64) uint64 { return mix64(seedInt ^ uint64(i)) }

// hashString is FNV-1a folded through mix64.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(seedString ^ h)
}

func hashIDs(kind value.Kind, ids []ID) uint64 {
	h := mix64(seedNode ^ uint64(kind))
	for _, id := range ids {
		h = mix64(h ^ uint64(id))
	}
	return mix64(h ^ uint64(len(ids)))
}
