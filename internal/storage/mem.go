package storage

import (
	"sort"
	"sync"

	"algrec/internal/value/intern"
)

// Mem is the in-memory backend: flat ID rows (intern.Relation, with
// tombstone deletion) behind the Store interface. It is the reference
// implementation the disk backend's conformance is checked against, and the
// disk backend's resident state. (The rule kernel's tables embed the same
// row table, but refill deleted rows where Mem appends; nothing reads a
// served database through a Store.)
type Mem struct {
	in   *intern.Interner
	mu   sync.RWMutex
	rels map[string]*memRel
}

// NewMem returns an empty memory store whose rows hold IDs of in (nil means
// the process-global interner, the one a disk store always uses).
func NewMem(in *intern.Interner) *Mem {
	if in == nil {
		in = intern.Global()
	}
	return &Mem{in: in, rels: map[string]*memRel{}}
}

// memRel is one memory-backed relation. The struct survives Reset (only the
// inner intern.Relation is replaced), so a Relation handle obtained from Rel
// observes later mutations, as the interface requires.
type memRel struct {
	st *Mem
	r  *intern.Relation
}

// Rel implements Store.
func (m *Mem) Rel(name string) (Relation, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.rels[name]
	return r, ok, nil
}

// Rels implements Store.
func (m *Mem) Rels() ([]RelInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]RelInfo, 0, len(m.rels))
	for name, r := range m.rels {
		out = append(out, RelInfo{Name: name, Arity: r.r.Arity(), Len: r.r.LiveLen()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Apply implements Store. The batch is validated in full — including arity
// agreement with existing relations — before the first row is touched, so a
// failed Apply leaves the store unchanged.
func (m *Mem) Apply(b Batch) error {
	if err := b.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkArities(b); err != nil {
		return err
	}
	m.apply(b)
	return nil
}

// checkArities rejects a batch whose mutations disagree with the arity of
// the relation they reach (as earlier mutations of the batch leave it).
// Called with m.mu held.
func (m *Mem) checkArities(b Batch) error {
	arities := map[string]int{}
	for name, r := range m.rels {
		arities[name] = r.r.Arity()
	}
	for _, mu := range b {
		if mu.Drop {
			delete(arities, mu.Rel)
			continue
		}
		if a, ok := arities[mu.Rel]; ok && !mu.Reset && a != mu.Arity {
			return errArity(mu.Rel, a, mu.Arity)
		}
		arities[mu.Rel] = mu.Arity
	}
	return nil
}

// apply applies a checked batch with m.mu write-held. It returns how many
// rows the batch left dead — deleted, reset or dropped away, or inserted
// while already present — which the disk backend's compaction trigger counts.
func (m *Mem) apply(b Batch) (dead int) {
	for _, mu := range b {
		r, ok := m.rels[mu.Rel]
		if ok && (mu.Drop || mu.Reset) {
			dead += r.r.LiveLen()
		}
		if mu.Drop {
			delete(m.rels, mu.Rel)
			continue
		}
		if !ok {
			r = &memRel{st: m, r: intern.NewRelation(mu.Arity)}
			m.rels[mu.Rel] = r
		} else if mu.Reset {
			r.r = intern.NewRelation(mu.Arity)
		}
		for _, row := range mu.Delete {
			if _, removed := r.r.Delete(row); removed {
				dead++
			}
		}
		for _, row := range mu.Insert {
			if _, added := r.r.Insert(row); !added {
				dead++
			}
		}
	}
	return dead
}

// compact drops the tombstoned rows of every relation that has any,
// re-inserting the survivors in scan order, so a long-lived store does not
// keep every row it ever held. Called with m.mu write-held.
func (m *Mem) compact() {
	for _, r := range m.rels {
		if r.r.Len() == r.r.LiveLen() {
			continue
		}
		fresh := intern.NewRelation(r.r.Arity())
		r.r.Scan(func(_ int32, row []intern.ID) bool {
			fresh.Insert(row)
			return true
		})
		r.r = fresh
	}
}

// Snapshot implements Store: the memory backend is exactly as durable after
// a snapshot as before, so this is a no-op.
func (m *Mem) Snapshot() error { return nil }

// Close implements Store.
func (m *Mem) Close() error { return nil }

// Arity implements Relation.
func (r *memRel) Arity() int {
	r.st.mu.RLock()
	defer r.st.mu.RUnlock()
	return r.r.Arity()
}

// Len implements Relation.
func (r *memRel) Len() int {
	r.st.mu.RLock()
	defer r.st.mu.RUnlock()
	return r.r.LiveLen()
}

// Scan implements Relation.
func (r *memRel) Scan(yield func(row []intern.ID) bool) error {
	r.st.mu.RLock()
	defer r.st.mu.RUnlock()
	r.r.Scan(func(_ int32, row []intern.ID) bool { return yield(row) })
	return nil
}
