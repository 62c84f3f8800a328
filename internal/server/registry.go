package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"algrec/internal/algebra"
	"algrec/internal/datalog/rel"
	"algrec/internal/value/intern"
)

// registry is the store of named databases. Each entry carries a version
// counter and the live views its subscriptions watch: mutations
// (POST /v1/dbs/{name}/facts), wholesale replacements (PUT /v1/dbs/{name})
// and restores bump the version and notify subscribers under the entry's
// writer mutex, so every subscription observes the same totally-ordered
// sequence of database states.
//
// Reads are copy-on-write: the current (db, version) pair is an immutable
// dbState behind an atomic pointer, so queries and listings load it without
// taking any entry lock and are never blocked by a bulk load — a writer
// builds the next state aside and swaps the pointer when done. Snapshots
// (labeled database versions) are O(1) retained pointers for the same
// reason: no database value is ever mutated in place.
//
// Both backends read the same way, through base: with a disk backend
// configured (Config.Storage), an entry's current version is resident as
// well, and its storage.Store is written through by every writer before the
// next state is published, for durability and recovery only.
type registry struct {
	// storage, when non-nil, backs every database with an on-disk store
	// under storage.Dir, written through on every write.
	storage *StorageConfig

	mu  sync.RWMutex
	dbs map[string]*dbEntry
}

// dbState is one immutable (database, version) pair. The database is held as
// its fact base: the database itself (base.DB()) plus what datalog evaluation
// derives from it before the first rule runs (ID tables, sorted facts,
// rendered keys), built lazily by the first request that needs it and shared
// read-only by every request that loads this state. Nothing else refers to a
// base, so it goes when its state is superseded and the last request on it
// returns. A registered entry's base is never nil.
type dbState struct {
	base    *rel.Base
	version uint64
}

// newDBState wraps one version of a database.
func newDBState(db algebra.DB, version uint64) *dbState {
	return &dbState{base: rel.NewBase(db), version: version}
}

// dbEntry is one named database. The entry outlives any particular database
// value: replacing the database keeps the entry while swapping cur and
// bumping the version (the views over the old contents are closed).
type dbEntry struct {
	name string

	// cur is the current state, readable lock-free. Writers replace it
	// under mu.
	cur atomic.Pointer[dbState]

	// mu serializes writers (mutations, replacement, snapshot, restore) and
	// subscription registration, and guards views and snaps. Incremental
	// maintenance of every view runs under it, which makes the delta sequence
	// each client sees a deterministic function of the mutation order.
	mu sync.Mutex
	// views are the maintained views with live subscriptions, one per
	// distinct (plan, effective budgets): identical subscriptions share one.
	views map[viewKey]*liveView
	snaps map[string]algebra.DB
	store *entryStore // nil: memory-resident; else written through
}

func newRegistry() *registry {
	return &registry{dbs: map[string]*dbEntry{}}
}

func newDBEntry(name string) *dbEntry {
	e := &dbEntry{name: name, views: map[viewKey]*liveView{}, snaps: map[string]algebra.DB{}}
	e.cur.Store(newDBState(nil, 0))
	return e
}

// entry returns the registry entry for name ("" has no entry: the anonymous
// empty database cannot be mutated or subscribed to).
func (r *registry) entry(name string) (*dbEntry, bool) {
	if name == "" {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.dbs[name]
	return e, ok
}

// base returns the fact base of the named database's current version:
// ok=false when no database of that name exists (the empty name is always
// present and empty — a nil base).
func (r *registry) base(name string) (base *rel.Base, ok bool) {
	if name == "" {
		return nil, true
	}
	e, ok := r.entry(name)
	if !ok {
		return nil, false
	}
	return e.cur.Load().base, true
}

// set registers (or replaces) a database under name. The database's values
// are interned eagerly (outside any lock): the process-global interner is
// shared by every named database and every concurrent execution, so warming
// it at registration means each fact is hash-consed once per database load
// rather than on some request's critical path.
//
// The eager intern is not dead work, though only reads show it. Measured
// with the open-addressed interner, three alternating pairs per workload on
// a 2-CPU container: without it the benchmark's bulk-cycle p50 fell 36–46 ms
// (462–494 to 426–449 ms), but adhoc-point's peak RSS shrank from ~22 to
// ~17 MB and its server_cpu_ms_per_op rose 7–18 % on three of three pairs
// (0.133–0.144 to 0.154–0.161 ms). An earlier measurement, on the
// map-indexed interner, traced the loss to the smaller heap: the collector
// ran about three times as often. Drop it only with a pair of adhoc-point
// runs that shows no such loss.
//
// Replacing an existing entry closes its live subscriptions with reason
// "db-replaced" — their incremental views were built against the old
// contents and a wholesale swap is not a fact delta. With a disk backend,
// the load is written through to the entry's store first; concurrent
// readers keep seeing the pre-replacement state until the new one is
// published.
func (r *registry) set(name string, db algebra.DB) error {
	in := intern.Global()
	for _, set := range db {
		in.Intern(set)
	}
	r.mu.Lock()
	e, existed := r.dbs[name]
	if !existed {
		e = newDBEntry(name)
		r.dbs[name] = e
	}
	r.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if r.storage != nil && e.store == nil {
		st, err := r.storage.open(name)
		if err != nil {
			if !existed {
				r.mu.Lock()
				delete(r.dbs, name)
				r.mu.Unlock()
			}
			return err
		}
		e.store = st
	}
	if err := e.store.replace(db); err != nil {
		return err
	}
	e.cur.Store(newDBState(db, e.cur.Load().version+1))
	e.closeViews(reasonReplaced)
	return nil
}

// snapshot labels the entry's current database contents by retaining them —
// O(1), since no database value is ever mutated in place; disk entries also
// checkpoint (and compact) the underlying store. Re-using a label overwrites
// it.
func (r *registry) snapshot(name, label string) (version uint64, err error) {
	e, ok := r.entry(name)
	if !ok {
		return 0, errUnknownDB(name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.store.checkpoint(); err != nil {
		return 0, err
	}
	st := e.cur.Load()
	e.snaps[label] = st.base.DB()
	return st.version, nil
}

// restore replaces the entry's database with a labeled snapshot's contents.
// The snapshot remains (restore is repeatable). Live subscriptions close
// with reason "db-restored" — a wholesale swap, like replacement.
func (r *registry) restore(name, label string) (version uint64, err error) {
	e, ok := r.entry(name)
	if !ok {
		return 0, errUnknownDB(name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	db, ok := e.snaps[label]
	if !ok {
		return 0, fmt.Errorf("%w: database %q has no snapshot labeled %q", errSnapshotNotFound, name, label)
	}
	if err := e.store.replace(db); err != nil {
		return 0, err
	}
	v := e.cur.Load().version + 1
	e.cur.Store(newDBState(db, v))
	e.closeViews(reasonRestored)
	return v, nil
}

// Sentinel errors the snapshot/restore handlers map to structured codes.
var (
	errDBNotFound       = errors.New("unknown database")
	errSnapshotNotFound = errors.New("unknown snapshot")
)

func errUnknownDB(name string) error {
	return fmt.Errorf("%w: no database named %q is registered", errDBNotFound, name)
}

// dbInfo is one registry entry's listing: the name, its mutation version,
// its relations with cardinalities, and its snapshot labels.
type dbInfo struct {
	Name      string         `json:"name"`
	Version   uint64         `json:"version"`
	Relations map[string]int `json:"relations"`
	Snapshots []string       `json:"snapshots,omitempty"`
}

// list returns every registered database sorted by name. Relation
// cardinalities come from the lock-free current state, so listing never
// blocks a bulk load.
func (r *registry) list() []dbInfo {
	r.mu.RLock()
	entries := make([]*dbEntry, 0, len(r.dbs))
	for _, e := range r.dbs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]dbInfo, 0, len(entries))
	for _, e := range entries {
		st := e.cur.Load()
		info := dbInfo{Name: e.name, Version: st.version, Relations: map[string]int{}}
		for rel, set := range st.base.DB() {
			info.Relations[rel] = set.Len()
		}
		e.mu.Lock()
		for label := range e.snaps {
			info.Snapshots = append(info.Snapshots, label)
		}
		e.mu.Unlock()
		sort.Strings(info.Snapshots)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// closeStores closes every entry's disk store (no-op for memory entries).
func (r *registry) closeStores() error {
	r.mu.RLock()
	entries := make([]*dbEntry, 0, len(r.dbs))
	for _, e := range r.dbs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	var first error
	for _, e := range entries {
		e.mu.Lock()
		if err := e.store.close(); err != nil && first == nil {
			first = err
		}
		e.mu.Unlock()
	}
	return first
}
