package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"algrec/internal/algebra"
	"algrec/internal/datalog/rel"
	"algrec/internal/query"
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
// With a disk backend configured (Config.Storage), an entry's relation data
// lives in its storage.Store instead of cur.base (which stays nil); readers
// materialize only the relations a plan needs, through the entry's
// materialization cache. storage.Store serializes writers internally and
// never blocks concurrent readers, preserving the same property.
type registry struct {
	// storage, when non-nil, backs every database with an on-disk store
	// under storage.Dir instead of keeping relations resident.
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
// returns. For disk-backed entries base is nil — the data lives in the
// entry's store — and only version is meaningful.
type dbState struct {
	base    *rel.Base
	version uint64
}

// newDBState wraps a memory-resident database; a nil db is a disk-backed
// entry's state.
func newDBState(db algebra.DB, version uint64) *dbState {
	st := &dbState{version: version}
	if db != nil {
		st.base = rel.NewBase(db)
	}
	return st
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
	store *entryStore // nil: memory-resident
}

func newRegistry() *registry {
	return &registry{dbs: map[string]*dbEntry{}}
}

func newDBEntry(name string) *dbEntry {
	e := &dbEntry{name: name, views: map[viewKey]*liveView{}, snaps: map[string]algebra.DB{}}
	e.cur.Store(&dbState{})
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

// baseForPlan returns the fact base of the database state the plan should
// execute against: ok=false when no database of that name exists (the empty
// name is always present and empty — a nil base). For memory entries this is
// the lock-free current state's own base; for disk entries, a base made for
// this request over a materialization of exactly the relations the plan can
// read (all of them for datalog, which folds the whole database into its fact
// base).
func (r *registry) baseForPlan(name string, plan *query.Plan) (base *rel.Base, ok bool, err error) {
	if name == "" {
		return nil, true, nil
	}
	e, ok := r.entry(name)
	if !ok {
		return nil, false, nil
	}
	if e.store == nil {
		return e.cur.Load().base, true, nil
	}
	db, err := e.planDB(plan)
	return rel.NewBase(db), true, err
}

// planDB returns the database a view of the plan is built over; safe without
// the entry mutex.
func (e *dbEntry) planDB(plan *query.Plan) (algebra.DB, error) {
	if e.store == nil {
		return e.cur.Load().base.DB(), nil
	}
	names, all := plan.Relations()
	return e.store.materialize(names, all)
}

// fullDB returns the entry's complete current database (materializing every
// relation of a disk entry). Safe without the entry mutex; writers that need
// a consistent copy call it under mu.
func (e *dbEntry) fullDB() (algebra.DB, error) {
	if e.store == nil {
		return e.cur.Load().base.DB(), nil
	}
	return e.store.materialize(nil, true)
}

// set registers (or replaces) a database under name. The database's values
// are interned eagerly (outside any lock): the process-global interner is
// shared by every named database and every concurrent execution, so warming
// it at registration means each fact is hash-consed once per database load
// rather than on some request's critical path. Replacing an existing entry
// closes its live subscriptions with reason "db-replaced" — their incremental
// views were built against the old contents and a wholesale swap is not a
// fact delta. With a disk backend, the load lands in the entry's store;
// concurrent readers keep seeing the pre-replacement state until the single
// atomic batch applies.
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
	if r.storage != nil {
		if e.store == nil {
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
		db = nil // the store holds the data; keep nothing resident
	}
	e.cur.Store(newDBState(db, e.cur.Load().version+1))
	e.closeViews(reasonReplaced)
	return nil
}

// snapshot labels the entry's current database contents. Memory entries
// retain the current state pointer — O(1), since no database value is ever
// mutated in place; disk entries materialize a full copy and also checkpoint
// (and compact) the underlying store. Re-using a label overwrites it.
func (r *registry) snapshot(name, label string) (version uint64, err error) {
	e, ok := r.entry(name)
	if !ok {
		return 0, errUnknownDB(name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	db, err := e.fullDB()
	if err != nil {
		return 0, err
	}
	if e.store != nil {
		if err := e.store.checkpoint(); err != nil {
			return 0, err
		}
	}
	e.snaps[label] = db
	return e.cur.Load().version, nil
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
	if e.store != nil {
		if err := e.store.replace(db); err != nil {
			return 0, err
		}
		db = nil
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
// cardinalities come from the lock-free current state (memory) or the
// store's index (disk) — listing never blocks a bulk load either way.
func (r *registry) list() []dbInfo {
	r.mu.RLock()
	entries := make([]*dbEntry, 0, len(r.dbs))
	for _, e := range r.dbs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]dbInfo, 0, len(entries))
	for _, e := range entries {
		info := dbInfo{Name: e.name, Version: e.cur.Load().version, Relations: map[string]int{}}
		if e.store != nil {
			for _, ri := range e.store.relInfo() {
				info.Relations[ri.Name] = ri.Len
			}
		} else {
			for rel, set := range e.cur.Load().base.DB() {
				info.Relations[rel] = set.Len()
			}
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
		if e.store != nil {
			if err := e.store.close(); err != nil && first == nil {
				first = err
			}
		}
		e.mu.Unlock()
	}
	return first
}
