package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// StorageConfig switches the server's named databases from memory-resident
// relations to on-disk stores (storage.OpenDisk): each database becomes a
// directory under Dir holding its log-structured segments, so the working
// set can exceed RAM — queries materialize only the relations their plan
// reads, through a bounded per-database cache.
type StorageConfig struct {
	// Dir is the root directory; one subdirectory per database.
	Dir string
	// Sync fsyncs the log after every mutation batch (durability over
	// throughput; off by default, matching storage.DiskOptions).
	Sync bool
	// MatBudgetRows caps the total rows held by one database's
	// materialization cache (0 = default 1<<20). A single relation larger
	// than the budget is still materialized — it just is not retained.
	MatBudgetRows int
}

// withDefaults returns a copy with zero fields defaulted.
func (c StorageConfig) withDefaults() *StorageConfig {
	if c.MatBudgetRows == 0 {
		c.MatBudgetRows = 1 << 20
	}
	return &c
}

// dbDirPrefix/dbDirHexPrefix prefix database directory names: names made of
// safe characters keep their spelling ("db-" + name), anything else is hex
// encoded ("dbx-" + hex). Distinct prefixes keep the two injections from
// colliding.
const (
	dbDirPrefix    = "db-"
	dbDirHexPrefix = "dbx-"
)

func dbDirName(name string) string {
	safe := name != "" && !strings.HasPrefix(name, ".")
	for _, c := range name {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			safe = false
			break
		}
	}
	if safe {
		return dbDirPrefix + name
	}
	return dbDirHexPrefix + hex.EncodeToString([]byte(name))
}

// dbNameOfDir inverts dbDirName; ok=false for directories that are not
// database directories (strays are ignored, not errors).
func dbNameOfDir(dir string) (string, bool) {
	if rest, ok := strings.CutPrefix(dir, dbDirPrefix); ok {
		return rest, rest != ""
	}
	if rest, ok := strings.CutPrefix(dir, dbDirHexPrefix); ok {
		b, err := hex.DecodeString(rest)
		if err != nil || len(b) == 0 {
			return "", false
		}
		return string(b), true
	}
	return "", false
}

// open opens (creating if needed) the disk store for one database.
func (c *StorageConfig) open(name string) (*entryStore, error) {
	dir := filepath.Join(c.Dir, dbDirName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: storage dir for %q: %w", name, err)
	}
	st, err := storage.OpenDisk(dir, storage.DiskOptions{Sync: c.Sync})
	if err != nil {
		return nil, fmt.Errorf("server: open storage for %q: %w", name, err)
	}
	return &entryStore{
		st:     st,
		in:     intern.Global(),
		budget: c.MatBudgetRows,
		mat:    map[string]value.Set{},
	}, nil
}

// openDisk scans cfg.Dir for existing database directories and registers a
// disk-backed entry for each, returning the recovered database names. Called
// once at startup, before the server accepts requests.
func (r *registry) openDisk() ([]string, error) {
	cfg := r.storage
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	dirents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		name, ok := dbNameOfDir(de.Name())
		if !ok {
			continue
		}
		st, err := cfg.open(name)
		if err != nil {
			return nil, err
		}
		e := newDBEntry(name)
		e.store = st
		e.cur.Store(&dbState{version: 1})
		r.mu.Lock()
		r.dbs[name] = e
		r.mu.Unlock()
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// entryStore is one disk-backed database: the storage.Store plus a bounded
// materialization cache of value.Set relations. The store itself is safe for
// concurrent readers; the cache is guarded by mu, which is never held while
// scanning the store — a cache miss materializes unlocked and publishes
// under an epoch check, so a mutation landing mid-scan simply discards the
// stale result instead of blocking. Writers keep the cache warm: a wholesale
// load seeds it with the sets it stored (reseed) and a fact mutation advances
// the cached copies of the relations it touched (advance), so reads after a
// write find a current set to probe instead of re-materializing it.
type entryStore struct {
	st     storage.Store
	in     *intern.Interner
	budget int

	mu      sync.Mutex
	epoch   uint64 // bumped by every mutation; stale materializations are dropped
	mat     map[string]value.Set
	matRows int
}

// materialize returns the named relations (or every relation when all is
// set) as a database map. Relations absent from the store are omitted —
// exactly as a memory-resident database would not contain them.
func (es *entryStore) materialize(names []string, all bool) (algebra.DB, error) {
	if all {
		infos, err := es.st.Rels()
		if err != nil {
			return nil, err
		}
		names = make([]string, len(infos))
		for i, ri := range infos {
			names[i] = ri.Name
		}
	}
	db := make(algebra.DB, len(names))

	es.mu.Lock()
	epoch := es.epoch
	var miss []string
	for _, n := range names {
		if s, ok := es.mat[n]; ok {
			db[n] = s
		} else {
			miss = append(miss, n)
		}
	}
	es.mu.Unlock()

	for _, n := range miss {
		r, ok, err := es.st.Rel(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		s, err := storage.MaterializeSet(es.in, r, 0)
		if err != nil {
			return nil, err
		}
		db[n] = s
		es.cache(n, s, epoch)
	}
	return db, nil
}

// cache retains one materialized relation if it was read at the current
// epoch and fits the row budget, evicting older entries to make room.
func (es *entryStore) cache(name string, s value.Set, epoch uint64) {
	if s.Len() > es.budget {
		return
	}
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.epoch != epoch {
		return // a mutation landed while we scanned; the copy may be stale
	}
	if _, ok := es.mat[name]; ok {
		return
	}
	for n, old := range es.mat {
		if es.matRows+s.Len() <= es.budget {
			break
		}
		es.matRows -= old.Len()
		delete(es.mat, n)
	}
	if es.matRows+s.Len() > es.budget {
		return
	}
	es.mat[name] = s
	es.matRows += s.Len()
}

// invalidate drops the named relations from the cache and bumps the epoch,
// so in-flight materializations cannot publish pre-mutation copies.
func (es *entryStore) invalidate(names []string) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.epoch++
	for _, n := range names {
		es.drop(n)
	}
}

// drop removes one relation from the cache. Called with mu held.
func (es *entryStore) drop(name string) {
	if s, ok := es.mat[name]; ok {
		es.matRows -= s.Len()
		delete(es.mat, name)
	}
}

// advance carries the cached copies of the touched relations across a fact
// mutation the store has just applied, instead of dropping them: each becomes
// ivm.ApplyDB of itself — the function the memory-resident path keeps its
// whole database current with — so the next read finds the post-mutation set
// cached rather than paying storage.MaterializeSet again. Relations that were
// not cached stay uncached; one that outgrows the row budget is dropped. The
// epoch moves as in invalidate.
func (es *entryStore) advance(touched []string, ins, del []datalog.Fact) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.epoch++
	cached := algebra.DB{}
	for _, n := range touched {
		if s, ok := es.mat[n]; ok {
			cached[n] = s
		}
	}
	if len(cached) == 0 {
		return
	}
	next := ivm.ApplyDB(cached, ins, del)
	for n, old := range cached {
		es.mat[n] = next[n]
		es.matRows += next[n].Len() - old.Len()
		if es.matRows > es.budget {
			es.drop(n)
		}
	}
}

// reseed replaces the cache with the sets a wholesale load just stored, as
// far as the row budget goes, and bumps the epoch: the first query after a
// PUT or a restore reads what was loaded, not a re-materialization of it.
func (es *entryStore) reseed(db algebra.DB, names []string) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.epoch++
	es.mat = map[string]value.Set{}
	es.matRows = 0
	for _, n := range names {
		if s := db[n]; es.matRows+s.Len() <= es.budget {
			es.mat[n] = s
			es.matRows += s.Len()
		}
	}
}

// replace swaps the store's entire contents for db in one atomic batch:
// relations not in db are dropped, the rest reset to their new rows, sorted
// so the log is deterministic. The cache is reseeded from db.
func (es *entryStore) replace(db algebra.DB) error {
	infos, err := es.st.Rels()
	if err != nil {
		return err
	}
	var b storage.Batch
	for _, ri := range infos {
		if _, keep := db[ri.Name]; !keep {
			b = append(b, storage.Mutation{Rel: ri.Name, Drop: true})
		}
	}
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows, arity := storage.RowsOfSet(es.in, db[name])
		b = append(b, storage.Mutation{Rel: name, Arity: arity, Reset: true, Insert: rows})
	}
	if err := es.st.Apply(b); err != nil {
		return err
	}
	es.reseed(db, names)
	return nil
}

// applyFacts applies one fact mutation (deletes before inserts, matching
// ivm.ApplyDB) to the store. Facts whose shape disagrees with the stored
// relation's arity fall back to storage.RearityBatch, which re-encodes the
// relation in the heterogeneous arity-1 form; cached copies of the touched
// relations are dropped then, and advanced in place otherwise. Called under
// the entry mutex.
func (es *entryStore) applyFacts(ins, del []datalog.Fact) error {
	b, touched, err := es.factsBatch(ins, del)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	if err := es.st.Apply(b); err != nil {
		if !errors.Is(err, storage.ErrArityMismatch) {
			return err
		}
		rb, rerr := storage.RearityBatch(es.st, es.in, b)
		if rerr != nil {
			return rerr
		}
		if err := es.st.Apply(rb); err != nil {
			return err
		}
		// The relation was re-encoded wholesale; re-read it on demand.
		es.invalidate(touched)
		return nil
	}
	es.advance(touched, ins, del)
	return nil
}

// factValue is the element a fact contributes to its predicate's relation:
// a single argument stands alone, several form a tuple (ivm.ApplyDB's
// convention).
func factValue(f datalog.Fact) value.Value {
	if len(f.Args) == 1 {
		return f.Args[0]
	}
	return value.NewTuple(f.Args...)
}

// factsBatch encodes a fact mutation as one storage mutation per predicate
// (RearityBatch requires at most one mutation per relation), choosing each
// predicate's arity to match the stored relation — or, for new predicates,
// the relational encoding when every inserted element is a tuple of one
// width >= 2. Elements that cannot fit a relational arity demote the whole
// predicate to the arity-1 encoding; the resulting arity mismatch is the
// caller's RearityBatch fallback. Returns the touched predicate names.
func (es *entryStore) factsBatch(ins, del []datalog.Fact) (storage.Batch, []string, error) {
	type predMut struct {
		ins, del []value.Value
	}
	preds := map[string]*predMut{}
	at := func(p string) *predMut {
		pm, ok := preds[p]
		if !ok {
			pm = &predMut{}
			preds[p] = pm
		}
		return pm
	}
	for _, f := range del {
		pm := at(f.Pred)
		pm.del = append(pm.del, factValue(f))
	}
	for _, f := range ins {
		pm := at(f.Pred)
		pm.ins = append(pm.ins, factValue(f))
	}

	names := make([]string, 0, len(preds))
	for n := range preds {
		names = append(names, n)
	}
	sort.Strings(names)

	var b storage.Batch
	for _, n := range names {
		pm := preds[n]
		arity := es.predArity(n, pm.ins)
		m := storage.Mutation{Rel: n, Arity: arity}
		// A predicate absent from the store with only deletes: nothing to do.
		if _, ok, err := es.st.Rel(n); err != nil {
			return nil, nil, err
		} else if !ok && len(pm.ins) == 0 {
			continue
		}
		fit := true
		for _, v := range pm.ins {
			if _, ok := rowOfElem(es.in, v, arity); !ok {
				fit = false
				break
			}
		}
		if !fit {
			// Mixed shapes: encode the whole predicate heterogeneously.
			arity = 1
			m.Arity = 1
		}
		for _, v := range pm.del {
			if row, ok := rowOfElem(es.in, v, arity); ok {
				m.Delete = append(m.Delete, row)
			}
			// An element that cannot fit the stored arity cannot be present
			// at that arity either — skipping the delete is exact. (If the
			// batch demotes to arity 1 via RearityBatch, the re-encode pass
			// re-reads these delete rows from the rebuilt mutation.)
		}
		for _, v := range pm.ins {
			row, _ := rowOfElem(es.in, v, arity)
			m.Insert = append(m.Insert, row)
		}
		b = append(b, m)
	}
	return b, names, nil
}

// predArity picks the storage arity for one predicate's mutation: the stored
// relation's arity when it exists, otherwise the relational width of the
// inserted elements (all tuples of one width >= 2), otherwise 1.
func (es *entryStore) predArity(name string, ins []value.Value) int {
	if r, ok, err := es.st.Rel(name); err == nil && ok {
		return r.Arity()
	}
	k := -1
	for _, v := range ins {
		t, ok := v.(value.Tuple)
		if !ok || t.Len() < 2 || (k >= 0 && t.Len() != k) {
			return 1
		}
		k = t.Len()
	}
	if k < 0 {
		return 1
	}
	return k
}

// rowOfElem encodes one set element as a row of the given arity, matching
// storage.RowsOfSet's encoding; ok=false when the element does not fit
// (not a tuple of that width). A tuple's components are interned one by one:
// interning the tuple itself would leave every fact a mutation ever mentions
// in the append-only arena, long after the fact is deleted.
func rowOfElem(in *intern.Interner, v value.Value, arity int) ([]intern.ID, bool) {
	if arity == 1 {
		return []intern.ID{in.Intern(v)}, true
	}
	t, ok := v.(value.Tuple)
	if !ok || t.Len() != arity {
		return nil, false
	}
	row := make([]intern.ID, arity)
	for i := range row {
		row[i] = in.Intern(t.At(i))
	}
	return row, true
}

// checkpoint durably snapshots and compacts the underlying store.
func (es *entryStore) checkpoint() error { return es.st.Snapshot() }

// relInfo lists the store's relations (empty on a read error — listings are
// best-effort).
func (es *entryStore) relInfo() []storage.RelInfo {
	infos, err := es.st.Rels()
	if err != nil {
		return nil
	}
	return infos
}

func (es *entryStore) close() error { return es.st.Close() }
