package server

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// StorageConfig makes the server's named databases durable: each database
// gets a directory under Dir holding its on-disk store (storage.OpenDisk).
// The store is written through — a load, a fact batch or a restore lands in
// it before the new version is published — and read only to recover the
// databases at startup. Every read is served from the resident current
// version, exactly as without a StorageConfig.
type StorageConfig struct {
	// Dir is the root directory; one subdirectory per database.
	Dir string
	// Sync fsyncs the log after every mutation batch (durability over
	// throughput; off by default, matching storage.DiskOptions).
	Sync bool
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
	return &entryStore{st: st, in: intern.Global()}, nil
}

// openDisk scans cfg.Dir for existing database directories and registers a
// disk-backed entry for each, loading its store into the entry's first
// version, and returns the recovered database names. Called once at startup,
// before the server accepts requests.
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
		db, err := storage.LoadDB(st.st, st.in, 0)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("server: recover %q: %w", name, err)
		}
		e := newDBEntry(name)
		e.store = st
		e.cur.Store(newDBState(db, 1))
		r.mu.Lock()
		r.dbs[name] = e
		r.mu.Unlock()
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// entryStore is one disk-backed database's store. Nothing reads it after
// recovery: the entry's resident version serves every read, and the store
// follows each write (under the entry mutex) so that a restart recovers the
// last published version. A nil *entryStore is a memory-resident database's,
// and its writes are no-ops.
type entryStore struct {
	st storage.Store
	in *intern.Interner
}

// replace swaps the store's entire contents for db in one atomic batch:
// relations not in db are dropped, the rest reset to their new rows, sorted
// so the log is deterministic.
func (es *entryStore) replace(db algebra.DB) error {
	if es == nil {
		return nil
	}
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
	return es.st.Apply(b)
}

// applyFacts applies one fact mutation (deletes before inserts, matching
// ivm.ApplyDB) to the store. Facts whose shape disagrees with the stored
// relation's arity fall back to storage.RearityBatch, which re-encodes the
// relation in the heterogeneous arity-1 form. Called under the entry mutex.
func (es *entryStore) applyFacts(ins, del []datalog.Fact) error {
	if es == nil {
		return nil
	}
	b, err := es.factsBatch(ins, del)
	if err != nil || len(b) == 0 {
		return err
	}
	err = es.st.Apply(b)
	if !errors.Is(err, storage.ErrArityMismatch) {
		return err
	}
	rb, err := storage.RearityBatch(es.st, es.in, b)
	if err != nil {
		return err
	}
	return es.st.Apply(rb)
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
// caller's RearityBatch fallback.
func (es *entryStore) factsBatch(ins, del []datalog.Fact) (storage.Batch, error) {
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
			return nil, err
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
	return b, nil
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
func (es *entryStore) checkpoint() error {
	if es == nil {
		return nil
	}
	return es.st.Snapshot()
}

func (es *entryStore) close() error {
	if es == nil {
		return nil
	}
	return es.st.Close()
}
