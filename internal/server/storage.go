package server

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"algrec/internal/algebra"
	"algrec/internal/algebra/parse"
	"algrec/internal/datalog"
	"algrec/internal/ivm"
	"algrec/internal/storage"
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

// replace swaps the store's entire contents for db in one atomic batch
// (storage.StoreDB).
func (es *entryStore) replace(db algebra.DB) error {
	if es == nil {
		return nil
	}
	return storage.StoreDB(es.st, es.in, db)
}

// load swaps the store's entire contents for a PUT's rows in one atomic
// batch (storage.Replace).
func (es *entryStore) load(rels map[string]parse.Rows) error {
	if es == nil {
		return nil
	}
	resets := make(storage.Batch, 0, len(rels))
	for name, r := range rels {
		resets = append(resets, storage.Mutation{Rel: name, Arity: r.Arity, Reset: true, Insert: storage.RowsOf(r.IDs, r.Arity)})
	}
	return storage.Replace(es.st, resets)
}

// applyFacts writes a fact batch through to the store: after is the database
// it leaves (ivm.ApplyDB's), and storage.FactBatch encodes it. Called under
// the entry mutex.
func (es *entryStore) applyFacts(ins, del []datalog.Fact, after algebra.DB) error {
	if es == nil {
		return nil
	}
	b, err := storage.FactBatch(es.st, es.in, ivm.ElemsByPred(del), ivm.ElemsByPred(ins), after)
	if err != nil || len(b) == 0 {
		return err
	}
	return es.st.Apply(b)
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
