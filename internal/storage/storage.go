// Package storage is the pluggable relation-storage layer that makes the
// query service's named databases durable (the service writes every change
// through to a store and reads it back only to recover): a backend-agnostic
// interface — ordered scans, atomic insert/delete batches, cardinality —
// over relations of interned ID tuples, with two stdlib-only backends:
//
//   - Memory (NewMem): intern.Relation flat ID rows behind the interface,
//     with tombstone deletion — the same row table the rule kernel's
//     tables (internal/datalog/rel) embed;
//   - Disk (OpenDisk): the memory backend's resident rows plus a value
//     dictionary and an append-only log of ID-tuple segments, with
//     generation snapshots written from the resident rows, compaction, and
//     recovery from the snapshot plus the log.
//
// Both backends satisfy one observable contract, pinned by the conformance
// suite in storage/storagetest and by the dlog-storage differential oracle:
//
//   - Scan enumerates each live row exactly once, in insertion order of the
//     surviving rows; a row re-inserted after deletion re-enters the order
//     at its latest insertion position.
//   - Apply is atomic: a batch either applies in full or (on validation
//     error, torn write, or crash) not at all; within a batch, each
//     mutation's deletes precede its inserts.
//
// The package also owns the write-through encoding of values as rows
// (convert.go), so the server and the dlog-storage oracle write through the
// same encoder: RowsOfSet for whole relations (StoreDB, for a registered
// database and a restore), FactBatch for fact batches, and Replace for a
// store's whole contents, StoreDB's or those of a PUT, whose rows the script
// parser reads in this encoding. MaterializeRows builds a set back from its
// rows, for a PUT's version and a recovery's (MaterializeSet) alike.
//
// The disk backend's recovery contract is the classic log-structured one:
// reopening a store after a crash yields exactly the state of the last
// durable snapshot plus the replay of the longest well-formed log prefix;
// torn or corrupt tail records are discarded. The crash tests in this
// package fault-inject truncated and bit-flipped tails and compare the
// recovered store bit-for-bit against a memory-backend replay of the
// durable prefix.
package storage

import (
	"errors"
	"fmt"

	"algrec/internal/value/intern"
)

// Relation is read access to one stored relation: a set of fixed-arity rows
// of interned value IDs, read by a full Scan (recovery and checkpoints need
// nothing else). Implementations are safe for concurrent readers; writes go
// through Store.Apply. The row slices passed to yield callbacks
// are only valid for the duration of the call.
type Relation interface {
	// Arity returns the number of columns. Arity 0 models propositional
	// relations: empty, or holding the single empty row.
	Arity() int
	// Len returns the number of live rows.
	Len() int
	// Scan calls yield for every live row in insertion order (of surviving
	// rows), stopping early when yield returns false. yield must not call
	// back into the store.
	Scan(yield func(row []intern.ID) bool) error
}

// RelInfo describes one relation of a store.
type RelInfo struct {
	Name  string
	Arity int
	// Len is the live row count.
	Len int
}

// Mutation is one relation's change within a batch: deletes apply before
// inserts; Reset first drops the relation (allowing an arity change) and
// then applies the inserts — the bulk-load primitive. Drop removes the
// relation entirely (it disappears from Rels and Rel returns ok=false);
// a Drop mutation carries no rows and ignores Arity, and dropping an
// absent relation is a no-op. Relation handles obtained before a Drop
// must not be used afterwards.
type Mutation struct {
	Rel   string
	Arity int
	Reset bool
	Drop  bool
	// Delete and Insert rows must have exactly Arity IDs each. Deleting an
	// absent row and inserting a present one are no-ops.
	Delete [][]intern.ID
	Insert [][]intern.ID
}

// Batch is an atomically applied sequence of mutations.
type Batch []Mutation

// Store is one database's relation storage. Apply, Snapshot and Close are
// serialized by the implementation; readers (Rel's methods, Rels) may run
// concurrently with each other and are excluded only for the duration of a
// mutation, never blocked by one another.
type Store interface {
	// Rel returns the named relation, or ok=false if it does not exist.
	// The returned Relation stays valid across mutations (it observes them).
	Rel(name string) (r Relation, ok bool, err error)
	// Rels lists the store's relations sorted by name.
	Rels() ([]RelInfo, error)
	// Apply applies the batch atomically. On error the store is unchanged.
	Apply(b Batch) error
	// Snapshot durably checkpoints the store and compacts its log (a no-op
	// for the memory backend, which is exactly as durable after as before).
	Snapshot() error
	// Close releases the store's resources. The memory backend's Close is a
	// no-op; the disk backend flushes and closes its segments.
	Close() error
}

// ErrArityMismatch reports a mutation whose arity disagrees with the stored
// relation (and Reset was not set). FactBatch never builds one: it resets a
// relation whose shape a fact batch changes.
var ErrArityMismatch = errors.New("storage: relation arity mismatch")

// ErrCorrupt reports an unrecoverable inconsistency in a disk store — a
// snapshot segment that fails its checksum, or a log that references
// undefined dictionary entries. (A torn log tail is NOT corruption: it is
// truncated silently as the un-durable suffix.)
var ErrCorrupt = errors.New("storage: corrupt store")

// errArity builds an ErrArityMismatch with context.
func errArity(rel string, have, want int) error {
	return fmt.Errorf("%w: relation %q has arity %d, got %d", ErrArityMismatch, rel, have, want)
}

// validate checks a batch's internal consistency (row widths match the
// mutation arity) before any backend work, so Apply can fail atomically.
func (b Batch) validate() error {
	for _, m := range b {
		if m.Rel == "" {
			return fmt.Errorf("storage: mutation with empty relation name")
		}
		if m.Arity < 0 {
			return fmt.Errorf("storage: relation %q: negative arity", m.Rel)
		}
		if m.Drop && (m.Reset || len(m.Delete)+len(m.Insert) > 0) {
			return fmt.Errorf("storage: relation %q: a Drop mutation carries no reset flag and no rows", m.Rel)
		}
		for _, row := range m.Delete {
			if len(row) != m.Arity {
				return fmt.Errorf("storage: relation %q: delete row has %d ids, want %d", m.Rel, len(row), m.Arity)
			}
		}
		for _, row := range m.Insert {
			if len(row) != m.Arity {
				return fmt.Errorf("storage: relation %q: insert row has %d ids, want %d", m.Rel, len(row), m.Arity)
			}
		}
	}
	return nil
}
