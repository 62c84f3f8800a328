package storage_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"algrec/internal/storage"
	"algrec/internal/storage/storagetest"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

func diskFactory(sync bool) storagetest.Factory {
	return func(t *testing.T) (storage.Store, func() storage.Store) {
		dir := t.TempDir()
		opt := storage.DiskOptions{Sync: sync}
		st, err := storage.OpenDisk(dir, opt)
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		cur := storage.Store(st)
		t.Cleanup(func() { cur.Close() })
		reopen := func() storage.Store {
			if err := cur.Close(); err != nil {
				t.Fatalf("Close before reopen: %v", err)
			}
			st2, err := storage.OpenDisk(dir, opt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			cur = st2
			return st2
		}
		return st, reopen
	}
}

func TestDiskConformance(t *testing.T) {
	storagetest.Run(t, diskFactory(false))
}

func TestDiskConformanceSync(t *testing.T) {
	storagetest.Run(t, diskFactory(true))
}

// TestDiskSnapshotCompacts checks that Snapshot rewrites the store as a
// fresh generation — old segments deleted, state preserved, log replay
// empty — and that the store keeps answering afterwards.
func TestDiskSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	in := intern.Global()
	mkRow := func(a, b int64) []intern.ID { return []intern.ID{in.InternInt(a), in.InternInt(b)} }
	var rows [][]intern.ID
	for i := int64(0); i < 500; i++ {
		rows = append(rows, mkRow(i, i+1))
	}
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Insert: rows}}); err != nil {
		t.Fatal(err)
	}
	// Churn: delete the odd rows so the log carries dead weight.
	var dels [][]intern.ID
	for i := int64(1); i < 500; i += 2 {
		dels = append(dels, mkRow(i, i+1))
	}
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Delete: dels}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	ents, _ := os.ReadDir(dir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "snap-2.seg") || !strings.Contains(joined, "log-2.seg") {
		t.Fatalf("generation 2 files missing: %v", names)
	}
	if strings.Contains(joined, "log-1.seg") || strings.Contains(joined, "snap-1.seg") {
		t.Fatalf("old generation not cleaned up: %v", names)
	}
	// The new log holds only its header: the snapshot carries all state.
	if fi, err := os.Stat(filepath.Join(dir, "log-2.seg")); err != nil || fi.Size() != 8 {
		t.Fatalf("post-snapshot log size = %v, %v", fi, err)
	}

	check := func(s storage.Store) {
		r, ok, err := s.Rel("e")
		if err != nil || !ok {
			t.Fatalf("Rel: %v %v", ok, err)
		}
		if r.Len() != 250 {
			t.Fatalf("Len = %d, want 250", r.Len())
		}
		i := int64(0)
		if err := r.Scan(func(row []intern.ID) bool {
			if row[0] != in.InternInt(i) || row[1] != in.InternInt(i+1) {
				t.Fatalf("row %d = %v", i, row)
			}
			i += 2
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	check(st)

	// Mutations keep working after compaction, and everything survives a
	// reopen of the compacted store.
	if err := st.Apply(storage.Batch{{Rel: "f", Arity: 1, Insert: [][]intern.ID{{in.InternInt(1)}}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatalf("reopen after snapshot: %v", err)
	}
	defer st2.Close()
	check(st2)
	if r, ok, _ := st2.Rel("f"); !ok || r.Len() != 1 {
		t.Fatal("post-snapshot mutation lost across reopen")
	}
}

// TestDiskPersistsComplexValues round-trips nested values (strings, tuples,
// sets-of-tuples) through the dictionary codec and a reopen: intern IDs are
// process-local, so this exercises the re-interning path end to end.
func TestDiskPersistsComplexValues(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := intern.Global()
	vals := []value.Value{
		value.String("hello"),
		value.True,
		value.Int(-42),
		value.NewTuple(value.Int(1), value.String("x")),
		value.NewSet(value.Int(1), value.NewTuple(value.Int(2), value.Int(3))),
		value.NewSet(),
		value.Int(1 << 20), // an integer that is its own ID
		value.NewTuple(value.Int(1<<14), value.Int(1<<31-1), value.Int(1<<31)),
	}
	rows := make([][]intern.ID, len(vals))
	for i, v := range vals {
		rows[i] = []intern.ID{in.Intern(v)}
	}
	if err := st.Apply(storage.Batch{{Rel: "v", Arity: 1, Insert: rows}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r, ok, err := st2.Rel("v")
	if err != nil || !ok {
		t.Fatalf("Rel: %v %v", ok, err)
	}
	i := 0
	if err := r.Scan(func(row []intern.ID) bool {
		if got := in.Lookup(row[0]); !value.Equal(got, vals[i]) {
			t.Fatalf("value %d = %v, want %v", i, got, vals[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(vals) {
		t.Fatalf("scanned %d values, want %d", i, len(vals))
	}
}

// TestDiskAutoCompaction drives enough churn through a store to trip the
// background compaction trigger and checks the store stays correct and the
// generation advanced.
func TestDiskAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	in := intern.Global()
	one := func(i int64) [][]intern.ID { return [][]intern.ID{{in.InternInt(i % 64), in.InternInt(i % 7)}} }
	// Insert/delete the same small key space far past compactMinDead (4096)
	// dead rows, with only ~64 live rows at any time.
	for i := int64(0); i < 6000; i++ {
		if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Insert: one(i)}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Delete: one(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Insert: one(0)}}); err != nil {
		t.Fatal(err)
	}
	// The compactor runs in the background and only wins the store lock once
	// the churn stops; poll CURRENT until the generation flips.
	gen := func() string {
		cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(cur))
	}
	for deadline := time.Now().Add(10 * time.Second); gen() == "1"; {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := storage.OpenDisk(dir, storage.DiskOptions{})
	if err != nil {
		t.Fatalf("reopen after auto-compaction: %v", err)
	}
	defer st2.Close()
	r, ok, _ := st2.Rel("e")
	if !ok || r.Len() != 1 {
		t.Fatalf("after churn: ok=%v len=%d, want 1", ok, r.Len())
	}
}
