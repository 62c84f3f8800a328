package storage

import (
	"math/rand"
	"testing"

	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// BenchmarkLoadDB is a recovery's work: a disk store of 10^5 distinct random
// integer pairs over 5·10^4 nodes, snapshotted, is reopened on a fresh
// interner (as a new process has) and materialized by LoadDB. Storing it is
// not timed.
func BenchmarkLoadDB(b *testing.B) {
	const nodes, pairs = 50_000, 100_000
	r := rand.New(rand.NewSource(1))
	sb := value.NewSetBuilder(pairs)
	for seen := map[[2]int64]bool{}; len(seen) < pairs; {
		p := [2]int64{int64(r.Intn(nodes)), int64(r.Intn(nodes))}
		if !seen[p] {
			seen[p] = true
			sb.Add(value.NewTuple(value.Int(p[0]), value.Int(p[1])))
		}
	}
	dir := b.TempDir()
	st, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := StoreDB(st, intern.Global(), map[string]value.Set{"edge": sb.Set()}); err != nil {
		b.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := intern.New()
		st, err := openDisk(dir, DiskOptions{}, in)
		if err != nil {
			b.Fatal(err)
		}
		db, err := LoadDB(st, in, 0)
		if err != nil || db["edge"].Len() != pairs {
			b.Fatalf("loaded %d pairs, %v", db["edge"].Len(), err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
