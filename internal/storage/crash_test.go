package storage

// Crash-recovery fault injection: a synced store's log is damaged at every
// byte — truncated tails, flipped bits — and the reopened store must equal a
// memory-backend replay of exactly the batches whose frames survive in the
// well-formed prefix. Nothing less (no lost durable batches), nothing more
// (no half-applied tails), and never a failed open for tail damage.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"algrec/internal/value/intern"
)

// crashScript builds a deterministic batch sequence with inserts, deletes,
// resets and several relations (including arity 0).
func crashScript() []Batch {
	in := intern.Global()
	rng := rand.New(rand.NewSource(17))
	num := func(n int) intern.ID { return in.InternInt(int64(n)) }
	var batches []Batch
	var liveA [][]intern.ID
	for i := 0; i < 12; i++ {
		var b Batch
		m := Mutation{Rel: "a", Arity: 2}
		if i == 6 {
			m.Reset = true
			liveA = nil
		}
		for j := 0; j < 3; j++ {
			row := []intern.ID{num(rng.Intn(20)), num(rng.Intn(20))}
			m.Insert = append(m.Insert, row)
			liveA = append(liveA, row)
		}
		if len(liveA) > 2 && rng.Intn(2) == 0 {
			m.Delete = append(m.Delete, liveA[rng.Intn(len(liveA))])
		}
		b = append(b, m)
		if i == 7 {
			// Drop "b" mid-stream; the i%3 branch recreates it at i == 9.
			b = append(b, Mutation{Rel: "b", Drop: true})
		}
		if i%3 == 0 {
			b = append(b, Mutation{Rel: "b", Arity: 1, Insert: [][]intern.ID{
				{tupleOf(in, num(i), num(i+1), num(i+2))},
			}})
		}
		if i%4 == 0 {
			mut := Mutation{Rel: "p", Arity: 0}
			if i%8 == 0 {
				mut.Insert = [][]intern.ID{{}}
			} else {
				mut.Delete = [][]intern.ID{{}}
			}
			b = append(b, mut)
		}
		batches = append(batches, b)
	}
	return batches
}

func tupleOf(in *intern.Interner, ids ...intern.ID) intern.ID {
	return in.InternTuple(ids...)
}

// writeCrashStore applies the script to a synced disk store at dir and
// returns the log path.
func writeCrashStore(t *testing.T, dir string, batches []Batch) string {
	t.Helper()
	st, err := OpenDisk(dir, DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segName("log", 1))
}

// durableBatches counts the recBatch frames in the log's well-formed prefix —
// the same rule replay uses, applied from outside.
func durableBatches(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		return 0
	}
	br := bufio.NewReader(f)
	n := 0
	for {
		kind, _, err := readFrame(br)
		if err != nil {
			return n
		}
		switch kind {
		case recValue:
		case recBatch:
			n++
		default:
			// The kind byte is outside the CRC; replay treats an unknown
			// kind as the torn tail, and so must this count.
			return n
		}
	}
}

// expectedStore replays the first k script batches on the memory backend.
func expectedStore(t *testing.T, batches []Batch, k int) *Mem {
	t.Helper()
	m := NewMem(nil)
	for _, b := range batches[:k] {
		if err := m.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// storesEqual compares two stores' full observable state: relation listings
// and every relation's scan order. It then checks got's resident row tables
// against their scans, since a hash that drifts from its rows passes a scan
// and shows only on a later Delete: every scanned row must be found through
// the hash, and every row the applied batches (want's history) wrote but
// want no longer holds must not be.
func storesEqual(t *testing.T, tag string, got, want Store, applied []Batch) {
	t.Helper()
	written := map[string][][]intern.ID{}
	for _, b := range applied {
		for _, m := range b {
			written[m.Rel] = append(append(written[m.Rel], m.Insert...), m.Delete...)
		}
	}
	gi, err := got.Rels()
	if err != nil {
		t.Fatalf("%s: Rels(got): %v", tag, err)
	}
	wi, err := want.Rels()
	if err != nil {
		t.Fatalf("%s: Rels(want): %v", tag, err)
	}
	if len(gi) != len(wi) {
		t.Fatalf("%s: relations %v vs %v", tag, gi, wi)
	}
	for i := range gi {
		if gi[i] != wi[i] {
			t.Fatalf("%s: relation info %+v vs %+v", tag, gi[i], wi[i])
		}
		gr, _, _ := got.Rel(gi[i].Name)
		wr, _, _ := want.Rel(gi[i].Name)
		var grows, wrows [][]intern.ID
		collect := func(dst *[][]intern.ID) func([]intern.ID) bool {
			return func(row []intern.ID) bool {
				cp := make([]intern.ID, len(row))
				copy(cp, row)
				*dst = append(*dst, cp)
				return true
			}
		}
		if err := gr.Scan(collect(&grows)); err != nil {
			t.Fatalf("%s: scan got %q: %v", tag, gi[i].Name, err)
		}
		if err := wr.Scan(collect(&wrows)); err != nil {
			t.Fatalf("%s: scan want %q: %v", tag, gi[i].Name, err)
		}
		if len(grows) != len(wrows) {
			t.Fatalf("%s: relation %q: %d rows vs %d", tag, gi[i].Name, len(grows), len(wrows))
		}
		for j := range grows {
			if !slices.Equal(grows[j], wrows[j]) {
				t.Fatalf("%s: relation %q row %d: %v vs %v", tag, gi[i].Name, j, grows[j], wrows[j])
			}
		}
		res := resident(got, gi[i].Name)
		for _, row := range grows {
			if k, ok := res.Find(row); !ok || !res.Live(k) || !slices.Equal(res.Row(k), row) {
				t.Fatalf("%s: relation %q: scanned row %v not found through the resident hash", tag, gi[i].Name, row)
			}
		}
		for _, row := range written[gi[i].Name] {
			if len(row) != res.Arity() || slices.ContainsFunc(wrows, func(w []intern.ID) bool { return slices.Equal(w, row) }) {
				continue
			}
			if _, ok := res.Find(row); ok {
				t.Fatalf("%s: relation %q: deleted row %v still found through the resident hash", tag, gi[i].Name, row)
			}
		}
	}
}

// resident returns the in-memory row table behind relation name of st.
func resident(st Store, name string) *intern.Relation {
	switch s := st.(type) {
	case *Mem:
		return s.rels[name].r
	case *DiskStore:
		return s.mem.rels[name].r
	}
	panic(fmt.Sprintf("no resident rows in a %T", st))
}

// copyStoreDir clones a store directory for one fault injection.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestCrashRecoveryTruncatedTail(t *testing.T) {
	src := t.TempDir()
	batches := crashScript()
	logPath := writeCrashStore(t, src, batches)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	total := durableBatches(t, logPath)
	if total != len(batches) {
		t.Fatalf("clean log has %d durable batches, want %d", total, len(batches))
	}

	for off := len(segMagic); off <= len(full); off++ {
		dir := copyStoreDir(t, src)
		lp := filepath.Join(dir, segName("log", 1))
		if err := os.Truncate(lp, int64(off)); err != nil {
			t.Fatal(err)
		}
		k := durableBatches(t, lp)
		st, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("truncate at %d: open failed: %v", off, err)
		}
		storesEqual(t, "truncate", st, expectedStore(t, batches, k), batches[:k])
		st.Close()
	}
}

func TestCrashRecoveryFlippedTailBits(t *testing.T) {
	src := t.TempDir()
	batches := crashScript()
	logPath := writeCrashStore(t, src, batches)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in each byte of the last quarter of the log (a torn
	// multi-sector write can scramble, not just shorten).
	for off := len(full) * 3 / 4; off < len(full); off++ {
		dir := copyStoreDir(t, src)
		lp := filepath.Join(dir, segName("log", 1))
		damaged := append([]byte(nil), full...)
		damaged[off] ^= 0x40
		if err := os.WriteFile(lp, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		k := durableBatches(t, lp)
		st, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("flip at %d: open failed: %v", off, err)
		}
		storesEqual(t, fmt.Sprintf("bitflip@%d k=%d", off, k), st, expectedStore(t, batches, k), batches[:k])
		// The torn suffix must have been truncated away: appending new
		// batches and reopening must still agree with the memory replay.
		extra := Batch{{Rel: "z", Arity: 1, Insert: [][]intern.ID{{intern.Global().InternInt(1)}}}}
		if err := st.Apply(extra); err != nil {
			t.Fatalf("flip at %d: post-recovery apply: %v", off, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("flip at %d: second open: %v", off, err)
		}
		want := expectedStore(t, batches, k)
		if err := want.Apply(extra); err != nil {
			t.Fatal(err)
		}
		storesEqual(t, "bitflip+append", st2, want, append(batches[:k:k], extra))
		st2.Close()
	}
}

func TestCrashRecoveryShortHeader(t *testing.T) {
	src := t.TempDir()
	batches := crashScript()
	writeCrashStore(t, src, batches)
	for _, size := range []int64{0, 3, 7} {
		dir := copyStoreDir(t, src)
		if err := os.Truncate(filepath.Join(dir, segName("log", 1)), size); err != nil {
			t.Fatal(err)
		}
		st, err := OpenDisk(dir, DiskOptions{})
		if err != nil {
			t.Fatalf("header truncated to %d: %v", size, err)
		}
		storesEqual(t, "short-header", st, expectedStore(t, batches, 0), nil)
		st.Close()
	}
}

func TestCorruptSnapshotIsRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range crashScript() {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, segName("snap", 2))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike the log, the snapshot was fully synced before CURRENT named it:
	// damage anywhere in it is corruption, not a torn tail.
	for _, off := range []int{2, len(data) / 2, len(data) - 1} {
		damaged := append([]byte(nil), data...)
		damaged[off] ^= 0x01
		if err := os.WriteFile(snap, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(dir, DiskOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip snap byte %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("restored snapshot refused: %v", err)
	}
	st2.Close()
}

func TestStrayGenerationFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(Batch{{Rel: "a", Arity: 1, Insert: [][]intern.ID{{intern.Global().InternInt(7)}}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Leftovers of a compaction that crashed mid-flight.
	for _, name := range []string{"snap-2.seg", "log-2.seg", "CURRENT.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, name := range []string{"snap-2.seg", "log-2.seg", "CURRENT.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stray file %s survived reopen", name)
		}
	}
	r, ok, _ := st2.Rel("a")
	if !ok || r.Len() != 1 {
		t.Fatal("state lost while cleaning strays")
	}
}
