package storage_test

import (
	"sync"
	"testing"

	"algrec/internal/storage"
	"algrec/internal/value/intern"
)

// TestConcurrentReadersDuringApply hammers each backend with concurrent
// scans, Len and Arity calls and relation listings while a writer churns
// inserts, deletes and resets. Run under -race in CI; the invariant checked here is weaker than
// conformance (only self-consistency of each observed scan) because readers
// race mutations by design.
func TestConcurrentReadersDuringApply(t *testing.T) {
	in := intern.Global()
	run := func(t *testing.T, st storage.Store) {
		num := func(i int) intern.ID { return in.InternInt(int64(i)) }
		seed := make([][]intern.ID, 64)
		for i := range seed {
			seed[i] = []intern.ID{num(i), num(i * 2)}
		}
		if err := st.Apply(storage.Batch{{Rel: "e", Arity: 2, Reset: true, Insert: seed}}); err != nil {
			t.Fatal(err)
		}
		r, _, _ := st.Rel("e")

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					switch i % 3 {
					case 0:
						n := 0
						if err := r.Scan(func(row []intern.ID) bool {
							if len(row) != 2 {
								t.Errorf("scan row width %d", len(row))
								return false
							}
							n++
							return true
						}); err != nil {
							t.Errorf("Scan: %v", err)
							return
						}
					case 1:
						if r.Arity() != 2 || r.Len() < 0 {
							t.Errorf("arity %d, len %d", r.Arity(), r.Len())
							return
						}
					default:
						if _, err := st.Rels(); err != nil {
							t.Errorf("Rels: %v", err)
							return
						}
					}
				}
			}(w)
		}
		for i := 0; i < 300; i++ {
			var b storage.Batch
			switch i % 10 {
			case 9:
				b = storage.Batch{{Rel: "e", Arity: 2, Reset: true, Insert: seed}}
			case 4:
				b = storage.Batch{{Rel: "e", Arity: 2, Delete: [][]intern.ID{{num(i % 64), num((i % 64) * 2)}}}}
			default:
				b = storage.Batch{{Rel: "e", Arity: 2, Insert: [][]intern.ID{{num(i), num(i + 1)}}}}
			}
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
	}
	t.Run("Mem", func(t *testing.T) { run(t, storage.NewMem(nil)) })
	t.Run("Disk", func(t *testing.T) {
		st, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		run(t, st)
	})
}
