package server

import (
	"math/rand"
	"sync"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/storage"
	"algrec/internal/value"
)

// checkCache asserts the materialization cache's invariants against the
// store as it stands: every cached set equals a fresh MaterializeSet of its
// relation, matRows is the exact row total, and the total fits the budget.
func checkCache(t *testing.T, es *entryStore, note string) {
	t.Helper()
	es.mu.Lock()
	cached := make(map[string]value.Set, len(es.mat))
	for n, s := range es.mat {
		cached[n] = s
	}
	matRows := es.matRows
	es.mu.Unlock()
	total := 0
	for n, s := range cached {
		total += s.Len()
		r, ok, err := es.st.Rel(n)
		if err != nil || !ok {
			t.Fatalf("%s: cached relation %q: store has it = %v, err %v", note, n, ok, err)
		}
		fresh, err := storage.MaterializeSet(es.in, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(s, fresh) {
			t.Fatalf("%s: cached %q diverges from the store\ncached: %v\nstore:  %v", note, n, s, fresh)
		}
	}
	if matRows != total {
		t.Fatalf("%s: matRows = %d, cached sets hold %d rows", note, matRows, total)
	}
	if matRows > es.budget {
		t.Fatalf("%s: matRows = %d exceeds the budget %d", note, matRows, es.budget)
	}
}

func isCached(es *entryStore, name string) bool {
	es.mu.Lock()
	defer es.mu.Unlock()
	_, ok := es.mat[name]
	return ok
}

// TestMaterializationCacheSurvivesWrites drives an entryStore through a
// random mutation schedule — same-shape batches, which must advance the
// cached sets in place, and shape-changing ones, which take the
// RearityBatch fallback and drop them — beside a reader that keeps
// materializing, and checks the cache against the store after every batch.
func TestMaterializationCacheSurvivesWrites(t *testing.T) {
	pair := func(a, b int) value.Value { return value.Pair(value.Int(int64(a)), value.Int(int64(b))) }
	initial := func() algebra.DB {
		e := value.NewSetBuilder(40)
		for i := 0; i < 40; i++ {
			e.Add(pair(i%13, i))
		}
		return algebra.DB{
			"e": e.Set(),
			"a": value.NewSet(value.Int(1), value.Int(2), value.Int(3)),
			"m": value.NewSet(value.Int(7), pair(1, 2), value.NewTuple(value.Int(1), value.Int(2), value.Int(3))),
		}
	}
	open := func(t *testing.T, budget int) *entryStore {
		cfg := StorageConfig{Dir: t.TempDir(), MatBudgetRows: budget}
		es, err := cfg.withDefaults().open("t")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { es.close() })
		if err := es.replace(initial()); err != nil {
			t.Fatal(err)
		}
		return es
	}
	fact := func(pred string, args ...int) datalog.Fact {
		f := datalog.Fact{Pred: pred}
		for _, a := range args {
			f.Args = append(f.Args, value.Int(int64(a)))
		}
		return f
	}

	t.Run("replace seeds, same-shape batches advance", func(t *testing.T) {
		es := open(t, 1<<20)
		checkCache(t, es, "after replace")
		for _, n := range []string{"e", "a", "m"} {
			if !isCached(es, n) {
				t.Fatalf("replace did not seed %q", n)
			}
		}
		if err := es.applyFacts([]datalog.Fact{fact("e", 99, 1), fact("a", 9)}, []datalog.Fact{fact("e", 0, 0), fact("e", 5, 5)}); err != nil {
			t.Fatal(err)
		}
		checkCache(t, es, "after a same-shape batch")
		if !isCached(es, "e") || !isCached(es, "a") {
			t.Fatal("a same-shape batch dropped the cached relations instead of advancing them")
		}
		// A triple into the relation of pairs changes its stored shape.
		if err := es.applyFacts([]datalog.Fact{fact("e", 1, 2, 3)}, nil); err != nil {
			t.Fatal(err)
		}
		checkCache(t, es, "after a shape-changing batch")
		if isCached(es, "e") {
			t.Fatal("the RearityBatch fallback kept the re-encoded relation cached")
		}
	})

	t.Run("budget", func(t *testing.T) {
		es := open(t, 45) // e (40) + a (3) fit, m (3) does not
		checkCache(t, es, "after replace")
		var ins []datalog.Fact
		for i := 0; i < 5; i++ {
			ins = append(ins, fact("e", 100+i, i))
		}
		if err := es.applyFacts(ins, nil); err != nil { // e grows to 45: 48 with a
			t.Fatal(err)
		}
		checkCache(t, es, "after outgrowing the budget")
		if isCached(es, "e") {
			t.Fatal("a relation that outgrew the budget stayed cached")
		}
	})

	t.Run("random schedule beside a reader", func(t *testing.T) {
		es := open(t, 1<<20)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := es.materialize(nil, true); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
		rng := rand.New(rand.NewSource(18))
		randFact := func() datalog.Fact {
			switch rng.Intn(10) {
			case 0:
				return fact("e", rng.Intn(13), rng.Intn(40), rng.Intn(3)) // wrong width for e
			case 1:
				return fact("e", rng.Intn(40)) // a scalar among the pairs
			case 2:
				return fact("a", rng.Intn(10))
			case 3:
				return fact("m", rng.Intn(10), rng.Intn(3))
			case 4:
				return fact("fresh", rng.Intn(5), rng.Intn(5))
			default:
				return fact("e", rng.Intn(13), rng.Intn(40))
			}
		}
		for batch := 0; batch < 150; batch++ {
			var ins, del []datalog.Fact
			for i := rng.Intn(4); i >= 0; i-- {
				ins = append(ins, randFact())
			}
			for i := rng.Intn(4); i > 0; i-- {
				del = append(del, randFact())
			}
			if err := es.applyFacts(ins, del); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			checkCache(t, es, "random schedule")
		}
		close(stop)
		wg.Wait()
	})
}
