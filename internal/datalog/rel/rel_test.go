package rel

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"algrec/internal/algebra"
	"algrec/internal/datalog"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

func ints(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.Int(v)
	}
	return out
}

func pair(a, b int64) value.Value { return value.NewTuple(value.Int(a), value.Int(b)) }

func fact(pred string, args ...int64) datalog.Fact {
	return datalog.Fact{Pred: pred, Args: ints(args...)}
}

func mustProgram(t testing.TB, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	return p
}

var roomy = Limits{MaxRows: 1 << 30, MaxSteps: 1 << 40}

// evaluate builds an engine for src over base and returns what it derives,
// keyed by predicate.
func evaluate(t testing.TB, src string, base *Base) (map[string][]string, *Engine) {
	t.Helper()
	prog := mustProgram(t, src)
	e, err := NewEngine(prog, Config{Base: base, Limits: roomy, Observed: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := map[string][]string{}
	for _, p := range prog.Preds() {
		if e.Derives(p) {
			out[p], _ = e.Keys(p, false)
		}
	}
	return out, e
}

// eachRow walks rows, as SortedKeys wants them.
func eachRow(rows [][]intern.ID) func(f func(row []intern.ID)) {
	return func(f func(row []intern.ID)) {
		for _, row := range rows {
			f(row)
		}
	}
}

// checkText holds rendered keys to their text: the text is the keys as
// encoding/json writes them, without the array's brackets, and a key JSON
// leaves as it is is a view into the text.
func checkText(t *testing.T, keys []string, text string) {
	t.Helper()
	want, err := json.Marshal(keys)
	if err != nil {
		t.Fatal(err)
	}
	if keys == nil {
		want = []byte("[]")
	}
	if text != string(want[1:len(want)-1]) {
		t.Fatalf("text %s, want the keys %s", text, want)
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.StringData(text))), uintptr(unsafe.Pointer(unsafe.StringData(text)))+uintptr(len(text))
	for _, k := range keys {
		q, _ := json.Marshal(k)
		at := uintptr(unsafe.Pointer(unsafe.StringData(k)))
		if inside := at >= lo && at < hi; inside != (string(q) == `"`+k+`"`) {
			t.Fatalf("key %q: a view into the text is %v, want it only when JSON leaves the key as it is", k, inside)
		}
	}
}

// TestEscapeTailIsEncodingJSON: text of quotes, backslashes, control
// characters, HTML's <, > and &, U+2028 and U+2029, other non-ASCII letters
// and invalid UTF-8 is escaped in place as encoding/json escapes it.
func TestEscapeTailIsEncodingJSON(t *testing.T) {
	alphabet := []string{"a", "Z", " ", "\"", "\\", "/", "<", ">", "&", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
		"é", "\u2028", "\u2029", "\u2027", "日", "\U0001F600", "\xff", "\xe2\x80", "\xc3"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var sb []byte
		for n := rng.Intn(8); n > 0; n-- {
			sb = append(sb, alphabet[rng.Intn(len(alphabet))]...)
		}
		s := string(sb)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		buf, raw := EscapeTail(append([]byte("x"), s...), 1)
		if string(buf[1:]) != string(want[1:len(want)-1]) || raw != "" && raw != s {
			t.Fatalf("EscapeTail(%q) = %s (raw %q), want %s", s, buf[1:], raw, want)
		}
	}
}

// TestSortedKeysIsCompareFactsOrder: rows rendered by SortedKeys come out in
// datalog.CompareFacts order with Fact.Key's text, for rows of mixed width
// over every kind of value, strings JSON escapes included; the text holds
// them as JSON strings.
func TestSortedKeysIsCompareFactsOrder(t *testing.T) {
	in := intern.Global()
	pool := []value.Value{
		value.Int(-3), value.Int(0), value.Int(7), value.Int(10), value.Int(100),
		value.String("a"), value.String("b c"), value.Bool(false), value.Bool(true),
		pair(1, 2), pair(1, 10), value.NewTuple(value.Int(1)), value.NewSet(ints(2, 1)...), value.NewSet(),
		value.String("<&>"), value.String("\u2028é\x01"), value.Int(1 << 20),
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var facts []datalog.Fact
		var rows [][]intern.ID
		for i := 0; i < 40; i++ {
			args := make([]value.Value, rng.Intn(4))
			row := make([]intern.ID, len(args))
			for k := range args {
				args[k] = pool[rng.Intn(len(pool))]
				row[k] = in.Intern(args[k])
			}
			f := datalog.Fact{Pred: "p", Args: args}
			if seen[f.Key()] {
				continue
			}
			seen[f.Key()] = true
			facts = append(facts, f)
			rows = append(rows, row)
		}
		datalog.SortFacts(facts)
		want := make([]string, len(facts))
		for i, f := range facts {
			want[i] = f.Key()
		}
		got, text := SortedKeys("p", eachRow(rows))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n got %v\nwant %v", seed, got, want)
		}
		checkText(t, got, text)
	}
	if keys, text := SortedKeys("p", eachRow(nil)); keys != nil || text != "" {
		t.Fatal("no rows must render as nil and \"\", the outcome's form of an empty predicate")
	}
}

// TestSortedKeysMatchesSortFacts holds SortedKeys to an order it does not
// share code with: the same rows as datalog facts, sorted by
// datalog.SortFacts and rendered by Fact.Key. The rows are of one width from
// 0 to 4, at sizes on both sides of radixRows — integers including the
// extremes, so the radix orders them; the same with one value of another kind,
// so they fall back to comparison; values of every kind — and of mixed
// widths.
func TestSortedKeysMatchesSortFacts(t *testing.T) {
	in := intern.Global()
	others := []value.Value{
		value.String("a"), value.String("B c"), value.Bool(false), value.Bool(true),
		pair(1, 2), value.NewTuple(value.Int(-1)), value.NewSet(ints(2, 1)...),
	}
	intOf := func(rng *rand.Rand) value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.Int([]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(7)])
		case 1:
			return value.Int(rng.Int63() - rng.Int63())
		default:
			return value.Int(rng.Intn(600) - 300)
		}
	}
	for _, kind := range []string{"ints", "ints and one other", "every kind", "mixed widths"} {
		for _, size := range []int{1, 2, radixRows - 1, radixRows, radixRows + 1, 3 * radixRows, 1000} {
			for width := 0; width <= 4; width++ {
				rng := rand.New(rand.NewSource(int64(size*10 + width)))
				seen := map[string]bool{}
				var facts []datalog.Fact
				var rows [][]intern.ID
				for tries := 0; len(rows) < size && tries < 4*size; tries++ {
					w := width
					if kind == "mixed widths" {
						w = rng.Intn(5)
					}
					args := make([]value.Value, w)
					for k := range args {
						args[k] = intOf(rng)
						if kind == "every kind" && rng.Intn(2) == 0 {
							args[k] = others[rng.Intn(len(others))]
						}
					}
					if kind == "ints and one other" && w > 0 && len(rows) == size-1 {
						args[w-1] = others[rng.Intn(len(others))]
					}
					f := datalog.Fact{Pred: "p", Args: args}
					if seen[f.Key()] {
						continue
					}
					seen[f.Key()] = true
					row := make([]intern.ID, w)
					for k, v := range args {
						row[k] = in.Intern(v)
					}
					facts, rows = append(facts, f), append(rows, row)
				}
				datalog.SortFacts(facts)
				want := make([]string, len(facts))
				for i, f := range facts {
					want[i] = f.Key()
				}
				got, text := SortedKeys("p", eachRow(rows))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d rows of width %d:\n got %v\nwant %v", kind, len(rows), width, got, want)
				}
				checkText(t, got, text)
			}
		}
	}
}

// TestSortedKeysAllocsOwnIDInts: rendering rows allocates nothing per
// integer, for integers that are their own IDs as for small ones; longer
// keys may cost the text a growth step more.
func TestSortedKeysAllocsOwnIDInts(t *testing.T) {
	in := intern.Global()
	allocs := func(base int64) float64 {
		rows := make([][]intern.ID, 1000)
		for i := range rows {
			rows[i] = []intern.ID{in.InternInt(base + int64(i)), in.InternInt(base + int64(i%7))}
		}
		return testing.AllocsPerRun(5, func() { SortedKeys("p", eachRow(rows)) })
	}
	if small, own := allocs(100), allocs(1<<20); small > 30 || own > small+2 {
		t.Errorf("1000 pairs take %.0f allocations at 2^20, %.0f at 100: want no more than 30 and 2 more", own, small)
	}
}

// BenchmarkSortedKeys: the keys of 3·10^4 distinct pairs of integers below
// 10^4 — the size of the read workload's reach answer — sorted and rendered.
func BenchmarkSortedKeys(b *testing.B) {
	in, rng := intern.Global(), rand.New(rand.NewSource(1))
	seen := map[[2]int64]bool{}
	var orig [][]intern.ID
	for len(orig) < 30000 {
		p := [2]int64{rng.Int63n(10000), rng.Int63n(10000)}
		if !seen[p] {
			seen[p] = true
			orig = append(orig, []intern.ID{in.InternInt(p[0]), in.InternInt(p[1])})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortedKeys("reach", eachRow(orig))
	}
}

// BenchmarkBaseKeys: a fresh base's keys of 2·10^4 distinct pairs of integers
// below 10^4 — the read workload's edges, rendered once per database version
// by the first request that reports them — from a relation held flat, as a
// loaded one is, and from one held in runs, as one is after a write batch
// (value.Set.Update).
func BenchmarkBaseKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seen := map[[2]int64]bool{}
	var edges []value.Value
	for len(edges) < 20000 {
		p := [2]int64{rng.Int63n(10000), rng.Int63n(10000)}
		if !seen[p] {
			seen[p] = true
			edges = append(edges, pair(p[0], p[1]))
		}
	}
	flat := value.NewSet(edges...)
	for _, c := range []struct {
		name string
		e    value.Set
	}{
		{"flat", flat},
		{"runs", flat.Update(value.NewSet(edges[0]), value.NewSet(pair(10000, 0)))},
	} {
		db := algebra.DB{"e": c.e}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var use BaseUse
				NewBase(db).Keys("e", &use)
			}
		})
	}
}

// TestBaseForms: what a base derives from a heterogeneous relation — scalars
// beside tuples of several widths, a scalar beside its own 1-tuple — is the
// sorted, duplicate-free fact list in all three forms; empty relations are
// not there at all; and a nil base is the empty database.
func TestBaseForms(t *testing.T) {
	db := algebra.DB{
		"d": value.NewSet(value.Int(5), value.Int(1), value.NewTuple(value.Int(5)), pair(1, 7), pair(0, 9),
			value.NewTuple(ints(1, 7, 0)...), value.String("x")),
		"e":     value.NewSet(pair(2, 3), pair(1, 2), pair(10, 1)),
		"empty": value.NewSet(),
	}
	b := NewBase(db)
	if got, want := b.Names(), []string{"d", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	var use BaseUse
	for name, s := range db {
		var facts []datalog.Fact
		for _, el := range s.Elems() {
			facts = append(facts, ElemFact(name, el))
		}
		datalog.SortFacts(facts)
		var want []string
		for _, f := range facts {
			if n := len(want); n == 0 || want[n-1] != f.Key() {
				want = append(want, f.Key())
			}
		}
		got, text := b.Keys(name, &use)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Keys(%s) = %v, want %v", name, got, want)
		}
		checkText(t, got, text)
		var rules []string
		for _, r := range b.FactRules(name, &use) {
			rules = append(rules, r.String())
		}
		for i := range want {
			want[i] += "."
		}
		if !reflect.DeepEqual(rules, want) {
			t.Errorf("FactRules(%s) = %v, want %v", name, rules, want)
		}
	}
	if use.Rows != 6+3 || use.Keys != 6+3 || use.Indexes != 0 {
		t.Errorf("first use derived %+v, want 9 rows and 9 keys", use)
	}
	use = BaseUse{}
	b.Keys("d", &use)
	b.FactRules("e", &use)
	if use != (BaseUse{}) {
		t.Errorf("second use derived %+v again", use)
	}
	if rel := b.relation("d").tables(&use); rel.ndb != 6 || len(rel.tables) != 3 {
		t.Errorf("tables of d: %d facts in %d tables, want 6 in 3 (arities 1, 2, 3)", rel.ndb, len(rel.tables))
	}

	var none *Base
	if none.DB() != nil || none.Names() != nil || none.FactRules("e", &use) != nil {
		t.Error("a nil base is the empty database")
	}
	if keys, text := none.Keys("e", &use); keys != nil || text != "" {
		t.Error("a nil base has no keys")
	}
}

// TestEngineLayersOverBase: relations a program only reads are the base's
// frozen tables; one it also derives into is copied, so the base — and every
// other engine over it — never sees what a request derived. A maintained
// engine copies every stored relation, so the base and every engine over it
// never see its batches either, rebuilt or maintained.
func TestEngineLayersOverBase(t *testing.T) {
	base := NewBase(algebra.DB{
		"e": value.NewSet(pair(1, 2), pair(2, 3), pair(3, 4)),
		"r": value.NewSet(value.Int(9), pair(9, 9)), // stored and derived, two arities
	})
	const src = `
		r(1).
		r(Y) :- r(X), e(X, Y).
		twice(X, times(X, 2)) :- r(X), not e(X, 2).
	`
	want := map[string][]string{
		"r":     {"r(1)", "r(2)", "r(3)", "r(4)", "r(9)", "r(9, 9)"},
		"twice": {"twice(2, 4)", "twice(3, 6)", "twice(4, 8)", "twice(9, 18)"},
	}
	for round := 0; round < 2; round++ {
		got, e := evaluate(t, src, base)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: derived %v, want %v", round, got, want)
		}
		if e.rels["e"].tables[0] != base.relation("e").rel.tables[0] {
			t.Fatal("e is read-only to the program: its table must be the base's")
		}
		for _, tab := range e.rels["r"].tables {
			if tab.frozen {
				t.Fatal("r is derived into: its tables must be private")
			}
		}
		if hit := e.Use == (BaseUse{}); hit != (round == 1) {
			t.Fatalf("round %d: base use %+v", round, e.Use)
		}
	}
	// The private copy is made from the base's frozen rows: the first engine
	// over a base converts a stored relation it derives into once, even
	// into both halves of a three-valued predicate, and a later one not at
	// all.
	for _, src := range []string{`r(1).`, `r(X) :- q(X), not r(X). q(2).`} {
		fresh := NewBase(algebra.DB{"r": value.NewSet(value.Int(9), pair(9, 9))})
		for round, want := range []int{2, 0} {
			if _, e := evaluate(t, src, fresh); e.Use.Rows != want {
				t.Errorf("%s, engine %d: converted %d rows, want %d", src, round, e.Use.Rows, want)
			}
		}
	}
	var use BaseUse
	if got, _ := base.Keys("r", &use); !reflect.DeepEqual(got, []string{"r(9)", "r(9, 9)"}) {
		t.Fatalf("the base's r after two evaluations = %v, want [r(9) r(9, 9)]", got)
	}

	// A maintained engine and a query engine over one base. Cutting the
	// chain near its start costs the maintained engine more join steps than
	// any other batch here, and more than rebuilding what is left: a budget
	// just below that cut's answers it, and only it, by a rebuild.
	var chain []value.Value
	for i := int64(1); i < 100; i++ {
		chain = append(chain, pair(i, i+1))
	}
	db := algebra.DB{"e": value.NewSet(chain...), "r": value.NewSet(value.Int(9), pair(9, 9))}
	shared := NewBase(db)
	cut := []datalog.Fact{fact("e", 1, 2)}
	batches := []struct{ ins, del []datalog.Fact }{
		{ins: []datalog.Fact{fact("e", 100, 101), fact("e", 0, 1), fact("r", 0)}, del: []datalog.Fact{fact("r", 9, 9), fact("e", 7, 7)}},
		{del: append([]datalog.Fact{fact("r", 9)}, cut...)},
		{ins: cut, del: []datalog.Fact{fact("e", 20, 21)}},
	}
	probe := maintained(t, src, NewBase(db), roomy)
	steps := make([]int, len(batches))
	for i, b := range batches {
		if _, err := probe.Apply(b.ins, b.del); err != nil {
			t.Fatal(err)
		}
		steps[i] = probe.Steps
	}
	_, reader := evaluate(t, src, shared)
	read := keysOf(reader, "e", "r", "twice")
	m := maintained(t, src, shared, roomy)
	m.lim.MaxSteps = steps[1] - 1
	for i, b := range batches {
		if _, err := m.Apply(b.ins, b.del); err != nil || m.Rebuilt != (i == 1) {
			t.Fatalf("batch %d of %v join steps: rebuilt %v, error %v", i, steps, m.Rebuilt, err)
		}
		db = mutate(db, b.ins, b.del)
		_, fresh := evaluate(t, src, NewBase(db))
		if got, want := keysOf(m, "e", "r", "twice"), keysOf(fresh, "e", "r", "twice"); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: maintained %v, from scratch %v", i, got, want)
		}
	}
	// The query engine built on the base, and the base, its keys first
	// rendered now, still hold the database as it was.
	if now := keysOf(reader, "e", "r", "twice"); !reflect.DeepEqual(now, read) {
		t.Fatalf("the query engine over the base after the batches holds %v, before them %v", now, read)
	}
	for _, p := range []string{"e", "r"} {
		got, _ := shared.Keys(p, &use)
		if want, _ := NewBase(shared.DB()).Keys(p, &use); !reflect.DeepEqual(got, want) {
			t.Fatalf("the base's %s after the batches = %v, want %v", p, got, want)
		}
	}
	if !reflect.DeepEqual(shared.Names(), []string{"e", "r"}) || !shared.TuplesOf("e", 2, &use) || shared.TuplesOf("r", 1, &use) {
		t.Fatalf("the base's shape changed: names %v", shared.Names())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("inserting into a frozen table must panic")
		}
	}()
	base.relation("e").rel.tables[0].internRow([]intern.ID{1, 1})
}

// keysOf renders what the engine holds of the predicates.
func keysOf(e *Engine, preds ...string) map[string][]string {
	out := map[string][]string{}
	for _, p := range preds {
		out[p], _ = e.Keys(p, false)
	}
	return out
}

// maintained builds a maintained engine for src over base.
func maintained(t testing.TB, src string, base *Base, lim Limits) *Engine {
	t.Helper()
	e, err := NewEngine(mustProgram(t, src), Config{Base: base, Limits: lim, Maintain: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := e.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return e
}

// mutate returns db with a batch applied — deletions first — under the
// fact↔element mapping (ElemFact), leaving db alone.
func mutate(db algebra.DB, ins, del []datalog.Fact) algebra.DB {
	out := db.Clone()
	for _, f := range del {
		out[f.Pred] = out[f.Pred].Diff(value.NewSet(FactElem(f)))
	}
	for _, f := range ins {
		out[f.Pred] = out[f.Pred].Insert(FactElem(f))
	}
	return out
}

// TestBuildCompilesOnlyWhatItEnters: an engine that will only Build indexes
// the columns its from-scratch and in-unit pivot plans probe; one that will
// maintain indexes the head-bound and lower-literal pivots' too (here: who
// points at Y, for re-deriving r(Y)).
func TestBuildCompilesOnlyWhatItEnters(t *testing.T) {
	prog := mustProgram(t, `r(X) :- e(0, X). r(Y) :- r(X), e(X, Y).`)
	indexed := func(maintain bool) map[string][]int {
		e, err := NewEngine(prog, Config{Limits: roomy, Maintain: maintain})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]int{}
		for name, rel := range e.rels {
			for _, tab := range rel.tables {
				for k, c := range tab.cols {
					if c != nil {
						out[name] = append(out[name], k)
					}
				}
			}
		}
		return out
	}
	if got, want := indexed(false), map[string][]int{"e": {0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("build-only engine indexes %v, want %v", got, want)
	}
	if got, want := indexed(true), map[string][]int{"e": {0, 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("maintaining engine indexes %v, want %v", got, want)
	}
}

// TestBaseSharedByConcurrentEngines: engines built at once over one base give
// the same answer, and between them derive each table and each column index
// exactly once (run under -race).
func TestBaseSharedByConcurrentEngines(t *testing.T) {
	var edges []value.Value
	for i := int64(0); i < 300; i++ {
		edges = append(edges, pair(i, (i*7+1)%300), pair(i, (i*11+5)%300))
	}
	base := NewBase(algebra.DB{"e": value.NewSet(edges...)})
	const src = `
		r(X) :- e(0, X).
		r(Y) :- r(X), e(X, Y).
		pred(X) :- e(X, 5).
	`
	want, _ := evaluate(t, src, NewBase(base.DB()))
	const workers = 8
	uses := make([]BaseUse, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, e := evaluate(t, src, base)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("worker %d diverged", w)
			}
			uses[w] = e.Use
		}(w)
	}
	wg.Wait()
	var total BaseUse
	for _, u := range uses {
		total.Rows += u.Rows
		total.Indexes += u.Indexes
	}
	if total.Rows != base.DB()["e"].Len() || total.Indexes != 2 {
		t.Fatalf("%d engines derived %+v between them, want the %d rows once and the two column indexes of e once",
			workers, total, base.DB()["e"].Len())
	}
}

// TestLimits: rows and join steps are budgeted with algebra.ErrBudget, and a
// fired interrupt ends a single product rule — one Exec, no unit boundary or
// worklist row in sight — within pollEvery join steps.
func TestLimits(t *testing.T) {
	var as []value.Value
	for i := int64(0); i < 100; i++ {
		as = append(as, value.Int(i))
	}
	base := NewBase(algebra.DB{"a": value.NewSet(as...)})
	prog := mustProgram(t, `p(X, Y, Z) :- a(X), a(Y), a(Z).`)
	build := func(lim Limits) (*Engine, error) {
		e, err := NewEngine(prog, Config{Base: base, Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		return e, e.Build()
	}
	if _, err := build(Limits{MaxRows: 50, MaxSteps: 1 << 40}); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("100 stored facts under MaxRows 50: %v", err)
	}
	if _, err := build(Limits{MaxRows: 5000, MaxSteps: 1 << 40}); !errors.Is(err, algebra.ErrBudget) {
		t.Errorf("10^6 derived facts under MaxRows 5000: %v", err)
	}
	if e, err := build(Limits{MaxRows: 1 << 30, MaxSteps: 1000}); !errors.Is(err, algebra.ErrBudget) || e.Steps != 1001 {
		t.Errorf("MaxSteps 1000: stopped after %d steps with %v", e.Steps, err)
	}
	fired := make(chan struct{})
	close(fired)
	for slot := 0; slot < 2; slot++ {
		lim := roomy
		lim.Interrupts[slot] = fired
		e, err := NewEngine(prog, Config{Base: base, Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		// Enter the rule directly: Build would notice the interrupt before its
		// first unit.
		_, err = e.exec(e.units[len(e.units)-1].rules[0], e.units[len(e.units)-1].rules[0].scratch, nil, viewCur, -1,
			func(*table, []intern.ID) error { return nil })
		if !errors.Is(err, algebra.ErrCanceled) || e.Steps != pollEvery {
			t.Errorf("interrupt %d: stopped after %d steps with %v, want ErrCanceled after %d", slot, e.Steps, err, pollEvery)
		}
	}
}

// TestUnitStats: an observed Build says per component what it did, and which
// relations it read by scanning.
func TestUnitStats(t *testing.T) {
	base := NewBase(algebra.DB{"e": value.NewSet(pair(0, 1), pair(1, 2), pair(2, 0), pair(5, 6))})
	_, e := evaluate(t, `
		r(X) :- e(0, X).
		r(Y) :- r(X), e(X, Y).
		far(X) :- e(X, Y), not r(X).
	`, base)
	if len(e.UnitStats) != 2 {
		t.Fatalf("UnitStats = %+v, want the units of r and far", e.UnitStats)
	}
	r, far := e.UnitStats[0], e.UnitStats[1]
	if !reflect.DeepEqual(r.Preds, []string{"r"}) || !r.Recursive || r.Rows != 3 || !sort.StringsAreSorted(r.Scanned) {
		t.Errorf("unit r: %+v", r)
	}
	for _, name := range r.Scanned {
		if name == "e" {
			t.Errorf("the recursive unit scanned e: %+v", r)
		}
	}
	if !reflect.DeepEqual(far.Preds, []string{"far"}) || far.Recursive || far.Rows != 1 || !reflect.DeepEqual(far.Scanned, []string{"e"}) {
		t.Errorf("unit far: %+v", far)
	}
	if e.Steps != r.Steps+far.Steps || e.NumRows() != 4+3+1 {
		t.Errorf("totals: %d steps, %d rows", e.Steps, e.NumRows())
	}
}

// TestThreeValuedUnits: from the lowest component that negates itself upward
// a predicate has true and possible rows. The component is one unit of two
// halves — each condensed over its positive edges alone, so a negative cycle
// is counted, not over-deleted — that alternate; a stratified component above
// it closes each half once; everything else stays total. Rows are budgeted
// and reported as possible, once.
func TestThreeValuedUnits(t *testing.T) {
	base := NewBase(algebra.DB{"e": value.NewSet(pair(1, 2), pair(2, 3), pair(3, 3), pair(4, 1))})
	const src = `
		t(X) :- e(X, Y).
		p(X) :- t(X), not q(X).
		q(X) :- t(X), not p(X).
		q(1). p(4) :- q(1).
		up(X) :- t(X), not p(X).
		alone(X) :- e(X, X).
	`
	got, e := evaluate(t, src, base)
	want := map[string][]string{"t": {"t(1)", "t(2)", "t(3)", "t(4)"}, "p": {"p(4)"}, "q": {"q(1)"}, "up": {"up(1)"}, "alone": {"alone(3)"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("true rows %v, want %v", got, want)
	}
	undef := map[string][]string{}
	for _, p := range []string{"t", "p", "q", "up", "alone"} {
		undef[p], _ = e.Keys(p, true)
	}
	if want := map[string][]string{"t": nil, "p": {"p(2)", "p(3)"}, "q": {"q(2)", "q(3)"}, "up": {"up(2)", "up(3)"}, "alone": nil}; !reflect.DeepEqual(undef, want) {
		t.Fatalf("undefined rows %v, want %v", undef, want)
	}
	var shape [][]string
	for _, u := range e.units {
		desc := append([]string{}, u.order...)
		for _, half := range [2][]*unit{u.upper, u.lower} {
			for _, h := range half {
				if h.recursive || (h.group != nil) != u.alternates {
					t.Errorf("half %v of %v: recursive %v, group %v", h.order, u.order, h.recursive, h.group != nil)
				}
				desc = append(desc, h.order...)
			}
		}
		shape = append(shape, desc)
	}
	sort.Slice(shape, func(i, j int) bool { return shape[i][0] < shape[j][0] })
	if want := [][]string{{"alone"}, {"e"}, {"p", "q", "q?", "p?", "q", "p"}, {"t"}, {"up", "up?", "up"}}; !reflect.DeepEqual(shape, want) {
		t.Errorf("units %v, want %v", shape, want)
	}
	for _, st := range e.UnitStats {
		if alternates := st.Preds[0] == "p"; (st.Alternations > 0) != alternates || (st.Flips > 0) != alternates {
			t.Errorf("unit %v: %d alternations, %d flips", st.Preds, st.Alternations, st.Flips)
		}
	}
	// e 4, t 4, alone 1; possible: p 3, q 3, up 3.
	if e.NumRows() != 4+4+1+3+3+3 {
		t.Errorf("NumRows = %d", e.NumRows())
	}
	prog := mustProgram(t, src)
	for rows, ok := range map[int]bool{e.NumRows(): true, e.NumRows() - 1: false} {
		tight, err := NewEngine(prog, Config{Base: base, Limits: Limits{MaxRows: rows, MaxSteps: 1 << 40}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tight.Build(); (err == nil) != ok || (err != nil && !errors.Is(err, algebra.ErrBudget)) {
			t.Errorf("MaxRows %d: %v", rows, err)
		}
	}
}

// freshNodes hands out node ids no earlier test run in this process has
// mentioned (-count=2 runs a test twice against the same global interner).
var freshNodes int64 = 10_000_000

// TestChurnLeavesNothingBehind replays 2 000 leaf-churn batches with fresh
// node ids over a maintained engine of every strategy — a binary tree on 500
// nodes under what node 0 reaches — and expects the process-global arena not
// to grow at all — the fresh ids are integers that are their own ID, and no
// row, base or derived, is ever interned — and the engine's tables to stay
// at their warm size.
func TestChurnLeavesNothingBehind(t *testing.T) {
	var tree []value.Value
	for i := int64(1); i < 500; i++ {
		tree = append(tree, pair((i-1)/2, i))
	}
	e := maintained(t, `
		r(X) :- e(0, X).
		r(Y) :- r(X), e(X, Y).
		orphan(Y) :- e(X, Y), not r(X).
		gp(X, Z) :- e(X, Y), e(Y, Z).
	`, NewBase(algebra.DB{"e": value.NewSet(tree...)}), roomy)
	const lag, perBatch, batches = 8, 4, 2_000
	base := freshNodes
	freshNodes += (2*lag + batches) * perBatch
	batch := func(i int) (ins, del []datalog.Fact) {
		for k := 0; k < perBatch; k++ {
			// Half the leaves hang under reached nodes, half under an
			// unreached one (an orphan appears and goes).
			parent := int64(3 + k)
			if k%2 == 1 {
				parent = 5_000_000
			}
			ins = append(ins, fact("e", parent, base+int64(i*perBatch+k)))
			if i >= lag {
				del = append(del, fact("e", parent, base+int64((i-lag)*perBatch+k)))
			}
		}
		return ins, del
	}
	slots := func() (n int) {
		for _, rel := range e.rels {
			for _, tab := range rel.tables {
				n += int(tab.slots())
			}
		}
		return n
	}
	i := 0
	for ; i < 2*lag; i++ {
		if _, err := e.Apply(batch(i)); err != nil {
			t.Fatalf("warm-up batch %d: %v", i, err)
		}
	}
	warmIDs, warmSlots := intern.Global().Len(), slots()
	for ; i < 2*lag+batches; i++ {
		ins, del := batch(i)
		changes, err := e.Apply(ins, del)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(changes) == 0 {
			t.Fatalf("batch %d changed nothing", i)
		}
	}
	if grew := intern.Global().Len() - warmIDs; grew != 0 {
		t.Errorf("arena grew by %d IDs over %d batches of fresh integers, want 0", grew, batches)
	}
	if now := slots(); now > warmSlots+4*perBatch {
		t.Errorf("tables grew from %d to %d row slots under steady churn", warmSlots, now)
	}
}
