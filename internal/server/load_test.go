package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"algrec/internal/algebra/parse"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// pairsScript is a database script of 10^5 distinct random integer pairs over
// 5·10^4 nodes, the shape of the bulk workload's load.
func pairsScript() (src string, pairs int) {
	const nodes = 50_000
	pairs = 100_000
	r := rand.New(rand.NewSource(1))
	seen := make(map[[2]int]bool, pairs)
	var sb strings.Builder
	sb.WriteString("rel e = {")
	for len(seen) < pairs {
		p := [2]int{r.Intn(nodes), r.Intn(nodes)}
		if seen[p] {
			continue
		}
		if len(seen) > 0 {
			sb.WriteString(", ")
		}
		seen[p] = true
		sb.WriteString("(" + strconv.Itoa(p[0]) + ", " + strconv.Itoa(p[1]) + ")")
	}
	sb.WriteString("};\n")
	return sb.String(), pairs
}

// BenchmarkLoadDBScript times what a PUT of a database script costs before
// the store write and registration: reading pairsScript into ID rows and
// building its database from them.
func BenchmarkLoadDBScript(b *testing.B) {
	src, pairs := pairsScript()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := LoadDBScript(src)
		if err != nil {
			b.Fatal(err)
		}
		if n := db["e"].Len(); n != pairs {
			b.Fatalf("loaded %d pairs, want %d", n, pairs)
		}
	}
}

// BenchmarkPutDB times a whole PUT of pairsScript through Server.Handler onto
// a disk store: reading the body, parsing it, writing the store's log and
// publishing the version. The store is checkpointed between PUTs, outside
// the timer, as the bulk workload does after each load, so every PUT appends
// to a short log.
func BenchmarkPutDB(b *testing.B) {
	src, _ := pairsScript()
	s := New(Config{MaxBodyBytes: 4 * int64(len(src)), Storage: &StorageConfig{Dir: b.TempDir()}})
	defer s.Close()
	h := s.Handler()
	put := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/dbs/b", strings.NewReader(src)))
		if rec.Code != http.StatusOK {
			b.Fatalf("PUT: %d %s", rec.Code, rec.Body)
		}
	}
	put() // the store exists and the pairs' scalars are interned
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := s.reg.snapshot("b", "bench"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		put()
	}
}

// dbScripts are database scripts of every shape a rel literal takes, and
// scripts a PUT must refuse.
var dbScripts = []string{
	"rel e = {(1, 2), (3, 4), (1, 2), (20000, -7), (-7, 20000)};",
	"rel e = {(16383, 16384), (2147483647, 2147483648), (-9223372036854775808, 9223372036854775807), (0, 0)};",
	"rel m = {(1, 2), (1, 2, 3), (4,), ()};",
	"rel o = {(a,), (b,), (a,)};",
	"rel o = {(a), (1), (a)};",
	"rel s = {{1, 2}, {2, 1}, {}, {(1, 2)}, {{}}};",
	`rel t = {("x y", abc, true), ("x y", abc, false), (true, "true", 1), ("", abc, 2)};`,
	`rel w = {abc, "abc", true, false, 3, -3, (1, 2), {x}};`,
	"rel n = {-3, -1, 0, 2, -9223372036854775808, 9223372036854775807, 2, -1};",
	"rel d = {(1, 2), (1, 2), (1, 2)};",
	"rel z = {};",
	"rel a = {1}; rel b = {(1, 2)}; rel c = {x}; rel z = {};",
	"rel u = {(1, 2), (3, 4), 5};",
	"rel u = {5, (1, 2), (3, 4)};",
	"rel u = {(1, 2), (3, 4), (5, 6, 7)};",
	"rel u = {(1, 2), (x, {1, 2}), ((1, 2), 3)};",
	"rel u = {((1, 2), 3), ((1, 2), 4), ((0, 9), 3)};",
	pairsScriptOf(300, false),
	pairsScriptOf(300, true),
	"% only a comment\n",
	"",
	// Refused.
	"rel a = {1}; rel a = {2};",
	"rel a = {1}; rel b = {2}; rel a = {};",
	"rel r = ;",
	"rel r = {1, 2,};",
	"rel r = {(1, 2};",
	"rel r = {(1, 2,, 3)};",
	"rel r = 5;",
	"rel r = (1, 2);",
	"rel r = x y;",
	"rel r = {99999999999999999999};",
	"rel r = {(1, 99999999999999999999)};",
	`rel r = {"unterminated};`,
	"rel = {1};",
	"rel r {1};",
	"rel r = {1}",
	"rel r = {1};;",
	"foo r = {1};",
	"rel r = {1 2};",
	"rel r = {(1 2)};",
	"rel r = {#};",
	"rel e = {(1, 2)}; def f = e;",
	"rel e = {(1, 2)}; query e;",
	"def f = g;",
	"def f = union(e);",
	"rel e = {(1, 2)}; def f = map(e, \\x -> x.1); query f;",
}

// pairsScriptOf is a rel statement of n pairs, over the radix threshold for
// n >= 64, out of order and with repeats; with strings, every seventh pair
// has a symbol, so the rows are compare-sorted.
func pairsScriptOf(n int, strs bool) string {
	var sb strings.Builder
	sb.WriteString("rel p = {")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		j := i % (n * 4 / 5)
		second := strconv.Itoa((j * 31) % 17)
		if strs && j%7 == 0 {
			second = "s" + second
		}
		sb.WriteString("(" + strconv.Itoa((j*7919)%101-50) + ", " + second + ")")
	}
	sb.WriteString("};\n")
	return sb.String()
}

// TestReadDBMatchesParseScript checks the PUT's rows path against reading
// the script whole: for every script, readDB gives ParseScript's database
// relation by relation, the store it writes holds exactly the rows StoreDB
// of that database writes, and a refused script gives the same error text.
func TestReadDBMatchesParseScript(t *testing.T) {
	for _, src := range dbScripts {
		want, wantErr := parse.ParseScript(src)
		if wantErr == nil && (len(want.Program.Defs) > 0 || len(want.Queries) > 0) {
			wantErr = errors.New("server: a database script may contain only rel statements")
		}
		got, rels, err := readDB(src)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q: error %v, want %v", src, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(want.DB) {
			t.Errorf("%q: %d relations, want %d", src, len(got), len(want.DB))
		}
		for name, set := range want.DB {
			if !value.Equal(got[name], set) {
				t.Errorf("%q: relation %s is %v, want %v", src, name, got[name], set)
			}
		}
		stored, byStoreDB := storage.NewMem(nil), storage.NewMem(nil)
		if err := (&entryStore{st: stored, in: intern.Global()}).load(rels); err != nil {
			t.Fatal(err)
		}
		if err := storage.StoreDB(byStoreDB, intern.Global(), want.DB); err != nil {
			t.Fatal(err)
		}
		if a, b := storedRows(t, stored), storedRows(t, byStoreDB); !reflect.DeepEqual(a, b) {
			t.Errorf("%q: stored rows\n%v\nwant StoreDB's\n%v", src, a, b)
		}
	}
}

// storedRows lists a store's relations with their arities and rows in scan
// order.
func storedRows(t *testing.T, st storage.Store) map[string][][]intern.ID {
	t.Helper()
	infos, err := st.Rels()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][][]intern.ID{}
	for _, info := range infos {
		r, _, err := st.Rel(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]intern.ID{{intern.ID(info.Arity)}}
		r.Scan(func(row []intern.ID) bool {
			rows = append(rows, slices.Clone(row))
			return true
		})
		out[info.Name] = rows
	}
	return out
}

// TestPutInternsNoTuples: a PUT of pairs over n scalars the process has not
// seen grows the global arena by those n at most, never by a tuple per
// fact, on a memory entry and on a disk entry alike. It is the PUT's twin
// of TestRecoveryInternsNoTuples.
func TestPutInternsNoTuples(t *testing.T) {
	const nodes = 40
	for _, mode := range []string{"memory", "disk"} {
		cfg := Config{MaxBodyBytes: 1 << 22}
		if mode == "disk" {
			cfg.Storage = &StorageConfig{Dir: t.TempDir()}
		}
		s := New(cfg)
		node := func(k int) string { return fmt.Sprintf("put-%s-%d", mode, k) }
		var sb strings.Builder
		want := value.NewSetBuilder(nodes * nodes)
		sb.WriteString("rel edge = {")
		for i := 0; i < nodes*nodes; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			a, b := node(i/nodes), node(i%nodes)
			sb.WriteString("(" + strconv.Quote(a) + ", " + strconv.Quote(b) + ")")
			want.Add(value.NewTuple(value.String(a), value.String(b)))
		}
		sb.WriteString("};")

		before := intern.Global().Len()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/dbs/pairs", strings.NewReader(sb.String())))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: PUT: %d %s", mode, rec.Code, rec.Body)
		}
		if grown := intern.Global().Len() - before; grown > nodes {
			t.Errorf("%s: a PUT of %d pairs of %d scalars interned %d values", mode, nodes*nodes, nodes, grown)
		}
		if base, ok := s.reg.base("pairs"); !ok || !value.Equal(base.DB()["edge"], want.Set()) {
			t.Errorf("%s: the PUT's pairs differ from the script's", mode)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
