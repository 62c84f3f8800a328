package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"algrec/internal/algebra"
	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// chainScript builds a database script with an n-edge chain relation.
func chainScript(n int) string {
	var sb strings.Builder
	sb.WriteString("rel edge = {")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(n%03d, n%03d)", i, i+1)
	}
	sb.WriteString("};\n")
	return sb.String()
}

// putDBScript PUTs a database script to /v1/dbs/{name}.
func putDBScript(t *testing.T, ts *httptest.Server, name, script string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/dbs/"+name, strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT db: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var bad errorBody
		_ = json.NewDecoder(resp.Body).Decode(&bad)
		t.Fatalf("PUT db: status %d, error %+v", resp.StatusCode, bad)
	}
}

// postSnapshotOp posts to /v1/dbs/{name}/snapshot or /restore.
func postSnapshotOp(t *testing.T, ts *httptest.Server, name, op, label string) (int, snapshotResponse, errorBody) {
	t.Helper()
	body, _ := json.Marshal(snapshotRequest{Snapshot: label})
	resp, err := http.Post(ts.URL+"/v1/dbs/"+name+"/"+op, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", op, err)
	}
	defer resp.Body.Close()
	var okBody snapshotResponse
	var bad errorBody
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&okBody); err != nil {
			t.Fatalf("decode %s response: %v", op, err)
		}
	} else if err := dec.Decode(&bad); err != nil {
		t.Fatalf("decode %s error: %v", op, err)
	}
	return resp.StatusCode, okBody, bad
}

// newDiskServer builds a disk-backed server over dir, recovering whatever
// databases an earlier server left there.
func newDiskServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Storage: &StorageConfig{Dir: dir}})
	if _, err := s.OpenStorage(); err != nil {
		t.Fatalf("OpenStorage: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// storageWorkloads is the query matrix both backends must answer
// identically: every language.
var storageWorkloads = []queryRequest{
	{DB: "g", Language: "algebra", Query: joinExpr},
	{DB: "g", Language: "ifp-algebra", Query: tcIFP},
	{DB: "g", Language: "algebra=", Query: tcScript},
	{DB: "g", Language: "datalog", Semantics: "stratified", Query: "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."},
}

// compareServers runs the workload matrix against both servers and fails on
// the first response divergence.
func compareServers(t *testing.T, mem, disk *httptest.Server, note string) {
	t.Helper()
	for _, req := range storageWorkloads {
		mStatus, mOK, mBad := postQuery(t, mem, req)
		dStatus, dOK, dBad := postQuery(t, disk, req)
		if mStatus != dStatus {
			t.Fatalf("%s: %s/%s: status mem=%d disk=%d (mem err %+v, disk err %+v)",
				note, req.Language, req.Query, mStatus, dStatus, mBad, dBad)
		}
		if !reflect.DeepEqual(mOK.Result, dOK.Result) {
			t.Fatalf("%s: %s/%s: results diverge\nmem:  %+v\ndisk: %+v",
				note, req.Language, req.Query, mOK.Result, dOK.Result)
		}
	}
}

// TestDiskServerMatchesMemory is the serving-layer differential test: the
// same database, mutations and queries through a memory server and a
// disk-backed one must produce identical responses.
func TestDiskServerMatchesMemory(t *testing.T) {
	memS := New(Config{})
	memTS := httptest.NewServer(memS.Handler())
	t.Cleanup(memTS.Close)
	_, diskTS := newDiskServer(t, t.TempDir())

	script := chainScript(60)
	putDBScript(t, memTS, "g", script)
	putDBScript(t, diskTS, "g", script)
	compareServers(t, memTS, diskTS, "after load")

	// Fact mutations, including a delete of a loaded edge.
	mut := mutateRequest{
		Insert: []factJSON{jsonFact("edge", "x", "n000"), jsonFact("edge", "n060", "x")},
		Delete: []factJSON{jsonFact("edge", "n030", "n031")},
	}
	for _, ts := range []*httptest.Server{memTS, diskTS} {
		status, _, bad := postFacts(t, ts, "g", mut)
		if status != http.StatusOK {
			t.Fatalf("mutate: status %d, error %+v", status, bad)
		}
	}
	compareServers(t, memTS, diskTS, "after mutation")

	// Heterogeneous shapes: a relation of pairs demoted by a scalar insert
	// (storage.FactBatch resets it at arity 1), then queried through both
	// backends.
	het := mutateRequest{Insert: []factJSON{
		jsonFact("p", "a", "b"),
		jsonFact("p", "c", "d"),
	}}
	het2 := mutateRequest{
		Insert: []factJSON{jsonFact("p", "solo"), jsonFact("p", []any{"t", "u", "v"})},
		Delete: []factJSON{jsonFact("p", "c", "d")},
	}
	for _, ts := range []*httptest.Server{memTS, diskTS} {
		for _, m := range []mutateRequest{het, het2} {
			status, _, bad := postFacts(t, ts, "g", m)
			if status != http.StatusOK {
				t.Fatalf("heterogeneous mutate: status %d, error %+v", status, bad)
			}
		}
	}
	mReq := queryRequest{DB: "g", Language: "algebra", Query: "p"}
	_, mOK, _ := postQuery(t, memTS, mReq)
	_, dOK, _ := postQuery(t, diskTS, mReq)
	if mOK.Result.Value == "" || mOK.Result.Value != dOK.Result.Value {
		t.Fatalf("heterogeneous relation diverges: mem %q, disk %q", mOK.Result.Value, dOK.Result.Value)
	}
}

// TestDiskServerRecovery restarts a disk-backed server over the same
// directory and checks the databases (including mutations applied after the
// initial load) come back.
func TestDiskServerRecovery(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Storage: &StorageConfig{Dir: dir}})
	if _, err := s1.OpenStorage(); err != nil {
		t.Fatalf("OpenStorage: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	putDBScript(t, ts1, "g", chainScript(20))
	putDBScript(t, ts1, "other db!", `rel r = {1, 2, 3};`) // unsafe name: hex dir
	status, _, bad := postFacts(t, ts1, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "n020", "n021")}})
	if status != http.StatusOK {
		t.Fatalf("mutate: status %d, error %+v", status, bad)
	}
	_, want, _ := postQuery(t, ts1, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := New(Config{Storage: &StorageConfig{Dir: dir}})
	names, err := s2.OpenStorage()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !reflect.DeepEqual(names, []string{"g", "other db!"}) {
		t.Fatalf("recovered %v, want [g, other db!]", names)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		if err := s2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	_, got, _ := postQuery(t, ts2, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
	if got.Result.Value == "" || got.Result.Value != want.Result.Value {
		t.Fatalf("recovered closure %q, want %q", got.Result.Value, want.Result.Value)
	}
	_, r, _ := postQuery(t, ts2, queryRequest{DB: "other db!", Language: "algebra", Query: "r"})
	if r.Result.Value != "{1, 2, 3}" {
		t.Fatalf("recovered r = %q", r.Result.Value)
	}
}

// TestRecoveryInternsNoTuples: a recovery builds each stored pair from its
// components and interns no tuple, so OpenStorage over a disk store of pairs
// the process has not seen grows the global arena by their scalars at most,
// not by the number of facts.
func TestRecoveryInternsNoTuples(t *testing.T) {
	const nodes = 40
	dir := t.TempDir()
	st, err := storage.OpenDisk(filepath.Join(dir, dbDirName("pairs")), storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node := func(k int) value.Value { return value.String(fmt.Sprintf("recovered-%d", k)) }
	b := value.NewSetBuilder(nodes * nodes)
	for i := 0; i < nodes*nodes; i++ {
		b.Add(value.NewTuple(node(i/nodes), node(i%nodes)))
	}
	edge := b.Set()
	if err := storage.StoreDB(st, intern.Global(), algebra.DB{"edge": edge}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	before := intern.Global().Len()
	s, _ := newDiskServer(t, dir)
	if grown := intern.Global().Len() - before; grown > nodes {
		t.Fatalf("recovering %d pairs of %d scalars interned %d values", edge.Len(), nodes, grown)
	}
	if base, ok := s.reg.base("pairs"); !ok || !value.Equal(base.DB()["edge"], edge) {
		t.Fatalf("recovered pairs differ from the stored ones")
	}
}

// TestSnapshotRestore drives the snapshot/restore endpoints on both
// backends: restore returns the database to the labeled contents, bumps the
// version, and closes live subscriptions with reason db-restored.
func TestSnapshotRestore(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var s *Server
			var ts *httptest.Server
			if mode == "disk" {
				s, ts = newDiskServer(t, t.TempDir())
				putDBScript(t, ts, "g", `rel edge = {(a, b), (b, c), (c, d)};`)
			} else {
				s, ts = newTestServer(t, Config{})
			}

			queryTC := func() string {
				t.Helper()
				status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "ifp-algebra", Query: tcIFP})
				if status != http.StatusOK {
					t.Fatalf("query: status %d, error %+v", status, bad)
				}
				return ok.Result.Value
			}
			before := queryTC()

			status, snap, bad := postSnapshotOp(t, ts, "g", "snapshot", "before")
			if status != http.StatusOK {
				t.Fatalf("snapshot: status %d, error %+v", status, bad)
			}

			// A live subscription survives the snapshot but not the restore.
			st := openSub(t, ts, dlogSub("g", tcProgram))
			if e := st.next(t); e.Event != "snapshot" {
				t.Fatalf("first event = %q, want snapshot", e.Event)
			}

			postFacts(t, ts, "g", mutateRequest{Insert: []factJSON{jsonFact("edge", "d", "e")}})
			if after := queryTC(); after == before {
				t.Fatal("mutation did not change the closure")
			}
			if e := st.next(t); e.Event != "delta" {
				t.Fatalf("event after mutation = %q, want delta", e.Event)
			}

			status, rest, bad := postSnapshotOp(t, ts, "g", "restore", "before")
			if status != http.StatusOK {
				t.Fatalf("restore: status %d, error %+v", status, bad)
			}
			if rest.Version <= snap.Version {
				t.Fatalf("restore version %d did not advance past %d", rest.Version, snap.Version)
			}
			if got := queryTC(); got != before {
				t.Fatalf("restored closure %q, want %q", got, before)
			}
			if e := st.next(t); e.Event != "bye" || e.Reason != reasonRestored {
				t.Fatalf("restore event = %+v, want bye/db-restored", e)
			}

			// Restore is repeatable; the listing shows the label.
			if status, _, _ := postSnapshotOp(t, ts, "g", "restore", "before"); status != http.StatusOK {
				t.Fatalf("second restore: status %d", status)
			}
			infos := s.reg.list()
			if len(infos) != 1 || !reflect.DeepEqual(infos[0].Snapshots, []string{"before"}) {
				t.Fatalf("list = %+v", infos)
			}

			// Structured errors.
			if status, _, bad := postSnapshotOp(t, ts, "g", "restore", "nope"); status != http.StatusNotFound || bad.Error.Code != codeUnknownSnap {
				t.Fatalf("unknown label: %d %+v", status, bad)
			}
			if status, _, bad := postSnapshotOp(t, ts, "nope", "snapshot", "x"); status != http.StatusNotFound || bad.Error.Code != codeUnknownDB {
				t.Fatalf("unknown db: %d %+v", status, bad)
			}
			if status, _, bad := postSnapshotOp(t, ts, "g", "snapshot", ""); status != http.StatusBadRequest || bad.Error.Code != codeBadRequest {
				t.Fatalf("missing label: %d %+v", status, bad)
			}
		})
	}
}

// TestDiskServerReadsOneVersion: every read sees one version of the whole
// database. r starts as {0..n-1} and s empty; batch i moves i from r to s in
// one mutation, so r ∪ s is always {0..n-1} and r ⋈ s always empty — unless a
// request joins one relation from before a batch with the other from after
// it. Readers check both while the writer runs (under -race), on both
// backends; the disk database is recovered from an earlier server's store, so
// nothing of it has been read when the race starts.
func TestDiskServerReadsOneVersion(t *testing.T) {
	const n, readers = 200, 4
	r := value.NewSetBuilder(n)
	for i := 0; i < n; i++ {
		r.Add(value.Int(int64(i)))
	}
	db := algebra.DB{"r": r.Set(), "s": value.NewSet()}
	checks := []struct{ query, want string }{
		{"union(r, s)", db["r"].String()},
		{`select(product(r, s), \p -> p.1 = p.2)`, "{}"},
	}
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			var ts *httptest.Server
			if mode == "disk" {
				dir := t.TempDir()
				first := New(Config{Storage: &StorageConfig{Dir: dir}})
				if err := first.RegisterDB("g", db); err != nil {
					t.Fatal(err)
				}
				if err := first.Close(); err != nil {
					t.Fatal(err)
				}
				_, ts = newDiskServer(t, dir)
			} else {
				s := New(Config{})
				if err := s.RegisterDB("g", db); err != nil {
					t.Fatal(err)
				}
				ts = httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
			}

			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < n; i++ {
					m := mutateRequest{Insert: []factJSON{jsonFact("s", i)}, Delete: []factJSON{jsonFact("r", i)}}
					if status, _, bad := postFacts(t, ts, "g", m); status != http.StatusOK {
						t.Errorf("batch %d: %d %+v", i, status, bad)
						return
					}
				}
			}()
			for k := 0; k < readers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := k; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						c := checks[i%len(checks)]
						status, ok, bad := postQuery(t, ts, queryRequest{DB: "g", Language: "algebra", Query: c.query})
						if status != http.StatusOK {
							t.Errorf("%s: %d %+v", c.query, status, bad)
							return
						}
						if ok.Result.Value != c.want {
							t.Errorf("%s = %s: a request read two versions", c.query, ok.Result.Value)
							return
						}
					}
				}(k)
			}
			wg.Wait()
		})
	}
}

// scheduleDB is the database the random mutation schedules start from:
// pairs in e, scalars in a, and m mixing a scalar, a pair and a triple.
func scheduleDB() algebra.DB {
	e := value.NewSetBuilder(40)
	for i := 0; i < 40; i++ {
		e.Add(schedulePair(i%13, i))
	}
	return algebra.DB{
		"e": e.Set(),
		"a": value.NewSet(value.Int(1), value.Int(2), value.Int(3)),
		"m": value.NewSet(value.Int(7), schedulePair(1, 2), value.NewTuple(value.Int(1), value.Int(2), value.Int(3))),
	}
}

func schedulePair(a, b int) value.Value {
	return value.Pair(value.Int(int64(a)), value.Int(int64(b)))
}

func sameDB(a, b algebra.DB) bool {
	if len(a) != len(b) {
		return false
	}
	for n, s := range a {
		if t, ok := b[n]; !ok || !value.Equal(s, t) {
			return false
		}
	}
	return true
}

// runDiskSchedule registers scheduleDB as "t" on the disk-backed s, posts a
// random mutation schedule to it through ts — same-shape batches,
// shape-changing ones that storage.FactBatch writes as a Reset, scalars
// among pairs, a fresh predicate — and checks after every batch that the
// resident version equals what storage.LoadDB reads back from the entry's
// store: the invariant that lets every read skip the store.
func runDiskSchedule(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	if err := s.RegisterDB("t", scheduleDB()); err != nil {
		t.Fatal(err)
	}
	entry, _ := s.reg.entry("t")
	matches := func(note string) {
		t.Helper()
		stored, err := storage.LoadDB(entry.store.st, entry.store.in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if resident := entry.cur.Load().base.DB(); !sameDB(resident, stored) {
			t.Fatalf("%s: the resident version diverges from the store\nresident: %v\nstore:    %v", note, resident, stored)
		}
	}
	matches("after the load")

	rng := rand.New(rand.NewSource(18))
	randFact := func() factJSON {
		switch rng.Intn(10) {
		case 0:
			return jsonFact("e", rng.Intn(13), rng.Intn(40), rng.Intn(3)) // wrong width for e
		case 1:
			return jsonFact("e", rng.Intn(40)) // a scalar among the pairs
		case 2:
			return jsonFact("a", rng.Intn(10))
		case 3:
			return jsonFact("m", rng.Intn(10), rng.Intn(3))
		case 4:
			return jsonFact("fresh", rng.Intn(5), rng.Intn(5))
		default:
			return jsonFact("e", rng.Intn(13), rng.Intn(40))
		}
	}
	for batch := 0; batch < 150; batch++ {
		var m mutateRequest
		for i := rng.Intn(4); i >= 0; i-- {
			m.Insert = append(m.Insert, randFact())
		}
		for i := rng.Intn(4); i > 0; i-- {
			m.Delete = append(m.Delete, randFact())
		}
		if status, _, bad := postFacts(t, ts, "t", m); status != http.StatusOK {
			t.Fatalf("batch %d: %d %+v", batch, status, bad)
		}
		matches(fmt.Sprintf("batch %d", batch))
	}
}

// TestDiskStateMatchesStore runs the random schedule of runDiskSchedule and
// then restarts the server: the recovered version equals the last resident
// one.
func TestDiskStateMatchesStore(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Storage: &StorageConfig{Dir: dir}})
	ts := httptest.NewServer(s.Handler())
	runDiskSchedule(t, s, ts)

	entry, _ := s.reg.entry("t")
	last := entry.cur.Load().base.DB()
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, _ := newDiskServer(t, dir)
	if got, ok := again.reg.entry("t"); !ok || !sameDB(got.cur.Load().base.DB(), last) {
		t.Fatal("the recovered version differs from the last resident one")
	}
}

// TestMaterializationCacheSurvivesWrites: a disk database's materialization
// is its resident version, published afresh by every write. The random
// schedule of runDiskSchedule runs while a reader keeps querying the
// database (under -race); every query must succeed, and every batch must
// leave the resident version equal to the store.
func TestMaterializationCacheSurvivesWrites(t *testing.T) {
	t.Run("random schedule beside a reader", func(t *testing.T) {
		s, ts := newDiskServer(t, t.TempDir())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []string{"e", "union(a, m)"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if e, ok := s.reg.entry("t"); !ok || e.cur.Load().version == 0 {
					continue // not loaded yet
				}
				q := queries[i%len(queries)]
				if status, _, bad := postQuery(t, ts, queryRequest{DB: "t", Language: "algebra", Query: q}); status != http.StatusOK {
					t.Errorf("reader: %s: %d %+v", q, status, bad)
					return
				}
			}
		}()
		runDiskSchedule(t, s, ts)
		close(stop)
		wg.Wait()
	})
}
