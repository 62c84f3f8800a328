package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"algrec/benchmark/gen"
	"algrec/benchmark/ref"
)

// testBench loads the repository's BENCHMARK.json.
func testBench(t *testing.T) *bench {
	t.Helper()
	_, root, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBench(root)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, sizes: gen.Toy, launch: inprocLauncher, tmp: t.TempDir(), setups: 2, window: 150 * time.Millisecond}
}

// TestSmokeEndToEnd runs every workload at toy size against the in-process
// server: the same sessions, checks and metric arithmetic as the real run.
func TestSmokeEndToEnd(t *testing.T) {
	defer runCleanups()
	b := testBench(t)
	for _, w := range b.workloads {
		rec, err := runEndToEnd(b, w, smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
		}
		for _, name := range []string{"setup_s", "throughput_ops_s", "latency_class_p50_ms", "failed_share"} {
			if v, ok := rec.Metrics[name]; !ok || (v.Value <= 0) != (name == "failed_share") {
				t.Errorf("%s: %s = %+v, present %v", w.name, name, v, ok)
			}
		}
		// Times are reported at the reference machine speed: as measured
		// times the yardstick's reading, and rates divided by it.
		lat, thr := rec.Metrics["latency_class_p50_ms"], rec.Metrics["throughput_ops_s"]
		if rec.Speed <= 0 || !near(lat.Value, lat.Raw*rec.Speed) || !near(thr.Value, thr.Raw/rec.Speed) {
			t.Errorf("%s: machine speed %v, latency %+v, throughput %+v", w.name, rec.Speed, lat, thr)
		}
		if got := rec.Metrics["setup_s"].Samples; got != 2 {
			t.Errorf("%s: setup_s is the median of %d set-ups, want 2", w.name, got)
		}
		var own []string
		switch w.name {
		case "write-stream":
			own = []string{"delta_lag_p50_ms", "read_after_write_p50_ms"}
		case "bulk-cycle":
			own = []string{"load_facts_s", "recovery_ms", "cold_query_ms", "disk_bytes_per_fact"}
		}
		for _, name := range own {
			if v := rec.Metrics[name]; v.Value <= 0 {
				t.Errorf("%s: %s = %+v", w.name, name, v)
			}
		}
	}
}

// TestSmokeTraced runs every traced sample at toy size: every per-layer
// metric is reported, the layer a workload was chosen for is entered, the
// counts repeat exactly, and the trace file holds linked spans.
func TestSmokeTraced(t *testing.T) {
	defer runCleanups()
	entered := map[string][]string{
		"dlog-read":    {"server.handler_ms", "query.execute_ms", "ground.ground_ms", "ground.rules", "semantics.eval_ms", "datalog.parse_us"},
		"alg-read":     {"algebra.eval_ms", "algebra.ifp_rounds", "algebra.stream_scanned", "core.evalvalid_ms", "core.gamma_rounds"},
		"adhoc-point":  {"server.compiles", "query.compile_us", "algebra.parse_us", "algebra.rows_per_result"},
		"write-stream": {"server.mutate_handler_ms", "ivm.new_ms", "ivm.apply_churn_ms", "ivm.delta_facts", "ivm.views_incremental", "storage.apply_batch_us", "storage.materialize_ms", "server.sub_fanout"},
		"bulk-cycle":   {"server.loadscript_ms", "storage.storedb_ms", "storage.snapshot_ms", "storage.open_ms", "storage.loaddb_ms", "storage.bytes_on_disk", "storage.write_amp", "intern.db_ms"},
	}
	b := testBench(t)
	for _, w := range b.workloads {
		out := t.TempDir()
		first, err := runTraced(b, w, smokeConfig(t), out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !first.Correct || first.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, first.Correct, first.Failed, first.Attempted, first.Errors)
		}
		for _, m := range b.layers {
			if _, ok := first.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}
		for _, name := range entered[w.name] {
			if first.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want the layer entered", w.name, name, first.Metrics[name].Value)
			}
		}
		if w.name == "dlog-read" && (first.Metrics["algebra.eval_ms"].Value != 0 || first.Metrics["storage.storedb_ms"].Value != 0) {
			t.Errorf("dlog-read entered algebra or storage: %+v", first.Metrics)
		}
		var share float64
		for _, s := range first.Shares {
			share += s
		}
		if share < 0.99 {
			t.Errorf("%s: layer shares sum to %.3f of the handler time: %v", w.name, share, first.Shares)
		}

		again, err := runTraced(b, w, smokeConfig(t), t.TempDir())
		if err != nil {
			t.Fatalf("%s again: %v", w.name, err)
		}
		for _, m := range b.layers {
			if m.exact() && first.Metrics[m.Name].Value != again.Metrics[m.Name].Value {
				t.Errorf("%s: count %s does not repeat: %v then %v", w.name, m.Name, first.Metrics[m.Name].Value, again.Metrics[m.Name].Value)
			}
		}

		checkTrace(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
	}
}

// checkTrace reads a trace file back: every span ends after it starts and
// names a parent recorded before it, with the same request id.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.End < s.Start || s.Name == "" || s.ID != len(spans)+1 {
			t.Errorf("%s: bad span %+v", path, s)
		}
		if p, ok := spans[s.Parent]; s.Parent != 0 && (!ok || p.Req != s.Req) {
			t.Errorf("%s: span %+v has no earlier parent of its request", path, s)
		}
		spans[s.ID] = s
	}
	if len(spans) < tracedCycles {
		t.Errorf("%s: only %d spans", path, len(spans))
	}
}

// TestWrongAnswerFails shows the check has teeth: a reference that disagrees
// with the service turns every op of the class into a failed one.
func TestWrongAnswerFails(t *testing.T) {
	defer runCleanups()
	in := dlogReadInputs(1, gen.Toy)
	bad := ref.Answer{}
	bad.Add("r", "r(424242)")
	in.warm[0].c.want = func(int) ref.Answer { return bad }
	in.warm = nil
	tgt, err := inprocLauncher("")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Stop()
	s, err := in.open(tgt, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	log := s.measure(50 * time.Millisecond)
	if log.failed == 0 || log.failed == log.attempted {
		t.Errorf("%d of %d failed; want the one broken class to fail and the others to pass", log.failed, log.attempted)
	}
	if len(log.errs) == 0 || !strings.Contains(log.errs[0], "wrong answer") {
		t.Errorf("errors %q", log.errs)
	}
}

func TestSplitSetAndAnswer(t *testing.T) {
	elems, err := splitSet("{(1, 2), ((3, 4), (5, 6)), 7, {8, 9}}")
	if err != nil || len(elems) != 4 || elems[1] != "((3, 4), (5, 6))" || elems[3] != "{8, 9}" {
		t.Errorf("splitSet: %q, %v", elems, err)
	}
	if elems, err := splitSet("{}"); err != nil || len(elems) != 0 {
		t.Errorf("empty set: %q, %v", elems, err)
	}
	if _, err := splitSet("(1, 2)"); err == nil {
		t.Error("a tuple passed for a set literal")
	}
	body := `{"ok":true,"result":{"defs":[{"name":"win","set":"{3}","undef":"{0, 1}"}],"queries":[{"query":"query at 1:1","set":"{3}","undef":"{0, 1}"}]}}`
	got, err := queryAnswer([]byte(body))
	want := ref.NewGraph(5, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {3, 4}}).EqWin()
	if err != nil || !got.Equal(want) {
		t.Errorf("algebra= answer %v (%v), want %v", got, err, want)
	}
	body = `{"ok":true,"result":{"idb":["win"],"preds":[{"pred":"e","true":["e(0, 1)"]},{"pred":"win","true":["win(0)"],"undef":["win(7)"]}]}}`
	got, err = queryAnswer([]byte(body))
	if err != nil || got["e"].N != 1 || got["win"].N != 1 || got["win?"].N != 1 || len(got) != 3 {
		t.Errorf("datalog answer %v (%v)", got, err)
	}
}
