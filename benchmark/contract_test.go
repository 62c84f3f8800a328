package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"algrec/benchmark/gen"
)

// TestBenchmarkJSONWithinContract holds the root BENCHMARK.json to the limits
// its driver refuses a file outside of, before a single run. What the file
// says about workloads and metrics is checked against the program where the
// program reads it: loadBench.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	_, root, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range file.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range file.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, m := range file.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v", m)
		}
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, file of %d bytes", file.RunSeconds, len(raw))
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths %q", file.Paths)
	}
	if want := []string{"go", "run", "-C", "benchmark", "algrec/benchmark"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command %q, want %q", file.Command, want)
	}
}

// TestLoadBenchRefuses: a file that names a workload or a metric the program
// does not have, or leaves one out, is an error before anything runs.
func TestLoadBenchRefuses(t *testing.T) {
	_, root, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []struct{ old, new, wantErr string }{
		{`"name": "alg-read"`, `"name": "alg-write"`, "does not implement"},
		{`"name": "peak_rss_mb"`, `"name": "peak_rss_gb"`, "every workload reports"},
		{`"name": "core.skips"`, `"name": "core.hops"`, "does not measure"},
		{`{"name": "core.skips", "unit": "count", "better": "higher"},`, ``, "per-layer metrics"},
	} {
		if !strings.Contains(string(raw), edit.old) {
			t.Fatalf("BENCHMARK.json has no %s to edit", edit.old)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(strings.Replace(string(raw), edit.old, edit.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBench(dir); err == nil || !strings.Contains(err.Error(), edit.wantErr) {
			t.Errorf("%s -> %s: error %v, want one that says %q", edit.old, edit.new, err, edit.wantErr)
		}
	}
}

// TestSpawnedChild runs one workload at toy size against a built and spawned
// cmd/algrecd, the target every reported end-to-end number comes from: every
// metric BENCHMARK.json gates is measured and not 0, and peak_rss_mb is the
// child's own memory, not this process's, which first grows well past any
// toy-sized daemon.
func TestSpawnedChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/algrecd")
	}
	defer runCleanups()
	benchDir, _, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(benchDir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ballast := make([]byte, 512<<20)
	for i := range ballast {
		ballast[i] = 1 // touched, so resident
	}
	own, err := procPeakRSS(os.Getpid())
	if err != nil || own < int64(len(ballast)) {
		t.Fatalf("this process's VmHWM = %d (%v), want at least the %d of ballast", own, err, len(ballast))
	}

	b := testBench(t)
	w, _ := b.workload("bulk-cycle") // restarts its child, so CPU and memory span incarnations
	cfg := runConfig{seed: 1, sizes: gen.Toy, launch: spawnLauncher(bin), tmp: t.TempDir(), setups: 1, window: 300 * time.Millisecond}
	rec, err := runEndToEnd(b, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Errorf("%d of %d failed: %v", rec.Failed, rec.Attempted, rec.Errors)
	}
	for _, m := range b.gated {
		if v, ok := rec.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("%s = %+v (measured %v), want a value above 0 in %s", m.Name, v, ok, m.Unit)
		}
	}
	if rss := rec.Metrics["peak_rss_mb"].Value; rss >= float64(len(ballast)>>20)/2 {
		t.Errorf("peak_rss_mb = %.1f with %d MB resident here: it tracks the generator, not the child", rss, len(ballast)>>20)
	}
	runtime.KeepAlive(ballast)
}
