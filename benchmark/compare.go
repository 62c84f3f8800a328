package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareRows judges every (end-to-end metric, workload) pair present in
// both sets, one row each, against the metric's bound: BENCHMARK.json's for
// the metrics it lists, the ungated table's for the rest.
func compareRows(b *bench, old, new *results) (rows []string, regressed int) {
	for _, wl := range b.workloads {
		for _, m := range b.endToEnd {
			ra, _ := series(old.Runs, wl.name, false, m.Name)
			rc, _ := series(new.Runs, wl.name, false, m.Name)
			if len(ra) == 0 || len(rc) == 0 {
				continue
			}
			a, c := values(ra), values(rc)
			v, note := judge(a, c, m.Bound, m.higher())
			if v == verdictRegressed {
				regressed++
			}
			rows = append(rows, fmt.Sprintf("%-11s %-13s %-26s %s %s (n=%d,%d)", v, wl.name, m.Name, note, m.Unit, len(a), len(c)))
		}
	}
	return rows, regressed
}

// compareFiles is -compare: exit code 1 on any regression.
func compareFiles(oldPath, newPath string) int {
	var (
		b        *bench
		old, new *results
	)
	_, root, err := findDirs()
	if err == nil {
		b, err = loadBench(root)
	}
	if err == nil {
		old, err = readResults(oldPath)
	}
	if err == nil {
		new, err = readResults(newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rows, regressed := compareRows(b, old, new)
	for _, r := range rows {
		fmt.Println(r)
	}
	if n := countMismatches(b, old, new); n > 0 {
		fmt.Printf("%d count metric(s) of the traced run differ between the two sets (listed above as count-differs)\n", n)
	}
	if regressed > 0 {
		fmt.Printf("%d regressed\n", regressed)
		return 1
	}
	return 0
}

// countMismatches prints the per-layer counts that differ between the sets'
// first traced runs on the same seed; counts are meant to repeat exactly.
func countMismatches(b *bench, old, new *results) int {
	n := 0
	for _, wl := range b.workloads {
		for _, m := range b.layers {
			if !m.exact() {
				continue
			}
			a := firstTraced(old, wl.name, m.Name)
			c := firstTraced(new, wl.name, m.Name)
			if a == nil || c == nil || a.Seed != c.Seed {
				continue
			}
			if x, y := a.Metrics[m.Name].Value, c.Metrics[m.Name].Value; x != y {
				fmt.Printf("%-11s %-13s %-26s %v -> %v\n", "count-differs", wl.name, m.Name, x, y)
				n++
			}
		}
	}
	return n
}

func firstTraced(r *results, workload, metric string) *runRecord {
	for _, rec := range r.Runs {
		if rec.Workload == workload && rec.Traced {
			if _, ok := rec.Metrics[metric]; ok {
				return rec
			}
		}
	}
	return nil
}
