// Command bench runs the experiment suite (DESIGN.md's E1–E11)
// and prints one table per experiment, one experiment at a time. With
// -markdown the output is the GitHub-flavored markdown recorded in
// EXPERIMENTS.md. With -json the per-experiment results, run costs and
// observability counters are written as an expt.Record, so the performance
// trajectory is comparable across commits and EXPERIMENTS.md can be
// generated from a committed record.
//
// Usage:
//
//	bench [-scale N] [-markdown] [-only E9[,E10,...]] [-json path]
//	      [-trace path] [-pprof dir]
//	bench -render record.json [-update EXPERIMENTS.md]
//
// -json accepts either a file name or an existing directory; a directory
// gets a BENCH_<stamp>.json file created inside it. The record attributes
// observability counters, CPU time and allocations to each experiment.
//
// -trace streams every observability event (fixpoints, groundings,
// translations, stable searches, experiments) as JSON lines while the
// run executes; -pprof writes cpu.pprof and heap.pprof profiles of the run
// into a directory.
//
// -render skips running experiments entirely: it renders the generated
// EXPERIMENTS.md section from a previously written record, to stdout or —
// with -update — spliced between the document's generated-section markers.
// `go generate ./internal/expt` uses this mode to keep EXPERIMENTS.md's
// tables in sync with the committed record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"algrec/internal/expt"
	"algrec/internal/obsv"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor")
	markdown := flag.Bool("markdown", false, "emit markdown tables for EXPERIMENTS.md")
	only := flag.String("only", "", "run selected experiments by comma-separated ids (e.g. E9 or E6,E10)")
	jsonPath := flag.String("json", "", "write an expt.Record report to this file (or BENCH_<stamp>.json inside this directory)")
	tracePath := flag.String("trace", "", "stream observability events as JSON lines to this file")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof for the run into this directory")
	render := flag.String("render", "", "render EXPERIMENTS.md tables from this record file instead of running experiments")
	update := flag.String("update", "", "with -render: splice the rendered section into this markdown file in place")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "Usage: bench [-scale N] [-markdown] [-only ID[,ID...]] [-json path] [-trace path] [-pprof dir]")
		fmt.Fprintln(os.Stderr, "       bench -render record.json [-update EXPERIMENTS.md]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *render != "" {
		if err := renderRecord(*render, *update); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *update != "" {
		fmt.Fprintln(os.Stderr, "bench: -update requires -render")
		os.Exit(2)
	}

	suites := expt.DefaultSuites(*scale)
	if *only != "" {
		wanted := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				wanted[id] = true
			}
		}
		var filtered []expt.Suite
		for _, s := range suites {
			if wanted[s.ID] {
				filtered = append(filtered, s)
				delete(wanted, s.ID)
			}
		}
		if len(wanted) > 0 {
			for id := range wanted {
				fmt.Fprintf(os.Stderr, "bench: no experiment %q\n", id)
			}
			os.Exit(2)
		}
		suites = filtered
	}

	// Observability: a Stats collector always runs (it feeds the -json
	// record), optionally fanned out to a JSONL trace sink.
	stats := obsv.NewStats()
	collector := obsv.Collector(stats)
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: opening trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		collector = obsv.Multi(stats, obsv.NewJSONL(f))
	}
	obsv.SetDefault(collector)

	if *pprofDir != "" {
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: opening cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: starting cpu profile: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	rec := &expt.Record{
		Stamp:      start.Format(time.RFC3339),
		Scale:      *scale,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	results, runErr := runSuites(suites, stats, rec)

	if *pprofDir != "" {
		pprof.StopCPUProfile()
		if f, err := os.Create(filepath.Join(*pprofDir, "heap.pprof")); err == nil {
			runtime.GC()
			_ = pprof.WriteHeapProfile(f)
			f.Close()
		} else {
			fmt.Fprintf(os.Stderr, "bench: opening heap profile: %v\n", err)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", runErr)
		os.Exit(1)
	}

	failed := false
	for _, res := range results {
		if *markdown {
			fmt.Print(res.Table.Markdown())
		} else {
			fmt.Println(res.Table)
		}
		if !res.Table.OK {
			failed = true
		}
	}

	if *jsonPath != "" {
		if err := writeRecord(rec, *jsonPath, start); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runSuites executes the suites one at a time, so the Stats snapshot delta
// around each attributes its counters, and fills rec with results, run costs
// and observability counters.
func runSuites(suites []expt.Suite, stats *obsv.Stats, rec *expt.Record) ([]expt.SuiteResult, error) {
	base := stats.Snapshot()
	var results []expt.SuiteResult
	start := time.Now()
	prev := base
	for _, s := range suites {
		res, err := expt.RunInstrumented(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
		cur := stats.Snapshot()
		results = append(results, res)
		rec.Suites = append(rec.Suites, recordSuite(res, cur.Sub(prev)))
		rec.CPUNS += res.CPU.Nanoseconds()
		prev = cur
	}
	rec.WallNS = time.Since(start).Nanoseconds()
	rec.Counters = stats.Snapshot().Sub(base)
	return results, nil
}

// recordSuite converts one suite's result and its counter delta into the
// record's wire form.
func recordSuite(res expt.SuiteResult, counters obsv.Snapshot) expt.RecordSuite {
	return expt.RecordSuite{
		ID:         res.Table.ID,
		Title:      res.Table.Title,
		OK:         res.Table.OK,
		WallNS:     res.Wall.Nanoseconds(),
		CPUNS:      res.CPU.Nanoseconds(),
		AllocBytes: res.AllocBytes,
		Mallocs:    res.Mallocs,
		Shards:     1,
		Counters:   counters,
		Header:     res.Table.Header,
		Rows:       res.Table.Rows,
		Notes:      res.Table.Notes,
	}
}

// writeRecord serializes the record to path (or BENCH_<stamp>.json inside
// path when it is a directory).
func writeRecord(rec *expt.Record, path string, start time.Time) error {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "BENCH_"+start.Format("20060102T150405")+".json")
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}

// renderRecord implements -render: regenerate the EXPERIMENTS.md tables from
// a committed record, printing to stdout or splicing into updatePath.
func renderRecord(recordPath, updatePath string) error {
	rec, err := expt.LoadRecord(recordPath)
	if err != nil {
		return err
	}
	generated := expt.RenderGenerated(rec)
	if updatePath == "" {
		fmt.Print(generated)
		return nil
	}
	doc, err := os.ReadFile(updatePath)
	if err != nil {
		return err
	}
	spliced, err := expt.SpliceGenerated(string(doc), generated)
	if err != nil {
		return err
	}
	if spliced == string(doc) {
		return nil
	}
	return os.WriteFile(updatePath, []byte(spliced), 0o644)
}
