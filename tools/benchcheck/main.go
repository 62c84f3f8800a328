// Command benchcheck compares a fresh cmd/bench -json record against the
// committed baseline (BENCH_baseline.json) and reports per-experiment
// regressions: a suite that stopped passing, disappeared from the run, or
// slowed down past the tolerance factor. Wall-clock on shared CI runners is
// noisy, so the default tolerance is generous (3x) and the CI job that runs
// this check is advisory (continue-on-error) — the annotations surface the
// trend without blocking a merge on a noisy neighbor.
//
// Speedup gates are the exception: -gates (default
// "P10:ifpTCChain:2.0,P11:ivmInsertChain:5.0")
// names rows of A/B ablation tables whose measured speedup column must stay
// above a floor in the CURRENT run. A speedup is a within-run ratio — both
// sides share the runner, so machine noise largely cancels — which is what
// makes these rows gateable where absolute walls are only advisory. A gated
// row falling under its floor (or disappearing) is a regression. P12's
// storageMemServe(96) >= 0.95x is not among the defaults: it is a best-of-N
// latency ratio of two near-equal sides and fell under its floor two runs in
// three on unchanged code; the advisory bench-check names it explicitly.
//
// Usage:
//
//	benchcheck [-baseline BENCH_baseline.json] [-tol 3.0]
//	           [-gates suite:rowprefix:minspeedup,...] [-gatesonly] current.json
//
// -gatesonly skips the baseline comparison entirely and enforces just the
// speedup floors, so a record holding only the gated suites (cmd/bench
// -only P10,P11) is enough — that is the blocking bench-gates CI job.
//
// Under GitHub Actions (GITHUB_ACTIONS=true) regressions are emitted as
// ::warning workflow annotations; elsewhere as plain lines. Exit status: 0
// when every suite is within tolerance, 1 on any regression, 2 on usage or
// read errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"algrec/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, os.Getenv("GITHUB_ACTIONS") == "true"))
}

func run(args []string, stdout, stderr io.Writer, gh bool) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline record")
	tol := fs.Float64("tol", 3.0, "wall-clock slowdown factor that counts as a regression")
	gates := fs.String("gates", "P10:ifpTCChain:2.0,P11:ivmInsertChain:5.0",
		"comma-separated suite:rowprefix:minspeedup floors the current run's speedup rows must meet (empty disables)")
	gatesOnly := fs.Bool("gatesonly", false,
		"check only the -gates floors, skipping the baseline wall comparison (the current record may then hold just the gated suites)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchcheck [-baseline path] [-tol factor] [-gates spec] [-gatesonly] current.json")
		return 2
	}
	cur, err := expt.LoadRecord(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	warn := func(format, plain string, a ...any) {
		if gh {
			fmt.Fprintf(stdout, "::warning title=bench regression::"+format+"\n", a...)
		} else {
			fmt.Fprintf(stdout, plain+"\n", a...)
		}
	}
	curByID := map[string]expt.RecordSuite{}
	for _, s := range cur.Suites {
		curByID[s.ID] = s
	}
	if *gatesOnly {
		n, err := checkGates(*gates, curByID, warn)
		if err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 2
		}
		if n > 0 {
			fmt.Fprintf(stdout, "benchcheck: %d gate violation(s)\n", n)
			return 1
		}
		fmt.Fprintf(stdout, "benchcheck: all speedup gates hold (%s)\n", *gates)
		return 0
	}
	base, err := expt.LoadRecord(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	if base.Scale != cur.Scale {
		fmt.Fprintf(stderr, "benchcheck: scale mismatch: baseline ran -scale %d, current -scale %d\n", base.Scale, cur.Scale)
		return 2
	}
	regressions := 0
	for _, b := range base.Suites {
		c, ok := curByID[b.ID]
		switch {
		case !ok:
			regressions++
			warn("%s (%s) missing from the current run",
				"REGRESSION %s (%s): missing from the current run", b.ID, b.Title)
		case b.OK && !c.OK:
			regressions++
			warn("%s (%s) stopped passing",
				"REGRESSION %s (%s): stopped passing", b.ID, b.Title)
		case b.WallNS > 0 && float64(c.WallNS) > *tol*float64(b.WallNS):
			regressions++
			ratio := float64(c.WallNS) / float64(b.WallNS)
			warn("%s (%s) wall %.1fx baseline (%v -> %v)",
				"REGRESSION %s (%s): wall %.1fx baseline (%v -> %v)",
				b.ID, b.Title, ratio,
				time.Duration(b.WallNS).Round(time.Millisecond),
				time.Duration(c.WallNS).Round(time.Millisecond))
		}
	}
	n, err := checkGates(*gates, curByID, warn)
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	regressions += n
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchcheck: %d regression(s) against %s (tolerance %.1fx)\n", regressions, *baseline, *tol)
		return 1
	}
	fmt.Fprintf(stdout, "benchcheck: %d suites within %.1fx of %s\n", len(base.Suites), *tol, *baseline)
	return 0
}

// checkGates enforces the -gates speedup floors against the current record
// and returns the number of violated gates. Each gate is suite:rowprefix:min;
// every row of that suite whose first cell starts with the prefix must have a
// speedup column at or above min, and at least one such row must exist.
func checkGates(spec string, curByID map[string]expt.RecordSuite, warn func(format, plain string, a ...any)) (int, error) {
	if spec == "" {
		return 0, nil
	}
	regressions := 0
	for _, gate := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(gate), ":")
		if len(parts) != 3 {
			return 0, fmt.Errorf("bad gate %q: want suite:rowprefix:minspeedup", gate)
		}
		min, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return 0, fmt.Errorf("bad gate %q: %v", gate, err)
		}
		s, ok := curByID[parts[0]]
		if !ok {
			regressions++
			warn("gated suite %s missing from the current run",
				"REGRESSION gated suite %s: missing from the current run", parts[0])
			continue
		}
		col := -1
		for i, h := range s.Header {
			if h == "speedup" {
				col = i
			}
		}
		if col < 0 {
			return 0, fmt.Errorf("gate %q: suite %s has no speedup column", gate, parts[0])
		}
		matched := false
		for _, row := range s.Rows {
			if len(row) <= col || !strings.HasPrefix(row[0], parts[1]) {
				continue
			}
			matched = true
			got, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
			if err != nil {
				return 0, fmt.Errorf("gate %q: row %s: unparseable speedup %q", gate, row[0], row[col])
			}
			if got < min {
				regressions++
				warn("%s row %s speedup %.2fx under the %.2fx floor",
					"REGRESSION %s row %s: speedup %.2fx under the %.2fx floor",
					parts[0], row[0], got, min)
			}
		}
		if !matched {
			regressions++
			warn("gate %s matched no %s rows in suite %s",
				"REGRESSION gate %s: matched no %s rows in suite %s", gate, parts[1], parts[0])
		}
	}
	return regressions, nil
}
