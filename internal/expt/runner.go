package expt

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"algrec/internal/obsv"
)

// Suite describes one experiment. Run produces the whole table serially;
// Shards, when present, split the experiment into independently runnable
// pieces (one per workload size) whose tables concatenate, in shard order,
// to the serial table — the unit of parallelism for RunSuites.
type Suite struct {
	ID     string
	Run    func() (*Table, error)
	Shards []func() (*Table, error)
}

// whole builds a Suite that the parallel runner treats as a single task —
// for experiments that emit fixed rows outside their per-size loop, which
// would duplicate under sharding.
func whole[S any](id string, sizes []S, run func([]S) (*Table, error)) Suite {
	return Suite{ID: id, Run: func() (*Table, error) { return run(sizes) }}
}

// sharded builds a Suite whose shards run one workload size each.
func sharded[S any](id string, sizes []S, run func([]S) (*Table, error)) Suite {
	shards := make([]func() (*Table, error), len(sizes))
	for i, n := range sizes {
		n := n
		shards[i] = func() (*Table, error) { return run([]S{n}) }
	}
	return Suite{
		ID:     id,
		Run:    func() (*Table, error) { return run(sizes) },
		Shards: shards,
	}
}

// DefaultSuites returns the full experiment suite at the given scale factor
// (1 = the sizes recorded in EXPERIMENTS.md; smaller values shrink the
// workloads proportionally for quick runs).
func DefaultSuites(scale int) []Suite {
	if scale < 1 {
		scale = 1
	}
	sz := func(ns ...int) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			v := n * scale
			if v < 2 {
				v = 2
			}
			out[i] = v
		}
		return out
	}
	return []Suite{
		sharded("E1", []int{8, 16, 24, 32}, RunE1),
		sharded("E2", []int64{64, 256, 1024, 4096}, RunE2),
		whole("E3", []int{4, 6, 8, 10}, RunE3),
		sharded("E4", sz(16, 32, 64), RunE4),
		whole("E5", sz(16, 32, 64), RunE5),
		sharded("E6", sz(16, 64, 128), RunE6),
		whole("E7", sz(8, 16, 32), RunE7),
		sharded("E8", sz(4, 8, 16), RunE8),
		sharded("E9", sz(8, 16, 32), RunE9),
		sharded("E10", []int{6, 10}, RunE10),
		whole("E11", sz(3, 5), RunE11),
		sharded("P1", sz(64, 128, 256), RunP1),
		sharded("P2", sz(16, 32, 64), RunP2),
		sharded("P3", []int{2, 4, 8, 12}, RunP3),
	}
}

// SuiteResult is one experiment's table plus run cost, for the machine-
// readable bench report.
type SuiteResult struct {
	Table      *Table
	Wall       time.Duration // serial: wall time; parallel: summed shard time
	CPU        time.Duration // process CPU time attributed to the run (serial only)
	AllocBytes uint64        // heap bytes allocated during the run (serial only)
	Mallocs    uint64        // heap objects allocated during the run (serial only)
	Shards     int           // tasks the suite split into (1 = whole-suite run)
}

// RunInstrumented runs one suite serially, recording wall time, CPU time and
// the heap allocation delta across the run, and reporting an Experiment
// event to the process-default collector.
func RunInstrumented(s Suite) (SuiteResult, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	tbl, err := s.Run()
	wall := time.Since(start)
	cpu := time.Duration(processCPU() - cpu0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return SuiteResult{}, err
	}
	if c := obsv.Default(); c != nil {
		c.Experiment(obsv.ExperimentStats{ID: s.ID, Shard: -1, WallNS: wall.Nanoseconds(), CPUNS: cpu.Nanoseconds()})
	}
	return SuiteResult{
		Table:      tbl,
		Wall:       wall,
		CPU:        cpu,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		Shards:     1,
	}, nil
}

// RunStats is the whole-run cost of one RunSuites call: overall wall time
// and, for parallel runs, how well the worker pool was utilized.
type RunStats struct {
	Wall    time.Duration // overall wall-clock time of the run
	CPU     time.Duration // process CPU time across the run
	Workers int           // worker pool size (1 = serial)
	Tasks   int           // tasks executed (suites + shards)
	// Utilization is summed task time / (Workers × Wall) for parallel runs:
	// 1.0 means every worker was busy the whole run, lower values measure
	// shard imbalance and scheduling gaps. 0 for serial runs (meaningless
	// there — the single worker is busy by construction).
	Utilization float64
}

// RunSuites runs the given suites with the given worker count and returns
// results in suite order. With workers <= 1 each suite runs serially and
// instrumented. With workers > 1 every shard of every suite becomes a task
// on a bounded worker pool — independent suites and workload sizes run
// concurrently — and each suite's shard tables are merged back in shard
// order, so tables are identical in content to a serial run; per-suite
// timings then measure summed shard cost, not wall time, and allocation
// deltas are not attributed.
func RunSuites(suites []Suite, workers int) ([]SuiteResult, error) {
	out, _, err := RunSuitesStats(suites, workers)
	return out, err
}

// RunSuitesStats is RunSuites with whole-run cost reporting: overall wall
// and CPU time, and — for parallel runs — worker-pool utilization.
func RunSuitesStats(suites []Suite, workers int) ([]SuiteResult, RunStats, error) {
	overallStart := time.Now()
	cpu0 := processCPU()
	stats := RunStats{Workers: workers}
	finish := func() RunStats {
		stats.Wall = time.Since(overallStart)
		stats.CPU = time.Duration(processCPU() - cpu0)
		return stats
	}
	if workers <= 1 {
		stats.Workers = 1
		out := make([]SuiteResult, 0, len(suites))
		for _, s := range suites {
			res, err := RunInstrumented(s)
			if err != nil {
				return nil, finish(), fmt.Errorf("expt: %s: %w", s.ID, err)
			}
			out = append(out, res)
			stats.Tasks++
		}
		return out, finish(), nil
	}
	type task struct {
		suite, shard int
		run          func() (*Table, error)
	}
	var tasks []task
	shardTables := make([][]*Table, len(suites))
	shardWalls := make([][]time.Duration, len(suites))
	shardErrs := make([][]error, len(suites))
	for si, s := range suites {
		nShards := len(s.Shards)
		if nShards == 0 {
			nShards = 1
			tasks = append(tasks, task{si, 0, s.Run})
		} else {
			for hi, run := range s.Shards {
				tasks = append(tasks, task{si, hi, run})
			}
		}
		shardTables[si] = make([]*Table, nShards)
		shardWalls[si] = make([]time.Duration, nShards)
		shardErrs[si] = make([]error, nShards)
	}
	obs := obsv.Default()
	ch := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range ch {
				start := time.Now()
				tbl, err := tk.run()
				// Each (suite, shard) slot is written by exactly one task.
				shardWalls[tk.suite][tk.shard] = time.Since(start)
				shardErrs[tk.suite][tk.shard] = err
				shardTables[tk.suite][tk.shard] = tbl
				if obs != nil {
					obs.Experiment(obsv.ExperimentStats{
						ID:     suites[tk.suite].ID,
						Shard:  tk.shard,
						WallNS: shardWalls[tk.suite][tk.shard].Nanoseconds(),
					})
				}
			}
		}()
	}
	for _, tk := range tasks {
		ch <- tk
	}
	close(ch)
	wg.Wait()
	stats.Tasks = len(tasks)
	out := make([]SuiteResult, 0, len(suites))
	var busy time.Duration
	for si, s := range suites {
		for _, err := range shardErrs[si] {
			if err != nil {
				return nil, finish(), fmt.Errorf("expt: %s: %w", s.ID, err)
			}
		}
		res := SuiteResult{Table: mergeTables(shardTables[si]), Shards: len(shardWalls[si])}
		for _, d := range shardWalls[si] {
			res.Wall += d
		}
		busy += res.Wall
		out = append(out, res)
	}
	st := finish()
	if st.Wall > 0 {
		st.Utilization = float64(busy) / (float64(workers) * float64(st.Wall))
	}
	return out, st, nil
}

// mergeTables concatenates shard tables of one experiment: rows append in
// shard order, OK is the conjunction, notes are deduplicated.
func mergeTables(tables []*Table) *Table {
	out := &Table{OK: true}
	seenNotes := map[string]bool{}
	for _, t := range tables {
		if t == nil {
			continue
		}
		if out.ID == "" {
			out.ID, out.Title, out.Header = t.ID, t.Title, t.Header
		}
		out.Rows = append(out.Rows, t.Rows...)
		out.OK = out.OK && t.OK
		for _, n := range t.Notes {
			if !seenNotes[n] {
				seenNotes[n] = true
				out.Notes = append(out.Notes, n)
			}
		}
	}
	return out
}
