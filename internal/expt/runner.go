package expt

import (
	"runtime"
	"time"

	"algrec/internal/obsv"
)

// Suite describes one experiment: Run produces its table.
type Suite struct {
	ID  string
	Run func() (*Table, error)
}

// suite builds the Suite that runs an experiment over its workload sizes.
func suite[S any](id string, sizes []S, run func([]S) (*Table, error)) Suite {
	return Suite{ID: id, Run: func() (*Table, error) { return run(sizes) }}
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
		suite("E1", []int{8, 16, 24, 32}, RunE1),
		suite("E2", []int64{64, 256, 1024, 4096}, RunE2),
		suite("E3", []int{4, 6, 8, 10}, RunE3),
		suite("E4", sz(16, 32, 64), RunE4),
		suite("E5", sz(16, 32, 64), RunE5),
		suite("E6", sz(16, 64, 128), RunE6),
		suite("E7", sz(8, 16, 32), RunE7),
		suite("E8", sz(4, 8, 16), RunE8),
		suite("E9", sz(8, 16, 32), RunE9),
		suite("E10", []int{6, 10}, RunE10),
		suite("E11", sz(3, 5), RunE11),
		suite("P1", sz(64, 128, 256), RunP1),
		suite("P2", sz(16, 32, 64), RunP2),
		suite("P3", []int{2, 4, 8, 12}, RunP3),
	}
}

// SuiteResult is one experiment's table plus run cost, for the machine-
// readable bench report.
type SuiteResult struct {
	Table      *Table
	Wall       time.Duration // wall time of the run
	CPU        time.Duration // process CPU time attributed to the run
	AllocBytes uint64        // heap bytes allocated during the run
	Mallocs    uint64        // heap objects allocated during the run
}

// RunInstrumented runs one suite, recording wall time, CPU time and the heap
// allocation delta across the run, and reporting an Experiment event to the
// process-default collector.
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
		c.Collect(obsv.ExperimentStats{ID: s.ID, WallNS: wall.Nanoseconds(), CPUNS: cpu.Nanoseconds()})
	}
	return SuiteResult{
		Table:      tbl,
		Wall:       wall,
		CPU:        cpu,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
	}, nil
}
