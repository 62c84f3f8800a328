package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// series collects one metric's readings over the runs of one workload; a
// reading that carries a note (a refused p95) has no value, and its note is
// returned instead.
func series(runs []*runRecord, workload string, traced bool, metric string) (rs []reading, note string) {
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		v, ok := r.Metrics[metric]
		switch {
		case !ok:
		case v.Note != "":
			note = v.Note
		default:
			rs = append(rs, v)
		}
	}
	return rs, note
}

// values are the readings' values, raw the readings as measured.
func values(rs []reading) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Value
	}
	return out
}

func raw(rs []reading) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Raw
	}
	return out
}

// printReport prints every metric by name with its unit and the samples
// behind it: the end-to-end table, then the per-layer table and the layers'
// shares of the handler time.
func printReport(w io.Writer, b *bench, res *results) {
	e := res.Env
	fmt.Fprintf(w, "algrec served-request benchmark — seed %d, %d run(s), window %g s, %d set-ups per run\n", e.Seed, e.Runs, e.WindowS, e.Setups)
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %s, commit %s\n", e.NProc, e.GOMAXPROCS, e.Go, e.Commit)
	fmt.Fprintf(w, "target: %s; closed loop, %d request connections, keep-alive\nflush policy: %s\n", e.Target, e.Conns, e.Flush)

	fmt.Fprintf(w, "\nEnd to end (tracing off; median over runs; n = samples behind one run's number;\ntimes and rates at the reference machine speed, with the reading as measured beside them)\n")
	for _, wl := range b.workloads {
		fmt.Fprintf(w, "\n  %s — %s\n", wl.name, wl.why)
		var speeds []float64
		for _, r := range res.Runs {
			if r.Workload == wl.name && !r.Traced {
				speeds = append(speeds, r.Speed)
			}
		}
		if len(speeds) > 0 {
			fmt.Fprintf(w, "    %-26s %14.4f %-6s of the reference (the yardstick's basket, over the measured window)\n", "machine speed", median(speeds), "x")
		}
		for _, m := range b.endToEnd {
			rs, note := series(res.Runs, wl.name, false, m.Name)
			switch {
			case len(rs) > 0:
				vals := values(rs)
				line := fmt.Sprintf("    %-26s %14.4f %-6s n=%d", m.Name, median(vals), m.Unit, rs[len(rs)-1].Samples)
				if s, ok := spread(vals); ok {
					line += fmt.Sprintf("  spread %.1f%%", 100*s)
				}
				if rs[0].Raw != 0 {
					line += fmt.Sprintf("  (as measured %.4f)", median(raw(rs)))
				}
				fmt.Fprintln(w, line)
			case note != "":
				fmt.Fprintf(w, "    %-26s %14s %-6s %s\n", m.Name, "-", m.Unit, note)
			}
		}
		var classes []string
		for _, r := range res.Runs {
			if r.Workload == wl.name && !r.Traced {
				for c, v := range r.Classes {
					classes = append(classes, fmt.Sprintf("%s p50 %.2f ms (n=%d)", c, v.Value, v.Samples))
				}
				for _, msg := range r.Errors {
					fmt.Fprintf(w, "    FAILED: %s\n", msg)
				}
				break
			}
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "    classes, as measured: %s\n", strings.Join(classes, "; "))
	}

	fmt.Fprintf(w, "\nPer layer (traced in-process run, one client, %d requests per workload, %d of adhoc-point, %d cycles of bulk-cycle;\n", tracedRequests, 6*tracedRequests, tracedCycles)
	fmt.Fprintf(w, "times are medians, counts means per request; never an end-to-end number)\n\n")
	fmt.Fprintf(w, "  %-26s %-6s", "metric", "unit")
	for _, wl := range b.workloads {
		fmt.Fprintf(w, " %13s", wl.name)
	}
	fmt.Fprintln(w, "  should move")
	for _, m := range b.layers {
		fmt.Fprintf(w, "  %-26s %-6s", m.Name, m.Unit)
		for _, wl := range b.workloads {
			rs, _ := series(res.Runs, wl.name, true, m.Name)
			vals := values(rs)
			if len(vals) == 0 {
				fmt.Fprintf(w, " %13s", "-")
				continue
			}
			fmt.Fprintf(w, " %13.4g", median(vals))
		}
		fmt.Fprintln(w, " ", m.Moves)
	}

	fmt.Fprintf(w, "\nShare of the handler time per layer (server.handler_ms; mutation handler on write-stream,\nthe whole cycle on bulk-cycle), from the rungs' totals over the sample\n\n")
	layers := map[string]bool{}
	for _, r := range res.Runs {
		for l := range r.Shares {
			layers[l] = true
		}
	}
	fmt.Fprintf(w, "  %-26s", "layer")
	for _, wl := range b.workloads {
		fmt.Fprintf(w, " %13s", wl.name)
	}
	fmt.Fprintln(w)
	for _, l := range sortedKeys(layers) {
		fmt.Fprintf(w, "  %-26s", l)
		for _, wl := range b.workloads {
			var vals []float64
			for _, r := range res.Runs {
				if r.Workload == wl.name && r.Traced {
					vals = append(vals, r.Shares[l])
				}
			}
			if len(vals) == 0 {
				fmt.Fprintf(w, " %13s", "-")
				continue
			}
			fmt.Fprintf(w, " %12.1f%%", 100*median(vals))
		}
		fmt.Fprintln(w)
	}
	for _, r := range res.Runs {
		if r.Traced {
			for _, msg := range r.Errors {
				fmt.Fprintf(w, "  note (%s): %s\n", r.Workload, msg)
			}
		}
	}
}
