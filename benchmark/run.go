package main

import (
	"fmt"
	"path/filepath"
	"time"

	"algrec/benchmark/gen"
)

// reading is one reported number.
type reading struct {
	Value float64 `json:"value"`
	// Raw is a time-based end-to-end reading as measured; Value is then the
	// same reading at the reference machine speed (see yardstick).
	Raw     float64 `json:"raw,omitempty"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // measurements behind the number
	Note    string  `json:"note,omitempty"`
}

// runRecord is one run of one workload: what the full command stores per run
// in its results file and what -compare reads back.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Speed     float64            `json:"machine_speed,omitempty"` // end to end: the yardstick's reading over the measured window
	Metrics   map[string]reading `json:"metrics"`
	Classes   map[string]reading `json:"classes,omitempty"` // per-class p50, diagnostics
	Shares    map[string]float64 `json:"shares,omitempty"`  // traced: layer share of the handler time
}

// runConfig is how a workload is run end to end.
type runConfig struct {
	seed   uint64
	sizes  gen.Sizes
	launch launcher
	tmp    string        // where store directories go
	setups int           // times the set-up is repeated; setup_s is their median (setupsPerRun, fewer at toy size)
	window time.Duration // measured window
}

// setupsPerRun is how often a run of the command sets the workload up; one
// set-up is a single spawn and load, and single timings of that spread 20%.
const setupsPerRun = 3

// runEndToEnd sets the workload up cfg.setups times on fresh services —
// spawn, load, warm-up — keeps the last one, measures it for the window,
// checks it, and shuts it down. The yardstick runs beside all of it.
func runEndToEnd(b *bench, w *workload, cfg runConfig) (*runRecord, error) {
	in := w.prepare(cfg.seed, cfg.sizes)
	y := startYardstick()
	defer y.halt()

	var (
		t       target
		s       session
		release = func() {}
		// Set-up times as measured, and at the reference machine speed.
		setupRaw, setup []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if t != nil {
			s.close()
			if err := t.Stop(); err != nil {
				return nil, err
			}
			release()
		}
		dir := ""
		if w.disk {
			var err error
			if dir, release, err = tempDir(cfg.tmp, w.name+"-*"); err != nil {
				return nil, err
			}
		}
		y.speed() // the yardstick's interval starts with the set-up
		start := time.Now()
		var err error
		if t, err = cfg.launch(dir); err != nil {
			release()
			return nil, err
		}
		if s, err = in.open(t, dir); err != nil {
			_ = t.Stop()
			release()
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took := time.Since(start).Seconds()
		setupRaw, setup = append(setupRaw, took), append(setup, took*y.speed())
	}
	defer release()

	cpu0 := t.CPU()
	log := s.measure(cfg.window)
	cpu := t.CPU() - cpu0
	speed := y.speed()
	s.finish(log)
	s.close()
	if err := t.Stop(); err != nil {
		return nil, err
	}

	rec := &runRecord{
		Workload:  w.name,
		Seed:      cfg.seed,
		Attempted: log.attempted,
		Failed:    log.failed,
		Correct:   log.failed == 0 && len(log.lat) > 0,
		Errors:    log.errs,
		Speed:     speed,
		Metrics:   map[string]reading{},
		Classes:   map[string]reading{},
	}
	ops := len(log.lat)
	// A time reads shorter and a rate higher on a faster machine, so at the
	// reference speed a time is the measured one times the speed and a rate
	// the measured one divided by it; a size or a share is what it is.
	const (
		plain = iota
		duration
		rate
	)
	put := func(name string, kind int, v float64, samples int) {
		r := reading{Value: v, Unit: b.unit(name), Samples: samples}
		switch kind {
		case duration:
			r.Raw, r.Value = v, v*speed
		case rate:
			r.Raw, r.Value = v, v/speed
		}
		rec.Metrics[name] = r
	}
	mid := func(name string, kind int, series []float64) {
		if len(series) > 0 {
			put(name, kind, median(series), len(series))
		}
	}
	tail := func(name string, series []float64) {
		if v, ok := p95(series); ok {
			put(name, duration, v, len(series))
		} else if len(series) > 0 {
			rec.Metrics[name] = reading{Unit: b.unit(name), Samples: len(series), Note: fmt.Sprintf("refused: %d samples, a p95 needs %d", len(series), minTailSamples)}
		}
	}
	rec.Metrics["setup_s"] = reading{Value: median(setup), Raw: median(setupRaw), Unit: b.unit("setup_s"), Samples: len(setup)}
	put("throughput_ops_s", rate, float64(ops)/log.elapsed.Seconds(), ops)
	put("latency_class_p50_ms", duration, classLatency(log.byClass), ops)
	tail("latency_p95_ms", log.lat)
	put("failed_share", plain, float64(log.failed)/float64(max(log.attempted, 1)), log.attempted)
	if ops > 0 && cpu > 0 {
		put("server_cpu_ms_per_op", duration, ms(cpu)/float64(ops), ops)
	}
	if rss := t.PeakRSS(); rss > 0 {
		put("peak_rss_mb", plain, float64(rss)/(1<<20), 1)
	}
	mid("delta_lag_p50_ms", duration, log.extra["delta_lag"])
	tail("delta_lag_p95_ms", log.extra["delta_lag"])
	mid("read_after_write_p50_ms", duration, log.extra["read_after_write"])
	mid("load_facts_s", rate, log.extra["load_facts_s"])
	mid("recovery_ms", duration, log.extra["recovery"])
	mid("cold_query_ms", duration, log.extra["cold_query"])
	mid("disk_bytes_per_fact", plain, log.extra["disk_bytes_per_fact"])
	for name, series := range log.byClass {
		rec.Classes[name] = reading{Value: median(series), Unit: "ms", Samples: len(series)}
	}
	return rec, nil
}

// classLatency is latency_class_p50_ms: the median latency of each class,
// averaged over the classes. The classes of a workload are dealt equally
// often and their latency bands lie apart (60 ms and 250 ms on alg-read), so
// a median taken across all ops falls in a gap between two bands and jumps
// with which side has one op more; the class medians do not, and their mean
// moves when any class does. With one class it is the plain median.
func classLatency(byClass map[string][]float64) float64 {
	if len(byClass) == 0 {
		return 0 // no op succeeded; the run is reported as incorrect
	}
	var sum float64
	for _, series := range byClass {
		sum += median(series)
	}
	return sum / float64(len(byClass))
}

// outDir is where results, traces, the built daemon and store directories
// go: benchmark/out, ignored by benchmark/.gitignore.
func outDir(benchDir string) string { return filepath.Join(benchDir, "out") }
