// Command benchmark is the repository's served-request benchmark: five
// workloads run end to end against a spawned cmd/algrecd over loopback HTTP
// with tracing off, and a separate traced in-process run that replays a
// fixed sample of each workload rung by rung through the layers' public
// functions. Every input is generated from -seed and every answer is checked
// against an independent reference (package ref). See README.md for the
// metric and workload glossary.
//
// Usage, from the repository root:
//
//	go run -C benchmark algrec/benchmark -seed 1            # everything, both runs, the report
//	go run -C benchmark algrec/benchmark -smoke             # toy sizes, in process, seconds
//	go run -C benchmark algrec/benchmark -compare a.json b.json
//	go run -C benchmark algrec/benchmark --workload dlog-read --seed 1 --seconds 15 --trace 0
//
// The last form is the contract of BENCHMARK.json: one workload, one run,
// and as the last line of standard output one JSON object with the run's
// end-to-end (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"algrec/benchmark/gen"
)

func main() {
	code := run(os.Args[1:])
	runCleanups()
	os.Exit(code)
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	runs     int
	smoke    bool
	compare  bool
	out      string
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the contract's result line (default: all five and the report)")
	fs.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 25, "measured window per workload run")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced run")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: repeat every workload this many times on seeds seed, seed+1, ...")
	fs.BoolVar(&o.smoke, "smoke", false, "toy sizes against an in-process server: every workload and the traced run in seconds")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare old.json new.json")
	fs.StringVar(&o.out, "out", "", "results file (default out/results.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || o.seconds < 1 || o.runs < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	// A signal ends the run through the same door as everything else: no
	// child and no store directory is left behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	if err := o.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// findDirs locates the benchmark's own directory and the repository root
// above it from the working directory, which `go run -C benchmark` makes the
// former and `go test` the package's.
func findDirs() (benchDir, root string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "benchmark")} {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil || !strings.HasPrefix(string(mod), "module algrec/benchmark\n") {
			continue
		}
		root := filepath.Dir(dir)
		if _, err := os.Stat(filepath.Join(root, "cmd", "algrecd", "main.go")); err != nil {
			return "", "", fmt.Errorf("%s holds the benchmark but %s is not the repository: %w", dir, root, err)
		}
		return dir, root, nil
	}
	return "", "", fmt.Errorf("run from the repository root as `go run -C benchmark algrec/benchmark` (no benchmark module at %s)", wd)
}

// buildDaemon compiles cmd/algrecd from the checkout's source into dir.
func buildDaemon(benchDir, dir string) (string, error) {
	bin := filepath.Join(dir, "algrecd")
	cmd := exec.Command("go", "build", "-o", bin, "algrec/cmd/algrecd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build algrec/cmd/algrecd: %w\n%s", err, out)
	}
	return bin, nil
}

// environment is recorded with every results file.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs"`
	WindowS    float64 `json:"window_s"`
	Setups     int     `json:"setups_per_run"`
	Conns      int     `json:"request_connections"`
	Target     string  `json:"target"`
	Flush      string  `json:"flush_policy"`
	Sizes      string  `json:"sizes"`
	When       string  `json:"when"`
}

func (o *options) environment(root, target string, cfg runConfig) environment {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, Seed: o.seed, Runs: o.runs, WindowS: cfg.window.Seconds(), Setups: cfg.setups,
		Conns: requestConns, Target: target,
		Flush: "-disk-sync off: the OS decides when a batch is durable, on both sides of any comparison",
		Sizes: fmt.Sprintf("%+v", cfg.sizes),
		When:  time.Now().UTC().Format(time.RFC3339),
	}
}

// results is the file the full command writes and -compare reads.
type results struct {
	Env  environment  `json:"env"`
	Runs []*runRecord `json:"runs"`
}

func (o *options) execute() error {
	benchDir, root, err := findDirs()
	if err != nil {
		return err
	}
	b, err := loadBench(root)
	if err != nil {
		return err
	}
	out := outDir(benchDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cfg := runConfig{
		seed:   o.seed,
		sizes:  gen.Full,
		tmp:    filepath.Join(out, "tmp"),
		setups: setupsPerRun,
		window: time.Duration(o.seconds) * time.Second,
	}
	target := "spawned cmd/algrecd, default GOMAXPROCS, -max-body 67108864"
	if o.smoke {
		cfg.sizes, cfg.launch, cfg.setups, cfg.window = gen.Toy, inprocLauncher, 1, 300*time.Millisecond
		target = "in-process server (-smoke): no number here is an end-to-end result"
	}
	needDaemon := !o.smoke && !(o.workload != "" && o.trace == 1)
	if needDaemon {
		bin, err := buildDaemon(benchDir, filepath.Join(out, "bin"))
		if err != nil {
			return err
		}
		cfg.launch = spawnLauncher(bin)
	}

	if o.workload != "" {
		w, ok := b.workload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return o.contractRun(b, w, cfg, out)
	}

	res := results{Env: o.environment(root, target, cfg)}
	for run := 0; run < o.runs; run++ {
		cfg.seed = o.seed + uint64(run)
		for _, w := range b.workloads {
			fmt.Fprintf(os.Stderr, "seed %d: %s end to end...\n", cfg.seed, w.name)
			rec, err := runEndToEnd(b, w, cfg)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, rec)
		}
		for _, w := range b.workloads {
			fmt.Fprintf(os.Stderr, "seed %d: %s traced...\n", cfg.seed, w.name)
			rec, err := runTraced(b, w, cfg, out)
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, rec)
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join(out, "results.json")
	}
	js, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		return err
	}
	printReport(os.Stdout, b, &res)
	fmt.Printf("\nresults: %s   traces: %s\n", path, filepath.Join(out, "trace-<workload>.jsonl"))
	for _, r := range res.Runs {
		if !r.Correct {
			return errors.New("some operation failed; see failed_share and the errors above")
		}
	}
	return nil
}

// contractRun is one run of one workload as BENCHMARK.json's driver asks for
// it: the last line of standard output is the result object.
func (o *options) contractRun(b *bench, w *workload, cfg runConfig, out string) error {
	var (
		rec   *runRecord
		names []string
		err   error
	)
	if o.trace == 1 {
		rec, err = runTraced(b, w, cfg, out)
		for _, m := range b.layers {
			names = append(names, m.Name)
		}
	} else {
		rec, err = runEndToEnd(b, w, cfg)
		for _, m := range b.gated {
			names = append(names, m.Name)
		}
	}
	if err != nil {
		return err
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", w.name+":", e)
	}
	if !rec.Traced {
		fmt.Fprintf(os.Stderr, "benchmark: %s: machine speed %.4f of the reference; times and rates below are at the reference speed\n", w.name, rec.Speed)
	}
	for _, c := range sortedKeys(rec.Classes) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: class %s p50 %.3f ms as measured (n=%d)\n", w.name, c, rec.Classes[c].Value, rec.Classes[c].Samples)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]metric{}}
	for _, name := range names {
		v, ok := rec.Metrics[name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.name, name)
		}
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	js, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}
