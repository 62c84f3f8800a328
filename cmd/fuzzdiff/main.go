// Command fuzzdiff drives offline differential-fuzzing campaigns over the
// oracle matrix of internal/diffcheck: generate random well-typed instances
// with internal/randgen, run each through an oracle's paired theorem
// pipelines, and report any divergence as a greedily shrunk witness.
//
// Usage:
//
//	fuzzdiff [-oracle name] [-seeds N] [-start N] [-size N] [-duration d]
//	         [-out dir] [-inject fault] [-trace path] [-v]
//
// With no -oracle every oracle in the matrix runs. -seeds bounds the number
// of instances per oracle; -duration bounds the whole campaign's wall clock
// (whichever limit is hit first stops the run; -duration 0 means no time
// limit). -start offsets the seed range so successive campaigns explore
// fresh instances.
//
// On divergence the witness is shrunk and written to -out (default
// fuzzdiff-repros/) as <oracle>-seed<N>.txt, containing the oracle name,
// the original and shrunk renderings, and the divergence detail; the
// campaign then continues with the next seed, so one bug does not hide
// another. -trace streams observability events (fixpoints, groundings,
// translations) of the failing instance's re-run as JSON lines next to the
// repro, giving the engine-level trace of the disagreement.
//
// -inject plants a deliberate fault (see diffcheck.ParseFault; currently
// none or drop-max) in the served side of the expr-stream pair and the
// semi-naive side of the expr-seminaive pair. A campaign
// with -inject drop-max must fail — it is the self-test proving the
// harness catches and shrinks real bugs, exercised by this command's tests.
//
// Exit status: 0 for a clean campaign, 1 when any oracle diverged, 2 for
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"algrec/internal/diffcheck"
	"algrec/internal/obsv"
	"algrec/internal/randgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuzzdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oracle := fs.String("oracle", "", "run a single oracle by name (default: the whole matrix)")
	seeds := fs.Int64("seeds", 200, "instances to try per oracle")
	start := fs.Int64("start", 0, "first seed of the range")
	size := fs.Int("size", 0, "fixed instance size budget 1..8 (default: cycle 1..4)")
	duration := fs.Duration("duration", 0, "wall-clock bound for the whole campaign (0 = none)")
	out := fs.String("out", "fuzzdiff-repros", "directory for shrunk repro files")
	inject := fs.String("inject", "none", "plant a deliberate fault: none or drop-max")
	trace := fs.String("trace", "", "write observability JSONL of failing re-runs to this file")
	verbose := fs.Bool("v", false, "report per-oracle progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fault, err := diffcheck.ParseFault(*inject)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer diffcheck.InjectFault(fault)()

	oracles := diffcheck.Oracles
	if *oracle != "" {
		o, ok := diffcheck.ByName(*oracle)
		if !ok {
			fmt.Fprintf(stderr, "fuzzdiff: unknown oracle %q; known oracles:\n", *oracle)
			for _, o := range diffcheck.Oracles {
				fmt.Fprintf(stderr, "  %-18s %s\n", o.Name, o.Doc)
			}
			return 2
		}
		oracles = []*diffcheck.Oracle{o}
	}

	var traceW io.Writer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		traceW = f
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	failures, tried := 0, 0
	for _, o := range oracles {
		divergences := 0
		for seed := *start; seed < *start+*seeds; seed++ {
			if !deadline.IsZero() && time.Now().After(deadline) {
				fmt.Fprintf(stdout, "fuzzdiff: campaign time limit reached after %d instances\n", tried)
				goto done
			}
			cfg := randgen.Config{Size: *size}
			if *size == 0 {
				cfg.Size = 1 + int(seed%4)
			}
			in := diffcheck.Generate(o, randgen.New(seed, cfg))
			tried++
			err := in.Check()
			if err == nil {
				continue
			}
			divergences++
			failures++
			if reportErr := report(stdout, *out, traceW, o, seed, in, err); reportErr != nil {
				fmt.Fprintln(stderr, reportErr)
				return 2
			}
		}
		if *verbose {
			fmt.Fprintf(stdout, "%-18s %d seeds, %d divergences\n", o.Name, *seeds, divergences)
		}
	}
done:
	if failures > 0 {
		fmt.Fprintf(stdout, "fuzzdiff: %d divergence(s) across %d instances; repros in %s\n", failures, tried, *out)
		return 1
	}
	fmt.Fprintf(stdout, "fuzzdiff: %d instances, all oracles agree\n", tried)
	return 0
}

// report shrinks a diverging instance and writes the repro file; with a
// trace writer it re-runs the shrunk check under a JSONL collector so the
// repro comes with its engine-level event stream.
func report(stdout io.Writer, outDir string, traceW io.Writer, o *diffcheck.Oracle, seed int64, in *diffcheck.Instance, err error) error {
	small := in.Shrink()
	smallErr := small.Check()
	if traceW != nil {
		// Trace the original as well as the shrunk witness: shrinking can
		// strip the structure (an IFP, a grounding) whose events explain
		// where the engines diverged.
		prev := obsv.Default()
		obsv.SetDefault(obsv.Multi(prev, obsv.NewJSONL(traceW)))
		_ = in.Check()
		smallErr = small.Check()
		obsv.SetDefault(prev)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.txt", o.Name, seed))
	body := fmt.Sprintf("oracle: %s\n%s\nseed: %d\n\ndivergence:\n%v\n\nshrunk witness (size %d):\n%s\noriginal instance (size %d):\n%s",
		o.Name, o.Doc, seed, smallErr, small.Size(), small.Render(), in.Size(), in.Render())
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "FAIL %s seed %d: %v\n  shrunk to %d atoms, repro written to %s\n",
		o.Name, seed, err, small.Size(), path)
	return nil
}
