// Command benchjoin concatenates results files of the served-request
// benchmark (benchmark/, `-runs 1 -out FILE` each) into one, as if a single
// `-runs N` invocation had written it: the first file's environment with the
// run count set, every file's runs in argument order. `make bench-pair` uses
// it to store the alternating runs of one side in one BENCH_<pr>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	out := flag.String("out", "", "the joined results file to write")
	flag.Parse()
	if *out == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchjoin -out JOINED.json RUN.json...")
		os.Exit(2)
	}
	type results struct {
		Env  map[string]json.RawMessage `json:"env"`
		Runs []json.RawMessage          `json:"runs"`
	}
	var joined results
	for i, path := range flag.Args() {
		var one results
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &one)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjoin: %s: %v\n", path, err)
			os.Exit(1)
		}
		if i == 0 {
			joined.Env = one.Env
		}
		joined.Runs = append(joined.Runs, one.Runs...)
	}
	joined.Env["runs"] = json.RawMessage(fmt.Sprint(flag.NArg()))
	b, err := json.MarshalIndent(&joined, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjoin:", err)
		os.Exit(1)
	}
}
