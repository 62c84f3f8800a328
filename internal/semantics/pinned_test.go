package semantics_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"algrec/internal/datalog"
	"algrec/internal/datalog/ground"
	"algrec/internal/expt"
	"algrec/internal/randgen"
	"algrec/internal/semantics"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/ground-programs.golden")

// pinnedBudget is the grounding budget of the pinned corpus; a program that
// exceeds it is pinned with its budget error.
var pinnedBudget = ground.Budget{MaxAtoms: 20000, MaxRules: 80000}

// pinnedCorpus lists the programs whose ground programs and stable models
// TestGroundProgramsPinned pins, by name.
func pinnedCorpus() (names []string, progs []*datalog.Program) {
	add := func(name string, p *datalog.Program) {
		names = append(names, name)
		progs = append(progs, p)
	}
	add("tc-chain-32", expt.TCProgram(expt.ChainEdges("e", 32)))
	add("win-cycle-8", expt.WinProgram(expt.CycleEdges("move", 8)))
	add("tc-grid-5x4", expt.TCProgram(expt.GridEdges("e", 5, 4)))
	for seed := int64(0); seed < 20; seed++ {
		add(fmt.Sprintf("randneg-%d", seed), expt.RandomNegProgram(seed, 12, 30))
	}
	for _, kind := range []randgen.DatalogKind{randgen.DlogPositive, randgen.DlogStratified, randgen.DlogFree} {
		for seed := int64(0); seed < 300; seed++ {
			add(fmt.Sprintf("randgen-%s-%d", kind, seed), randgen.New(seed, randgen.Config{}).Datalog(kind))
		}
	}
	return names, progs
}

// pinLine grounds p and renders one golden line: the atom and rule counts
// and a SHA-256 over the atom keys in id order, the ground rules as key text
// in sorted order, and the true keys of each stable model in the order
// StableModels(16) returns them (or its error).
func pinLine(name string, p *datalog.Program) string {
	g, err := ground.Ground(p, pinnedBudget)
	if err != nil {
		return fmt.Sprintf("%s error: %v", name, err)
	}
	h := sha256.New()
	key := func(id int) string { return g.Atom(id).Key() }
	for id := 0; id < g.NumAtoms(); id++ {
		fmt.Fprintf(h, "atom %s\n", key(id))
	}
	rules := make([]string, len(g.Rules))
	for i, r := range g.Rules {
		var body []string
		for _, a := range r.Pos {
			body = append(body, key(a))
		}
		for _, a := range r.Neg {
			body = append(body, "not "+key(a))
		}
		rules[i] = key(r.Head) + " :- " + strings.Join(body, ", ")
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(h, "rule %s\n", r)
	}
	models, err := semantics.NewEngine(g).StableModels(16)
	if err != nil {
		fmt.Fprintf(h, "stable error %v\n", err)
	}
	for i, m := range models {
		fmt.Fprintf(h, "model %d\n", i)
		for id := 0; id < g.NumAtoms(); id++ {
			if m.Truth(id) == semantics.True {
				fmt.Fprintf(h, "true %s\n", key(id))
			}
		}
	}
	return fmt.Sprintf("%s atoms=%d rules=%d %x", name, g.NumAtoms(), len(g.Rules), h.Sum(nil))
}

// TestGroundProgramsPinned pins, for a fixed corpus of generated programs,
// the ground program the grounder builds (its atoms in id order and its
// rules) and the stable models the engine enumerates, in order. Any
// rewrite of the grounder or the engines must reproduce them byte for byte;
// regenerate with -update only when the change of output is intended.
func TestGroundProgramsPinned(t *testing.T) {
	names, progs := pinnedCorpus()
	lines := make([]string, len(progs))
	for i, p := range progs {
		lines[i] = pinLine(names[i], p)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "ground-programs.golden")
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d lines, corpus has %d programs", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", lines[i], wantLines[i])
		}
	}
}
