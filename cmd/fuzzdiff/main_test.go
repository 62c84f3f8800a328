package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCleanCampaign runs a short real campaign over the whole matrix and
// expects agreement everywhere.
func TestCleanCampaign(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-seeds", "25", "-out", filepath.Join(t.TempDir(), "repros"), "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("campaign failed (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "all oracles agree") {
		t.Errorf("missing agreement summary:\n%s", out.String())
	}
}

// TestInjectedFaultCaughtAndShrunk is the harness acceptance test: with the
// delta-window fault planted, the campaign must fail, and the written repro
// must carry a witness shrunk to at most 10 atoms.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	dir := t.TempDir()
	repros := filepath.Join(dir, "repros")
	trace := filepath.Join(dir, "trace.jsonl")
	var out, errb strings.Builder
	code := run([]string{"-oracle", "expr-stream", "-seeds", "40",
		"-inject", "drop-max", "-out", repros, "-trace", trace}, &out, &errb)
	if code != 1 {
		t.Fatalf("want exit 1 with a planted fault, got %d:\n%s%s", code, out.String(), errb.String())
	}
	files, err := os.ReadDir(repros)
	if err != nil || len(files) == 0 {
		t.Fatalf("no repro files written: %v", err)
	}
	repro, err := os.ReadFile(filepath.Join(repros, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`shrunk witness \(size (\d+)\)`).FindSubmatch(repro)
	if m == nil {
		t.Fatalf("repro has no shrunk witness:\n%s", repro)
	}
	if size, _ := strconv.Atoi(string(m[1])); size > 10 {
		t.Errorf("shrunk witness has %d atoms, want <= 10:\n%s", size, repro)
	}
	for _, want := range []string{"oracle: expr-stream", "divergence:", "original instance"} {
		if !strings.Contains(string(repro), want) {
			t.Errorf("repro missing %q:\n%s", want, repro)
		}
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"event"`) {
		t.Errorf("trace has no observability events:\n%.400s", tr)
	}
}

// TestUsageErrors checks flag and name validation exit codes.
func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-oracle", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown oracle: want exit 2, got %d", code)
	}
	if !strings.Contains(errb.String(), "known oracles") {
		t.Errorf("unknown-oracle error should list the matrix:\n%s", errb.String())
	}
	if code := run([]string{"-inject", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown fault: want exit 2, got %d", code)
	}
	if code := run([]string{"-bogusflag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: want exit 2, got %d", code)
	}
}
