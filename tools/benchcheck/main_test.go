package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"algrec/internal/expt"
)

// writeRecord marshals a record into dir and returns its path.
func writeRecord(t *testing.T, dir, name string, rec *expt.Record) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func suite(id string, ok bool, wallNS int64) expt.RecordSuite {
	return expt.RecordSuite{ID: id, Title: "experiment " + id, OK: ok, WallNS: wallNS}
}

func TestWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeRecord(t, dir, "base.json", &expt.Record{Scale: 1,
		Suites: []expt.RecordSuite{suite("E1", true, 100), suite("E2", true, 200)}})
	cur := writeRecord(t, dir, "cur.json", &expt.Record{Scale: 1,
		Suites: []expt.RecordSuite{suite("E1", true, 250), suite("E2", true, 90)}})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-gates", "", cur}, &out, &errb, false); code != 0 {
		t.Fatalf("want exit 0, got %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "within 3.0x") {
		t.Errorf("missing summary:\n%s", out.String())
	}
}

func TestRegressionKinds(t *testing.T) {
	dir := t.TempDir()
	base := writeRecord(t, dir, "base.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		suite("SLOW", true, 100), suite("BROKE", true, 100), suite("GONE", true, 100)}})
	cur := writeRecord(t, dir, "cur.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		suite("SLOW", true, 1000), suite("BROKE", false, 100)}})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-gates", "", cur}, &out, &errb, false); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"SLOW", "10.0x", "BROKE", "stopped passing", "GONE", "missing", "3 regression(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGitHubAnnotations(t *testing.T) {
	dir := t.TempDir()
	base := writeRecord(t, dir, "base.json", &expt.Record{Scale: 1,
		Suites: []expt.RecordSuite{suite("E1", true, 100)}})
	cur := writeRecord(t, dir, "cur.json", &expt.Record{Scale: 1,
		Suites: []expt.RecordSuite{suite("E1", true, 5000)}})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, "-gates", "", cur}, &out, &errb, true); code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	if !strings.Contains(out.String(), "::warning title=bench regression::") {
		t.Errorf("missing workflow annotation:\n%s", out.String())
	}
}

// gatedSuite builds a P10-shaped ablation suite with the given speedup rows.
func gatedSuite(id string, rows ...[]string) expt.RecordSuite {
	return expt.RecordSuite{ID: id, Title: "experiment " + id, OK: true, WallNS: 100,
		Header: []string{"workload", "size", "noidsets", "idsets", "speedup", "agree"},
		Rows:   rows}
}

// p11Suite is a passing P11 ablation suite, satisfying the default
// ivmInsertChain gate so tests can focus on the P10 rows.
func p11Suite() expt.RecordSuite {
	return expt.RecordSuite{ID: "P11", Title: "experiment P11", OK: true, WallNS: 100,
		Header: []string{"workload", "size", "noivm", "ivm", "speedup", "agree"},
		Rows:   [][]string{{"ivmInsertChain(128)", "10", "1ms", "1ms", "50.00x", "yes"}}}
}

// p12Suite is a P12 storage suite whose storageMemServe row reads the given
// ratio. No default gate names it: the ratio is a best-of-N latency quotient
// that flaps around its 0.95x floor on unchanged code, so only a caller that
// passes the gate explicitly (the advisory bench-check) judges it.
func p12Suite(ratio string) expt.RecordSuite {
	return expt.RecordSuite{ID: "P12", Title: "experiment P12", OK: true, WallNS: 100,
		Header: []string{"workload", "n", "base", "with storage", "speedup", "agree"},
		Rows:   [][]string{{"storageMemServe(96)", "96", "1ms", "1ms", ratio, "yes"}}}
}

func TestSpeedupGates(t *testing.T) {
	dir := t.TempDir()
	row := func(name, sp string) []string { return []string{name, "10", "1ms", "1ms", sp, "yes"} }
	base := writeRecord(t, dir, "base.json", &expt.Record{Scale: 1,
		Suites: []expt.RecordSuite{gatedSuite("P10", row("ifpTCChain(128)", "5.00x")), p11Suite()}})

	// Current run holds the floor: exit 0.
	ok := writeRecord(t, dir, "ok.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("ifpTCChain(128)", "2.40x"), row("dlogWinGame(128)", "0.90x")), p11Suite()}})
	var out, errb strings.Builder
	if code := run([]string{"-baseline", base, ok}, &out, &errb, false); code != 0 {
		t.Fatalf("want exit 0, got %d:\n%s%s", code, out.String(), errb.String())
	}

	// A gated row under the floor is a regression even though every wall is
	// fine; ungated rows (dlogWinGame) stay advisory.
	out.Reset()
	slow := writeRecord(t, dir, "slow.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("ifpTCChain(128)", "1.10x"), row("dlogWinGame(128)", "0.50x")), p11Suite()}})
	if code := run([]string{"-baseline", base, slow}, &out, &errb, false); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out.String())
	}
	for _, want := range []string{"ifpTCChain(128)", "1.10x", "2.00x floor"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "dlogWinGame") {
		t.Errorf("ungated row reported:\n%s", out.String())
	}

	// Gated rows disappearing (or the whole suite) is a regression too.
	out.Reset()
	gone := writeRecord(t, dir, "gone.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("dlogWinGame(128)", "0.90x")), p11Suite()}})
	if code := run([]string{"-baseline", base, gone}, &out, &errb, false); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "matched no ifpTCChain rows") {
		t.Errorf("missing no-rows regression:\n%s", out.String())
	}

	// A malformed gate spec is a usage error, not a silent pass.
	out.Reset()
	if code := run([]string{"-baseline", base, "-gates", "P10:only-two", ok}, &out, &errb, false); code != 2 {
		t.Errorf("bad gate: want exit 2, got %d", code)
	}
}

func TestGatesOnly(t *testing.T) {
	dir := t.TempDir()
	row := func(name, sp string) []string { return []string{name, "10", "1ms", "1ms", sp, "yes"} }

	// -gatesonly never touches the baseline: a record holding only the gated
	// suite passes even though every other suite is "missing" and no baseline
	// file exists at the default path.
	ok := writeRecord(t, dir, "ok.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("ifpTCChain(128)", "3.10x")), p11Suite()}})
	var out, errb strings.Builder
	if code := run([]string{"-gatesonly", "-baseline", filepath.Join(dir, "nope.json"), ok}, &out, &errb, false); code != 0 {
		t.Fatalf("want exit 0, got %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "all speedup gates hold") {
		t.Errorf("missing summary:\n%s", out.String())
	}

	// Floor violations still fail in gates-only mode.
	out.Reset()
	slow := writeRecord(t, dir, "slow.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("ifpTCChain(128)", "1.30x")), p11Suite()}})
	if code := run([]string{"-gatesonly", slow}, &out, &errb, false); code != 1 {
		t.Fatalf("want exit 1, got %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 gate violation(s)") {
		t.Errorf("missing violation summary:\n%s", out.String())
	}

	// The default floors are P10 and P11 only: a P12 ratio under 0.95x blocks
	// nothing unless the caller names the gate, as bench-check does.
	out.Reset()
	flap := writeRecord(t, dir, "flap.json", &expt.Record{Scale: 1, Suites: []expt.RecordSuite{
		gatedSuite("P10", row("ifpTCChain(128)", "3.10x")), p11Suite(), p12Suite("0.90x")}})
	if code := run([]string{"-gatesonly", flap}, &out, &errb, false); code != 0 {
		t.Fatalf("P12 under its old floor with default gates: want exit 0, got %d:\n%s", code, out.String())
	}
	if code := run([]string{"-gatesonly", "-gates", "P12:storageMemServe(96):0.95", flap}, &out, &errb, false); code != 1 {
		t.Fatalf("P12 gated explicitly: want exit 1, got %d:\n%s", code, out.String())
	}
}

func TestUsageAndMismatch(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb, false); code != 2 {
		t.Errorf("no args: want exit 2, got %d", code)
	}
	dir := t.TempDir()
	base := writeRecord(t, dir, "base.json", &expt.Record{Scale: 1})
	cur := writeRecord(t, dir, "cur.json", &expt.Record{Scale: 4})
	if code := run([]string{"-baseline", base, "-gates", "", cur}, &out, &errb, false); code != 2 {
		t.Errorf("scale mismatch: want exit 2, got %d", code)
	}
	if code := run([]string{"-baseline", filepath.Join(dir, "nope.json"), cur}, &out, &errb, false); code != 2 {
		t.Errorf("missing baseline: want exit 2, got %d", code)
	}
}
