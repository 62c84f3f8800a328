package parse

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"algrec/internal/storage"
	"algrec/internal/value"
	"algrec/internal/value/intern"
)

// FuzzParseScript checks that the script parser never panics, that the
// printed form of an accepted program re-parses to the same printed form,
// that each relation's set, printed as a rel statement, re-parses to a set
// that prints the same, and that ParseScriptRows agrees (rowsAgree).
func FuzzParseScript(f *testing.F) {
	seeds := []string{
		"rel r = {1, 2};\n",
		"def win = map(diff(move, product(map(move, \\x -> x.1), win)), \\x -> x.1);\nquery win;\n",
		"def evens = select(union({0}, map(evens, \\x -> x + 2)), \\x -> x < 10);\n",
		"def f(x, y) = diff(x, diff(x, y));\ndef q = f({1}, {2});\n",
		"rel m = {(a, {1, (2, 3)}), \"s\"};\n",
		"def g = ifp(w, union(flip(base), w));\nrel base = {0};\n",
		"query select({1,2}, \\x -> x in {1} or not (x = 2));\n",
		"def b = map({()}, \\x -> (5,));\n",
		"rel r = ;",
		"def = x;",
		"%",
		"rel n = {-9223372036854775808, 9223372036854775807, -1, 0, \"Q\", true, (), (1,), {}};\n",
		pairsLiteral(200), // over the radix threshold, with duplicates
		"def q = select({1, 2}, \\x -> x mod 2 = 0);\n", // mod must not print as %, a comment
		// Rows that stop being uniform, and rows compare-sorted.
		"rel u = {(1, 2), (3, 4), 5};\nrel t = {(\"x\", a), (b, 1), (b, 1)};\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := ParseScript(src)
		rowsAgree(t, src, script, err)
		if err != nil {
			return
		}
		for name, set := range script.DB {
			rel := "rel r = " + set.String() + ";"
			again, err := ParseScript(rel)
			if err != nil {
				t.Fatalf("printed relation %s does not re-parse: %v\ninput: %q\nprinted: %q", name, err, src, rel)
			}
			if got := again.DB["r"].String(); got != set.String() {
				t.Fatalf("relation %s does not round-trip:\nfirst:  %q\nsecond: %q", name, set.String(), got)
			}
		}
		printed := script.Program.String()
		script2, err := ParseScript(printed)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if script2.Program.String() != printed {
			t.Fatalf("print not idempotent:\nfirst:  %q\nsecond: %q", printed, script2.Program.String())
		}
	})
}

// pairsLiteral is a rel statement of n integer pairs, out of order, with
// negative components, and with every fifth pair a repeat.
func pairsLiteral(n int) string {
	pairs := make([]string, n)
	for i := range pairs {
		j := i % (n * 4 / 5)
		pairs[i] = fmt.Sprintf("(%d, %d)", (j*7919)%101-50, (j*31)%17)
	}
	return "rel e = {" + strings.Join(pairs, ", ") + "};\n"
}

// rowsAgree checks ParseScriptRows of src against ParseScript's result: the
// same error text, and per relation the rows the store's encoding gives its
// set (storage.RowsOfSet), which materialize back to that set.
func rowsAgree(t *testing.T, src string, script *Script, err error) {
	t.Helper()
	in := intern.New()
	got, gotErr := ParseScriptRows(src, in)
	if fmt.Sprint(gotErr) != fmt.Sprint(err) {
		t.Fatalf("ParseScriptRows error %v, ParseScript's %v\ninput: %q", gotErr, err, src)
	}
	if err != nil {
		return
	}
	if len(got.DB) != 0 || len(got.Rows) != len(script.DB) || len(got.Program.Defs) != len(script.Program.Defs) || len(got.Queries) != len(script.Queries) {
		t.Fatalf("ParseScriptRows read %d relations, %d sets, %d definitions and %d queries; ParseScript %d, %d and %d\ninput: %q",
			len(got.Rows), len(got.DB), len(got.Program.Defs), len(got.Queries), len(script.DB), len(script.Program.Defs), len(script.Queries), src)
	}
	for name, set := range script.DB {
		r, ok := got.Rows[name]
		rows, arity := storage.RowsOfSet(in, set)
		if !ok || r.Arity != arity || !slices.Equal(r.IDs, slices.Concat(rows...)) {
			t.Fatalf("relation %s: rows %v of arity %d, want %v of arity %d\ninput: %q", name, r.IDs, r.Arity, rows, arity, src)
		}
		if back := storage.MaterializeRows(in, r.Arity, r.IDs, 2); !value.Equal(back, set) {
			t.Fatalf("relation %s: rows materialize to %v, want %v\ninput: %q", name, back, set, src)
		}
	}
}
