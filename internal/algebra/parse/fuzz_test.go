package parse

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseScript checks that the script parser never panics, that the
// printed form of an accepted program re-parses to the same printed form, and
// that each relation's set, printed as a rel statement, re-parses to a set
// that prints the same.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		script, err := ParseScript(src)
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
