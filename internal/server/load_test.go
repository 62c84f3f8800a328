package server

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkLoadDBScript times what a PUT of a database script costs before
// registration: parsing a script of 10^5 distinct random integer pairs over
// 5·10^4 nodes, the shape of the bulk workload's load, into its database.
func BenchmarkLoadDBScript(b *testing.B) {
	const nodes, pairs = 50_000, 100_000
	r := rand.New(rand.NewSource(1))
	seen := make(map[[2]int]bool, pairs)
	var sb strings.Builder
	sb.WriteString("rel e = {")
	for len(seen) < pairs {
		p := [2]int{r.Intn(nodes), r.Intn(nodes)}
		if seen[p] {
			continue
		}
		if len(seen) > 0 {
			sb.WriteString(", ")
		}
		seen[p] = true
		sb.WriteString("(" + strconv.Itoa(p[0]) + ", " + strconv.Itoa(p[1]) + ")")
	}
	sb.WriteString("};\n")
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := LoadDBScript(src)
		if err != nil {
			b.Fatal(err)
		}
		if n := db["e"].Len(); n != pairs {
			b.Fatalf("loaded %d pairs, want %d", n, pairs)
		}
	}
}
