package expt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// Record is the machine-readable report of one full cmd/bench run: every
// experiment's result table plus the run cost and observability counters
// collected while it executed. It is the evidence EXPERIMENTS.md is
// generated from — cmd/bench -json writes one, the committed copy lives at
// internal/expt/recorded/run.json, and `go generate ./internal/expt`
// renders the generated section of EXPERIMENTS.md from it (deterministic:
// same record, same markdown).
type Record struct {
	Stamp      string           `json:"stamp"` // RFC 3339 run time
	Scale      int              `json:"scale"`
	GoMaxProcs int              `json:"gomaxprocs"`
	WallNS     int64            `json:"wall_ns"`            // overall run wall time
	CPUNS      int64            `json:"cpu_ns,omitempty"`   // overall process CPU time
	Counters   map[string]int64 `json:"counters,omitempty"` // whole-run observability counters
	Suites     []RecordSuite    `json:"suites"`
}

// RecordSuite is one experiment's slice of a Record.
type RecordSuite struct {
	ID         string           `json:"id"`
	Title      string           `json:"title"`
	OK         bool             `json:"ok"`
	WallNS     int64            `json:"wall_ns"`
	CPUNS      int64            `json:"cpu_ns,omitempty"`
	AllocBytes uint64           `json:"alloc_bytes,omitempty"`
	Mallocs    uint64           `json:"mallocs,omitempty"`
	Shards     int              `json:"shards,omitempty"`   // tasks the suite ran as: always 1
	Counters   map[string]int64 `json:"counters,omitempty"` // per-suite observability counters
	Header     []string         `json:"header"`
	Rows       [][]string       `json:"rows"`
	Notes      []string         `json:"notes,omitempty"`
}

// LoadRecord reads a Record from a JSON file written by cmd/bench -json.
func LoadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("expt: parsing record %s: %w", path, err)
	}
	return &rec, nil
}

// Markers delimiting the generated section of EXPERIMENTS.md. Everything
// between them is owned by RenderGenerated; prose outside survives
// regeneration.
const (
	beginMarker = "<!-- BEGIN GENERATED TABLES (go generate ./internal/expt — edits here are overwritten) -->"
	endMarker   = "<!-- END GENERATED TABLES -->"
)

// RenderGenerated renders the generated section of EXPERIMENTS.md from a
// record: the per-experiment result tables, the run-cost table, and the
// observability counter digest. The output is a pure function of the record,
// so regeneration from the committed record is deterministic and CI can
// check the committed EXPERIMENTS.md is fresh.
func RenderGenerated(rec *Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## Recorded run\n\n")
	fmt.Fprintf(&sb, "Recorded %s — scale %d, serial, GOMAXPROCS=%d, total wall %s",
		rec.Stamp, rec.Scale, rec.GoMaxProcs, formatDuration(time.Duration(rec.WallNS)))
	if rec.CPUNS > 0 {
		fmt.Fprintf(&sb, ", CPU %s", formatDuration(time.Duration(rec.CPUNS)))
	}
	sb.WriteString(".\n\n")
	for _, s := range rec.Suites {
		t := &Table{ID: s.ID, Title: s.Title, OK: s.OK, Header: s.Header, Rows: s.Rows, Notes: s.Notes}
		sb.WriteString(t.Markdown())
	}
	sb.WriteString(renderRunCost(rec))
	sb.WriteString(renderCounters(rec))
	return sb.String()
}

// renderRunCost renders the per-experiment cost table from the record.
func renderRunCost(rec *Record) string {
	var sb strings.Builder
	sb.WriteString("## Run cost per experiment\n\n")
	sb.WriteString("| ID | wall | cpu | allocated | mallocs | shards |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	for _, s := range rec.Suites {
		cpu, alloc, mallocs := "-", "-", "-"
		if s.CPUNS > 0 {
			cpu = formatDuration(time.Duration(s.CPUNS))
		}
		if s.AllocBytes > 0 {
			alloc = humanBytes(s.AllocBytes)
			mallocs = fmt.Sprint(s.Mallocs)
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %d |\n",
			s.ID, formatDuration(time.Duration(s.WallNS)), cpu, alloc, mallocs, s.Shards)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// counterColumns defines the counter digest table: column label → the
// counter-name predicate whose matching counters sum into the column.
var counterColumns = []struct {
	label string
	match func(name string) bool
}{
	{"fixpoints", func(n string) bool { return strings.HasPrefix(n, "fixpoint.") && strings.HasSuffix(n, ".calls") }},
	{"passes", func(n string) bool { return strings.HasPrefix(n, "fixpoint.") && strings.HasSuffix(n, ".passes") }},
	{"derived", func(n string) bool { return strings.HasPrefix(n, "fixpoint.") && strings.HasSuffix(n, ".derived") }},
	{"groundRules", func(n string) bool { return n == "ground.rules" }},
	{"stableCands", func(n string) bool { return n == "stable.candidates" }},
}

// renderCounters renders the observability digest: one row per experiment
// plus a totals row, and an appendix listing every whole-run counter.
// Omitted entirely when the record carries no counters.
func renderCounters(rec *Record) string {
	anySuite := false
	for _, s := range rec.Suites {
		if len(s.Counters) > 0 {
			anySuite = true
			break
		}
	}
	if !anySuite && len(rec.Counters) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Engine counters (observability)\n\n")
	sb.WriteString("Collected by the `internal/obsv` layer during the recorded run: fixpoint\ncalls/passes and atoms derived across all semantics, ground rules emitted,\nand stable-search candidates.\n\n")
	if anySuite {
		sb.WriteString("| ID |")
		for _, c := range counterColumns {
			sb.WriteString(" " + c.label + " |")
		}
		sb.WriteString("\n|---|")
		sb.WriteString(strings.Repeat("---|", len(counterColumns)))
		sb.WriteString("\n")
		writeRow := func(id string, counters map[string]int64) {
			fmt.Fprintf(&sb, "| %s |", id)
			for _, c := range counterColumns {
				var sum int64
				for name, v := range counters {
					if c.match(name) {
						sum += v
					}
				}
				fmt.Fprintf(&sb, " %d |", sum)
			}
			sb.WriteString("\n")
		}
		totals := map[string]int64{}
		for _, s := range rec.Suites {
			writeRow(s.ID, s.Counters)
			for k, v := range s.Counters {
				totals[k] += v
			}
		}
		writeRow("**total**", totals)
		sb.WriteByte('\n')
	}
	if len(rec.Counters) > 0 {
		sb.WriteString("<details><summary>All whole-run counters</summary>\n\n")
		sb.WriteString("| counter | value |\n|---|---|\n")
		keys := make([]string, 0, len(rec.Counters))
		for k := range rec.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "| %s | %d |\n", k, rec.Counters[k])
		}
		sb.WriteString("\n</details>\n\n")
	}
	return sb.String()
}

// SpliceGenerated replaces the marker-delimited generated section of an
// EXPERIMENTS.md document with generated content, preserving all prose
// outside the markers. It errors when the markers are missing or out of
// order — regeneration must never silently clobber hand-written prose.
func SpliceGenerated(doc string, generated string) (string, error) {
	lo := strings.Index(doc, beginMarker)
	hi := strings.Index(doc, endMarker)
	if lo < 0 || hi < 0 || hi < lo {
		return "", fmt.Errorf("expt: generated-section markers missing or malformed (want %q before %q)", beginMarker, endMarker)
	}
	var sb strings.Builder
	sb.WriteString(doc[:lo])
	sb.WriteString(beginMarker)
	sb.WriteString("\n\n")
	sb.WriteString(strings.TrimRight(generated, "\n"))
	sb.WriteString("\n\n")
	sb.WriteString(doc[hi:])
	return sb.String(), nil
}

// humanBytes formats a byte count with a binary-unit suffix.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
