package obsv

import (
	"maps"
	"sort"
	"sync"
)

// Stats is a Collector that folds every event into named counters. It is
// safe for concurrent use. Counter names are dotted paths; the fixed
// vocabulary is documented on Snapshot.
type Stats struct {
	mu sync.Mutex
	c  map[string]int64
}

// NewStats returns an empty counter collector.
func NewStats() *Stats { return &Stats{c: map[string]int64{}} }

func (s *Stats) add(kvs ...any) {
	s.mu.Lock()
	for i := 0; i+1 < len(kvs); i += 2 {
		s.c[kvs[i].(string)] += kvs[i+1].(int64)
	}
	s.mu.Unlock()
}

// Collect implements Collector: it folds e into the counters named on
// Snapshot.
func (s *Stats) Collect(e Event) {
	switch v := e.(type) {
	case FixpointStats:
		p := "fixpoint." + v.Semantics
		s.add(
			p+".calls", int64(1),
			p+".passes", int64(v.Passes),
			p+".derived", int64(v.Derived),
			p+".deltaAtoms", sum(v.Deltas),
		)
	case IFPStats:
		p := "ifp." + v.Mode
		s.add(
			p+".calls", int64(1),
			p+".rounds", int64(v.Rounds),
			p+".deltaElems", sum(v.Deltas),
		)
	case CoreEvalStats:
		p := "core." + v.Semantics
		s.add(
			p+".calls", int64(1),
			p+".rounds", int64(v.Rounds),
			p+".evals", int64(v.Evals),
		)
	case StableSearchStats:
		s.add(
			"stable.searches", int64(1),
			"stable.candidates", int64(v.Candidates),
			"stable.models", int64(v.Models),
		)
	case GroundStats:
		s.add(
			"ground.calls", int64(1),
			"ground.atoms", int64(v.Atoms),
			"ground.rules", int64(v.Rules),
			"ground.passes", int64(v.Passes),
		)
	case TranslateStats:
		p := "translate." + v.Op
		s.add(
			p+".calls", int64(1),
			p+".inSize", int64(v.InSize),
			p+".outSize", int64(v.OutSize),
		)
	case ExperimentStats:
		s.add(
			"expt.runs", int64(1),
			"expt.wallNS", v.WallNS,
			"expt.cpuNS", v.CPUNS,
		)
	case ServerStats:
		kvs := []any{
			"server." + v.Route + ".requests", int64(1),
			"server.wallNS", v.WallNS,
		}
		if v.Code != "" {
			kvs = append(kvs, "server.errors."+v.Code, int64(1))
		}
		if v.CacheLookup {
			if v.CacheHit {
				kvs = append(kvs, "server.cache.hits", int64(1))
			} else {
				kvs = append(kvs, "server.cache.misses", int64(1))
			}
			if v.Compiled {
				kvs = append(kvs, "server.compiles", int64(1))
			}
		}
		s.add(kvs...)
	case SubscriptionStats:
		s.add(
			"server.subscriptions", int64(1),
			"server.subscription.events", int64(v.Events),
			"server.subscription.coalesced", int64(v.Coalesced),
			"server.subscription.ends."+v.Reason, int64(1),
			"server.subscription.wallNS", v.WallNS,
		)
	case StreamStats:
		s.add(
			"stream.pipelines", int64(1),
			"stream.scanned", int64(v.Scanned),
			"stream.probes", int64(v.Probes),
			"stream.tested", int64(v.Tested),
			"stream.emitted", int64(v.Emitted),
			"stream.hashJoins", int64(v.HashJoins),
			"stream.pushed", int64(v.Pushed),
		)
	case IVMStats:
		kvs := []any{
			"ivm.applies." + v.Mode, int64(1),
			"ivm.steps", int64(v.Steps),
			"ivm.probes", int64(v.Probes),
			"ivm.scans", int64(v.Scans),
			"ivm.deltaFacts", int64(v.DeltaFacts),
		}
		if v.Rebuilt {
			kvs = append(kvs, "ivm.fallbacks", int64(1))
		}
		for _, u := range v.Units {
			kvs = append(kvs,
				"ivm.units."+u.Strategy, int64(1),
				"ivm.overDeleted", int64(u.OverDeleted),
				"ivm.rederived", int64(u.Rederived),
			)
		}
		s.add(kvs...)
	case RelStats:
		kvs := []any{
			"rel.evals." + v.Engine, int64(1),
			"rel.base.rows", int64(v.BaseRows),
			"rel.base.indexes", int64(v.BaseIndexes),
			"rel.base.keys", int64(v.BaseKeys),
			"rel.steps", int64(v.Steps),
			"rel.probes", int64(v.Probes),
			"rel.scans", int64(v.Scans),
			"rel.rows", int64(v.Rows),
		}
		if v.Fallback != "" {
			kvs = append(kvs, "rel.fallbacks."+v.Fallback, int64(1))
		}
		if v.BaseHit {
			kvs = append(kvs, "rel.base.hits", int64(1))
		} else {
			kvs = append(kvs, "rel.base.misses", int64(1))
		}
		for _, u := range v.Units {
			kind := "rel.units.nonrecursive"
			if u.Recursive {
				kind = "rel.units.recursive"
			}
			kvs = append(kvs, kind, int64(1))
			if u.Alternations > 0 {
				kvs = append(kvs, "rel.units.alternating", int64(1), "rel.alternations", int64(u.Alternations), "rel.flips", int64(u.Flips))
			}
		}
		s.add(kvs...)
	case DiffStats:
		s.add(
			"diff.evals", int64(1),
			"diff.paths."+v.Path, int64(1),
			"diff.probed", int64(v.Probed),
			"diff.lookups", int64(v.Lookups),
			"diff.kept", int64(v.Kept),
			"diff.leaves", int64(v.Leaves),
		)
	case AlgebraStats:
		kvs := []any{"algebra.engine." + v.Engine, int64(1)}
		if v.Fallback != "" {
			kvs = append(kvs, "algebra.fallback."+v.Fallback, int64(1))
		}
		if v.BaseRows > 0 {
			kvs = append(kvs, "rel.base.rows", int64(v.BaseRows))
		}
		s.add(kvs...)
	}
}

// sum totals a per-pass delta list.
func sum(ds []int) int64 {
	var n int64
	for _, d := range ds {
		n += int64(d)
	}
	return n
}

// Snapshot is an immutable copy of a Stats collector's counters. The
// counter vocabulary:
//
//	fixpoint.<semantics>.calls|passes|derived|deltaAtoms
//	ifp.<mode>.calls|rounds|deltaElems
//	core.<semantics>.calls|rounds|evals
//	stable.searches|candidates|models
//	ground.calls|atoms|rules|passes
//	translate.<op>.calls|inSize|outSize
//	expt.runs|wallNS|cpuNS
//	server.<route>.requests, server.wallNS, server.errors.<code>,
//	server.cache.hits|misses, server.compiles
//	server.subscriptions, server.subscription.events|coalesced|wallNS,
//	server.subscription.ends.<reason>
//	stream.pipelines|scanned|probes|tested|emitted|hashJoins|pushed
//	ivm.applies.<mode>, ivm.steps|probes|scans|deltaFacts,
//	ivm.fallbacks, ivm.units.<strategy>, ivm.overDeleted|rederived
//	rel.evals.<engine>, rel.fallbacks.<reason>, rel.base.hits|misses,
//	rel.base.rows|indexes|keys, rel.steps|probes|scans|rows,
//	rel.units.recursive|nonrecursive|alternating, rel.alternations|flips
//	diff.evals, diff.paths.<path>, diff.probed|lookups|kept|leaves
//	algebra.engine.<engine>, algebra.fallback.<reason>
type Snapshot map[string]int64

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(map[string]int64(s.c))
}

// Sub returns a − b per counter, dropping zero results: the events recorded
// between two snapshots of the same collector.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	out := Snapshot{}
	for k, v := range a {
		if d := v - b[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Keys returns the counter names in sorted order, for deterministic
// rendering.
func (a Snapshot) Keys() []string {
	out := make([]string, 0, len(a))
	for k := range a {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
