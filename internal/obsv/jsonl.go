package obsv

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// JSONL is a Collector that streams every event as one JSON object per line
// (JSON Lines), for offline analysis of a run (cmd/bench -trace). Each line
// carries the event kind, milliseconds since the collector was created, and
// the event's fields. Writes are serialized by a mutex, so one JSONL may be
// shared by concurrent reporters.
type JSONL struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
}

// NewJSONL returns a collector streaming events to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w), start: time.Now()}
}

// event is the wire form of one JSONL line.
type event struct {
	Kind string  `json:"event"`
	MS   float64 `json:"ms"` // milliseconds since the trace started
	Data any     `json:"data"`
}

func (j *JSONL) emit(kind string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Encoding errors are deliberately dropped: a broken trace sink must
	// never fail the computation it observes.
	_ = j.enc.Encode(event{Kind: kind, MS: float64(time.Since(j.start).Microseconds()) / 1000, Data: data})
}

// Fixpoint implements Collector.
func (j *JSONL) Fixpoint(s FixpointStats) { j.emit("fixpoint", s) }

// IFP implements Collector.
func (j *JSONL) IFP(s IFPStats) { j.emit("ifp", s) }

// CoreEval implements Collector.
func (j *JSONL) CoreEval(s CoreEvalStats) { j.emit("core_eval", s) }

// StableSearch implements Collector.
func (j *JSONL) StableSearch(s StableSearchStats) { j.emit("stable_search", s) }

// Ground implements Collector.
func (j *JSONL) Ground(s GroundStats) { j.emit("ground", s) }

// Translate implements Collector.
func (j *JSONL) Translate(s TranslateStats) { j.emit("translate", s) }

// Experiment implements Collector.
func (j *JSONL) Experiment(s ExperimentStats) { j.emit("experiment", s) }

// Server implements Collector.
func (j *JSONL) Server(s ServerStats) { j.emit("server", s) }

// Subscription implements Collector.
func (j *JSONL) Subscription(s SubscriptionStats) { j.emit("subscription", s) }

// Stream implements Collector.
func (j *JSONL) Stream(s StreamStats) { j.emit("stream", s) }

// IVM implements Collector.
func (j *JSONL) IVM(s IVMStats) { j.emit("ivm", s) }

// Rel implements Collector.
func (j *JSONL) Rel(s RelStats) { j.emit("rel", s) }

// Diff implements Collector.
func (j *JSONL) Diff(s DiffStats) { j.emit("diff", s) }

// Algebra implements Collector.
func (j *JSONL) Algebra(s AlgebraStats) { j.emit("algebra", s) }
