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

// Collect implements Collector: it writes e as one line.
func (j *JSONL) Collect(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Encoding errors are deliberately dropped: a broken trace sink must
	// never fail the computation it observes.
	_ = j.enc.Encode(event{Kind: e.kind(), MS: float64(time.Since(j.start).Microseconds()) / 1000, Data: e})
}
