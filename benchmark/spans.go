package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the ID of the span whose interval this one accounts for
// (0 for a request's outermost rung). Start and End are nanoseconds since
// the trace began. Rungs are replayed one after another, so a child does
// not lie inside its parent in time — Parent records attribution only.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f as a span and returns the span's ID and duration.
func (tr *tracer) time(req, parent int, name string, f func()) (id int, d time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	id = len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()})
	return id, end.Sub(start)
}

// write stores the spans as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a parent's time less its children's. Because the rungs are
// replayed separately the difference of two measurements can come out
// negative; it is then reported as 0 and flagged.
func selfTime(parent float64, children ...float64) (self float64, clamped bool) {
	self = parent
	for _, c := range children {
		self -= c
	}
	if self < 0 {
		return 0, true
	}
	return self, false
}
