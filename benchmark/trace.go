package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a module's public function, made from
// the benchmark's own files. Spans of one replayed request share op.
// parent is the index of the span of the enclosing layer, -1 for the
// outermost call. The program has no spans of its own yet, so a child
// is not a sub-interval of its parent: it is the same request executed
// again one layer further down, from the same cache and buffer state.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`  // "<layer>.<function>"
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: the name up to the last dot
// before the function ("irs.codec.Encode" → "irs.codec").
func (s span) layer() string {
	if i := strings.LastIndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn and records it as a span under parent. It returns the
// span's index and the duration.
func (t *tracer) call(op int, name string, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{Op: op, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
	return len(t.spans) - 1, end.Sub(start)
}

// selfTimes returns each span's duration minus the durations of its
// children. A child is a separate execution and may by noise outlast
// its parent, so a single self time can be negative; clamp after
// taking a median or a sum, not before (the noise then cancels instead
// of piling up on the positive side).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
