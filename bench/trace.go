package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer's public function, recorded by
// benchmark code (the program itself is not instrumented here). Parent
// is the span of the layer that would have made the call inside the
// program; where the benchmark had to re-execute that inner call on its
// own (it cannot reach inside the handler), the child does not nest in
// time but still counts against the parent's self time.
type Span struct {
	ID     int    `json:"id"`               // 1-based
	Parent int    `json:"parent,omitempty"` // 0 for a root
	Op     int    `json:"op"`               // spans of one op share it; -1 for set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the replay ends. It is used from
// one goroutine. A nil *Tracer runs the timed functions without
// recording (the warm pass).
type Tracer struct {
	t0    time.Time
	Spans []Span
}

// NewTracer starts a trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID (0 when not recording).
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.Spans = append(t.Spans, Span{ID: len(t.Spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.Spans)
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t != nil {
		t.Spans[id-1].End = int64(time.Since(t.t0))
	}
}

// Time runs f inside a span and returns the span's ID.
func (t *Tracer) Time(name string, parent, op int, f func()) int {
	id := t.Begin(name, parent, op)
	f()
	t.End(id)
	return id
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes computes each span's self time: its duration minus the
// length of the interval its children cover (overlapping children are
// counted once), never below zero. The result is indexed by span ID.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, end int64
		for i, k := range kids {
			if i == 0 || k.Start > end {
				covered += k.End - k.Start
				end = k.End
			} else if k.End > end {
				covered += k.End - end
				end = k.End
			}
		}
		d := s.End - s.Start - covered
		if d < 0 {
			d = 0
		}
		self[s.ID] = time.Duration(d)
	}
	return self
}

// spanStats aggregates a finished trace by span name.
type spanStats struct {
	durUS  map[string][]float64 // durations, µs
	selfUS map[string][]float64 // self times, µs
}

func aggregate(spans []Span) spanStats {
	st := spanStats{durUS: map[string][]float64{}, selfUS: map[string][]float64{}}
	self := SelfTimes(spans)
	for _, s := range spans {
		st.durUS[s.Name] = append(st.durUS[s.Name], us(s.Dur()))
		st.selfUS[s.Name] = append(st.selfUS[s.Name], us(self[s.ID]))
	}
	return st
}

// medianOrZero is the median of xs, or 0 for a layer that made no call.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Median(xs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
