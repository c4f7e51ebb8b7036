package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// The traced run records spans around the benchmark's own calls into each
// layer's public functions: no tracing sits inside the program. Spans stay
// in memory, one buffer per track so clients never share one, and are
// written once at the end as Chrome trace-event JSON.

// span is one timed call.
type span struct {
	ID, Parent, Op int64 // Parent 0 marks a root; spans of one operation share Op
	Track          int   // 0..clients-1 for the clients, clients for set-up and probes
	Layer, Name    string
	Start, End     time.Duration // since the tracer started
}

// tracer collects spans; a nil *tracer records nothing.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	tracks [][]span
}

func newTracer(tracks int) *tracer {
	return &tracer{t0: time.Now(), tracks: make([][]span, tracks)}
}

// active is an open span; end closes it.
type active struct {
	t     *tracer
	s     span
	track int
}

// begin opens a span on track, under parent (0 for a root) and operation op.
func (t *tracer) begin(track int, op, parent int64, layer, name string) active {
	if t == nil {
		return active{}
	}
	return active{t: t, track: track, s: span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Track: track,
		Layer: layer, Name: name, Start: time.Since(t.t0),
	}}
}

// id is the span's identifier, to parent child spans on.
func (a active) id() int64 { return a.s.ID }

// end closes the span and keeps it.
func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = time.Since(a.t.t0)
	a.t.tracks[a.track] = append(a.t.tracks[a.track], a.s)
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// spans returns every recorded span.
func (t *tracer) spans() []span {
	var all []span
	for _, tr := range t.tracks {
		all = append(all, tr...)
	}
	return all
}

// selfTimes returns each layer's self time — its spans' durations minus the
// parts their child spans cover — and the total duration of root spans.
func selfTimes(spans []span) (self map[string]time.Duration, rootTotal time.Duration) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			rootTotal += s.End - s.Start
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self, rootTotal
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes spans as Chrome trace-event JSON to path.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: s.Track,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
