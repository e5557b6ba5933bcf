package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary, recorded from the
// benchmark's own code around the program's public functions. The layer is
// the name's prefix up to the first dot ("delay.norm" is in layer delay).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request (or job) id shared by related spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s Span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pass nil and pay one branch.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span id, so a parent can be named before it ends.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span under a reserved id (0 reserves one).
func (t *Tracer) Record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// LayerSelf attributes the wall time covered by the given spans to layers:
// each instant goes to the layer of the deepest span open at that instant,
// split evenly when several deepest spans of different layers overlap. A
// span's self time is therefore its duration minus what its children
// cover, and concurrent same-layer spans (two scan workers stepping rounds)
// are not counted twice — the self times of all layers sum to the covered
// wall time exactly.
func LayerSelf(spans []Span) (self map[string]time.Duration, wall time.Duration) {
	byID := make(map[int64]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	depth := make(map[int64]int, len(spans))
	var depthOf func(id int64) int
	depthOf = func(id int64) int {
		if d, ok := depth[id]; ok {
			return d
		}
		s := byID[id]
		d := 0
		if s != nil && s.Parent != 0 && byID[s.Parent] != nil {
			d = depthOf(s.Parent) + 1
		}
		depth[id] = d
		return d
	}
	type event struct {
		at    int64
		open  bool
		index int
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		depthOf(s.ID)
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].open && events[j].open // close before open
	})
	self = map[string]time.Duration{}
	open := map[int]bool{}
	var last int64
	for _, e := range events {
		if len(open) > 0 && e.at > last {
			attribute(self, spans, depth, open, time.Duration(e.at-last))
			wall += time.Duration(e.at - last)
		}
		last = e.at
		if e.open {
			open[e.index] = true
		} else {
			delete(open, e.index)
		}
	}
	return self, wall
}

// attribute splits d across the layers of the deepest open spans.
func attribute(self map[string]time.Duration, spans []Span, depth map[int64]int, open map[int]bool, d time.Duration) {
	best := -1
	layers := map[string]bool{}
	for i := range open {
		dd := depth[spans[i].ID]
		switch {
		case dd > best:
			best = dd
			clear(layers)
			layers[spans[i].layer()] = true
		case dd == best:
			layers[spans[i].layer()] = true
		}
	}
	share := d / time.Duration(len(layers))
	for l := range layers {
		self[l] += share
	}
}

// SumByName totals span durations per span name.
func SumByName(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}
