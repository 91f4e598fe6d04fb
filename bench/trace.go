package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public functions (spans inside the program are a
// later change). Times are nanoseconds since the tracer started. Spans
// of one operation share Req; Parent is the span that caused this one
// (0 for a root). A Derived span was not clocked directly: its length
// is a busy time the layer reported itself (a signature store's
// Elapsed, a timed callback), divided by the worker count and laid at
// the start of its parent so that self times still add up.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the same replay code runs untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent, req int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// derived records a child of parent lasting d from parent's start.
func (t *tracer) derived(parent, req int, layer, name string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	end := p.Start + int64(d)
	if p.End >= 0 && end > p.End {
		end = p.End
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Name: name, Start: p.Start, End: end, Derived: true})
}

// selfTimes returns every span's self time, indexed by span id − 1:
// its duration minus the part of that interval its children cover.
// Children may overlap each other (two shards queried at once) and may
// stick out of the parent; the union of their intervals, clipped to
// the parent, is subtracted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByReq sums self times per "layer.name" key for every request,
// indexed by request id (ids are small and dense; an id no span
// carries gets an empty map).
func selfByReq(spans []span) []map[string]time.Duration {
	self := selfTimes(spans)
	var out []map[string]time.Duration
	for i, s := range spans {
		for len(out) <= s.Req {
			out = append(out, make(map[string]time.Duration))
		}
		out[s.Req][s.Layer+"."+s.Name] += self[i]
	}
	return out
}

// write stores the spans as JSON under dir, one file per workload.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
