package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`    // the pass this span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory; write emits them once the
// run ends. A nil *tracer is the untraced mode: every method is a
// no-op, so the workloads carry one code path.
type tracer struct {
	origin time.Time
	run    int
	stack  []int
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// beginRun starts a new pass; spans opened after it carry its id.
func (t *tracer) beginRun() {
	if t == nil {
		return
	}
	t.run++
	t.stack = t.stack[:0]
}

// begin opens a span nested in the innermost open one. Spans open and
// close on the pass's goroutine only.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// spanSeconds sums the durations of the named spans.
func (t *tracer) spanSeconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans and counts as JSON at path.
func (t *tracer) write(path string) error {
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := make([]map[string]any, 0, len(names))
	for _, n := range names {
		counts = append(counts, map[string]any{"name": n, "value": t.counts[n]})
	}
	data, err := json.Marshal(map[string]any{"runs": t.run, "spans": t.spans, "counts": counts})
	if err != nil {
		return fmt.Errorf("trace: encoding: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
