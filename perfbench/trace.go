package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one cell or
// job share req; parent is the index+1 of the enclosing span (0: none).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     string `json:"req"`
}

// tracer keeps spans in memory; write saves them at the end of the run. A
// nil *tracer records nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its handle (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: now, Parent: parent, Req: req})
	return len(t.spans)
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	t.spans[h-1].EndNS = int64(time.Since(t.t0))
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.EndNS-s.StartNS))
		}
	}
	return ds
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
