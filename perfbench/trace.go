package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for an operation's root) and Req the id of the
// operation the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span; pass the result to close.
func (t *tracer) open(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
}

// close ends and records a span started by open.
func (t *tracer) close(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nextReq returns a fresh request id (0 when untraced).
func (t *tracer) nextReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
