package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// job share Run; Parent is the span that caused it (0 for a root).
// N > 1 marks consecutive same-layer events folded into one span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. Times are
// nanoseconds since the log was created. It is safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// since converts a wall time to the log's clock.
func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

// add records a finished span and returns its ID. A nil log records
// nothing, so untraced passes share the traced code path.
func (l *spanLog) add(run, name string, parent int, start, end time.Time, n int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: l.since(start), End: l.since(end), N: n})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(run, name string, parent int, start time.Time) int {
	return l.add(run, name, parent, start, start, 1)
}

func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = l.since(end)
}

// extend grows span id to end at end and counts one more folded event.
func (l *spanLog) extend(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = l.since(end)
	l.spans[id-1].N++
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
