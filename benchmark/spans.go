package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Spans of one operation share a TraceID of the
// form workload/session/sequence; Parent is the ID of the span that caused
// this one (0 for a root). A layer's self time is its span minus the part its
// children cover.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans caps memory: past it further spans are counted, not kept.
const maxSpans = 400_000

// spanLog keeps the traced pass's spans in memory until the pass ends.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	nextID  int64
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records one finished span and returns its ID. A nil log records
// nothing, so call sites need no guard.
func (s *spanLog) add(parent int64, traceID, name string, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if len(s.spans) >= maxSpans {
		s.dropped++
		return s.nextID
	}
	s.spans = append(s.spans, span{
		ID: s.nextID, Parent: parent, TraceID: traceID, Name: name,
		StartNS: start.Sub(s.origin).Nanoseconds(), EndNS: end.Sub(s.origin).Nanoseconds(),
	})
	return s.nextID
}

// writeTo writes the spans as JSON lines.
func (s *spanLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
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
