package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around its own calls into the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the same log, -1 for a root
	Frame  uint32 `json:"frame"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per call site. Each
// goroutine owns its own log.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span now and returns its index.
func (l *spanLog) begin(name string, parent int32, frame uint32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.epoch).Nanoseconds(),
		Parent: parent, Frame: frame})
	return int32(len(l.spans) - 1)
}

// end closes span i now.
func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Since(l.epoch).Nanoseconds()
}

// add records an already-timed span.
func (l *spanLog) add(name string, start, end time.Time, parent int32, frame uint32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: start.Sub(l.epoch).Nanoseconds(),
		End: end.Sub(l.epoch).Nanoseconds(), Parent: parent, Frame: frame})
	return int32(len(l.spans) - 1)
}

// durations returns the durations of every span named name, in ns.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close spans: %w", err)
	}
	return nil
}
