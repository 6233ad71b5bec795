package main

import (
	"bufio"
	"encoding/json"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the
// run ends and are then written out as JSON lines.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for the session root
	Session string `json:"session"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer records the spans of one session: a root span covering the
// session and one child span per layer call. A nil tracer records
// nothing, so the same session code runs traced and untraced.
type tracer struct {
	session string
	t0      time.Time
	spans   []span
}

const rootSpan = 1

func newTracer(session string) *tracer {
	t := &tracer{session: session, t0: time.Now()}
	t.spans = append(t.spans, span{ID: rootSpan, Session: session, Layer: "session", Name: session})
	return t
}

// begin opens a span under the root and returns its handle.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: rootSpan, Session: t.session, Layer: layer, Name: name,
		StartNs: int64(time.Since(t.t0)),
	})
	return id
}

// end closes a span and returns its duration (0 when untraced).
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return s.dur()
}

// finish closes the root span.
func (t *tracer) finish() time.Duration { return t.end(rootSpan) }

// covered is the time the root's children span. They never overlap:
// the session calls one layer at a time.
func (t *tracer) covered() time.Duration {
	var d time.Duration
	for _, s := range t.spans[1:] {
		d += s.dur()
	}
	return d
}

// write emits every span as one JSON line.
func (t *tracer) write(w *bufio.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}
