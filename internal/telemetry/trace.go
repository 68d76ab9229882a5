package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans and counter samples as Chrome-trace events, one JSON
// object per line (JSONL). Each event follows the Trace Event Format
// (ph "X" complete events for spans, ph "C" counter events for sampled
// series), so the file loads in chrome://tracing and Perfetto and is trivial
// to post-process line by line.
//
// A nil *Tracer is valid and records nothing; every method on it (and on the
// nil *Span) is an allocation-free no-op. That nil is the whole
// disabled-path story: hot code holds a possibly-nil tracer and calls it
// unconditionally.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closed bool // under mu; set by Close, makes write drop events
	epoch  time.Time

	nextTID  atomic.Uint64
	nextSpan atomic.Uint64
	events   atomic.Uint64
	dropped  atomic.Uint64
}

// traceEvent is one Chrome Trace Event Format record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since the tracer epoch
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns a tracer writing JSONL trace events to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriter(w), epoch: time.Now()}
}

// Span is one timed, named region of work. Spans on the same trace thread
// (tid) nest by time containment, which is how Chrome renders parent/child
// relationships; Child therefore reuses the parent's tid while StartSpan
// claims a fresh one. Span ids and the parent id are recorded in args so the
// hierarchy is machine-readable even without the timing containment.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	tid    uint64
	name   string
	cat    string
	start  time.Time
	mu     sync.Mutex
	args   map[string]any
}

// StartSpan opens a top-level span on a fresh trace thread. Returns nil on a
// nil tracer.
func (t *Tracer) StartSpan(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:    t,
		id:    t.nextSpan.Add(1),
		tid:   t.nextTID.Add(1),
		name:  name,
		cat:   cat,
		start: time.Now(),
	}
}

// Child opens a sub-span on the parent's trace thread. Returns nil on a nil
// span.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		id:     s.tr.nextSpan.Add(1),
		parent: s.id,
		tid:    s.tid,
		name:   name,
		cat:    cat,
		start:  time.Now(),
	}
}

// Arg attaches one key/value annotation to the span (cache hit, retry count,
// fault kind, ...). No-op on a nil span.
func (s *Span) Arg(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End emits the span as a complete ("X") trace event. No-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	args := s.args
	s.mu.Unlock()
	if args == nil {
		args = map[string]any{}
	}
	args["span"] = s.id
	if s.parent != 0 {
		args["parent"] = s.parent
	}
	s.tr.write(traceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   float64(s.start.Sub(s.tr.epoch)) / float64(time.Microsecond),
		Dur:  float64(now.Sub(s.start)) / float64(time.Microsecond),
		PID:  1,
		TID:  s.tid,
		Args: args,
	})
}

// TID returns the span's trace-thread id (for Counter samples that should
// render alongside the span). Zero on a nil span.
func (s *Span) TID() uint64 {
	if s == nil {
		return 0
	}
	return s.tid
}

// Counter emits a ph "C" counter sample: one named multi-series data point
// at the current time on the given trace thread. Chrome renders successive
// samples of the same name as a stacked area chart, which is how the
// per-component miss/cycle attribution over time windows is visualized.
// No-op on a nil tracer.
func (t *Tracer) Counter(tid uint64, name string, series map[string]float64) {
	if t == nil {
		return
	}
	args := make(map[string]any, len(series))
	for k, v := range series {
		args[k] = v
	}
	t.write(traceEvent{
		Name: name,
		Ph:   "C",
		TS:   float64(time.Since(t.epoch)) / float64(time.Microsecond),
		PID:  1,
		TID:  tid,
		Args: args,
	})
}

// Events returns the number of trace events written so far.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// Dropped returns the number of events discarded because they arrived
// after Close.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

func (t *Tracer) write(ev traceEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.w.Write(data)
	t.w.WriteByte('\n')
	t.mu.Unlock()
	t.events.Add(1)
}

// Flush drains buffered events to the underlying writer. After Close it is
// a no-op.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	return t.w.Flush()
}

// Close flushes buffered events and marks the tracer closed: any event
// arriving afterwards — a span ended by a cell that outlived its run, a
// stray counter sample — is counted in Dropped and discarded instead of
// being written through a buffer whose file the owner is about to (or
// already did) close. Close is idempotent and safe on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.w.Flush()
}
