// Package causal provides causal observability for configurable locks:
// spans covering the acquisition lifecycle (register → wait → acquire →
// hold → release) with trace/span IDs that propagate across the lockd
// wire, a wait-for graph with cycle detection for deadlock suspicion, a
// fixed-size per-lock flight recorder, and critical-path analysis over
// recorded spans.
//
// The package sits below the telemetry layer: telemetry, lockd,
// lockclient, and scenario all import causal; causal imports only sim
// and trace. core.Lock hooks in through its own CausalObserver
// interface (structural typing — SimTracker satisfies it without causal
// importing core).
package causal

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end acquisition story; it is carried
// across the lockd wire so client backoff, server queue wait, and hold
// land in a single trace.
type TraceID uint64

// SpanID identifies one span within a trace. Parent links may cross
// process boundaries (a server span parented on a client span).
type SpanID uint64

func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }
func (s SpanID) String() string  { return fmt.Sprintf("%016x", uint64(s)) }

// ParseTraceID decodes the hex form produced by TraceID.String. Empty
// input or garbage yields 0 (no trace) — wire fields are optional.
func ParseTraceID(s string) TraceID {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return TraceID(v)
}

// ParseSpanID decodes the hex form produced by SpanID.String.
func ParseSpanID(s string) SpanID {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return SpanID(v)
}

// ID generation: a process-unique seed XOR a bit-mixed counter. The
// golden-ratio multiply spreads consecutive counter values across the
// word so IDs from two processes (different seeds) virtually never
// collide, while SetIDSeed(fixed) makes tests deterministic.
var (
	idSeed atomic.Uint64
	idCtr  atomic.Uint64
)

func init() {
	// Seed from wall time and pid; tests override via SetIDSeed.
	idSeed.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<48)
}

// SetIDSeed fixes the ID-generation seed and resets the counter so a
// test run produces a reproducible ID sequence.
func SetIDSeed(seed uint64) {
	idSeed.Store(seed)
	idCtr.Store(0)
}

func newID() uint64 {
	for {
		id := idSeed.Load() ^ (idCtr.Add(1) * 0x9e3779b97f4a7c15)
		if id != 0 {
			return id
		}
	}
}

// NewTraceID allocates a fresh trace identifier.
func NewTraceID() TraceID { return TraceID(newID()) }

// NewSpanID allocates a fresh span identifier.
func NewSpanID() SpanID { return SpanID(newID()) }

// Span is one step of an acquisition lifecycle. StartNs/EndNs are
// nanoseconds in whatever clock domain the emitting tracker uses — unix
// time for native/lockd spans, simulated time for sim spans; a Recorder
// should hold one domain only.
type Span struct {
	Trace  TraceID           `json:"trace"`
	ID     SpanID            `json:"id"`
	Parent SpanID            `json:"parent,omitempty"`
	Name   string            `json:"name"`             // register|wait|queue-wait|acquire|hold|backoff|...
	Actor  string            `json:"actor,omitempty"`  // thread / client / session doing the step
	Object string            `json:"object,omitempty"` // lock name
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Dur returns the span length in nanoseconds (never negative).
func (s Span) Dur() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Recorder is a fixed-size ring of completed spans. Always-on by
// design: recording is a mutex-guarded copy into a preallocated ring,
// and overflow overwrites the oldest span (counted in Dropped).
type Recorder struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
	dropped int64
}

// NewRecorder returns a recorder keeping the most recent capacity spans
// (minimum 16).
func NewRecorder(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// Default is the process-wide recorder used when a component is not
// given an explicit one (lockd, lockclient).
var Default = NewRecorder(8192)

// Record stores a completed span. Safe on a nil receiver.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Spans returns the retained spans in insertion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]Span, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len reports how many spans are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many spans were overwritten by ring overflow.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all retained spans.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.next, r.wrapped, r.dropped = 0, false, 0
	r.mu.Unlock()
}

// ByTrace groups spans by trace ID, each group sorted by start time.
func ByTrace(spans []Span) map[TraceID][]Span {
	out := make(map[TraceID][]Span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	for _, g := range out {
		sort.Slice(g, func(i, j int) bool { return g[i].Start < g[j].Start })
	}
	return out
}
