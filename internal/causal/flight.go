package causal

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightEvent is one entry in a lock's flight-recorder ring. AtNs is
// nanoseconds in the recording clock domain (unix ns for native/lockd,
// simulated ns for sim locks).
type FlightEvent struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"` // wait|acquire|release|timeout|abort|owner-dead|reconfig|...
	Actor  string `json:"actor,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Flight is an always-on flight recorder: a fixed-size ring of recent
// events per lock. Recording is one short mutex hold and never
// allocates after a lock's ring exists, so it is cheap enough to leave
// enabled; dump it from /debug/flightrec or SIGQUIT on cmd/lockd.
type Flight struct {
	perLock int
	mu      sync.Mutex
	rings   map[string]*flightRing
}

type flightRing struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    int
	wrapped bool
	total   int64
}

// NewFlight returns a recorder keeping the most recent perLock events
// for each lock (minimum 16).
func NewFlight(perLock int) *Flight {
	if perLock < 16 {
		perLock = 16
	}
	return &Flight{perLock: perLock, rings: make(map[string]*flightRing)}
}

// DefaultFlight is the process-wide flight recorder.
var DefaultFlight = NewFlight(256)

func (f *Flight) ring(lock string) *flightRing {
	f.mu.Lock()
	r := f.rings[lock]
	if r == nil {
		r = &flightRing{buf: make([]FlightEvent, f.perLock)}
		f.rings[lock] = r
	}
	f.mu.Unlock()
	return r
}

// Record appends an event stamped with the current wall clock. Nil-safe.
func (f *Flight) Record(lock, kind, actor, detail string) {
	if f == nil {
		return
	}
	f.RecordAt(time.Now().UnixNano(), lock, kind, actor, detail)
}

// RecordAt appends an event with an explicit timestamp (simulated
// clocks use this). Nil-safe.
func (f *Flight) RecordAt(atNs int64, lock, kind, actor, detail string) {
	if f == nil || lock == "" {
		return
	}
	r := f.ring(lock)
	r.mu.Lock()
	r.buf[r.next] = FlightEvent{AtNs: atNs, Kind: kind, Actor: actor, Detail: detail}
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Locks lists the locks with recorded events, sorted.
func (f *Flight) Locks() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]string, 0, len(f.rings))
	for name := range f.rings {
		out = append(out, name)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// Events returns a lock's retained events, oldest first.
func (f *Flight) Events(lock string) []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	r := f.rings[lock]
	f.mu.Unlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]FlightEvent, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]FlightEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total reports how many events a lock has recorded over its lifetime
// (including ones the ring has since overwritten).
func (f *Flight) Total(lock string) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	r := f.rings[lock]
	f.mu.Unlock()
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset drops all rings.
func (f *Flight) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.rings = make(map[string]*flightRing)
	f.mu.Unlock()
}

// Dump writes a human-readable dump of every ring, the shape printed on
// SIGQUIT by cmd/lockd.
func (f *Flight) Dump(w io.Writer) error {
	if f == nil {
		_, err := fmt.Fprintln(w, "flight recorder: disabled")
		return err
	}
	locks := f.Locks()
	if len(locks) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no events")
		return err
	}
	for _, lock := range locks {
		evs := f.Events(lock)
		if _, err := fmt.Fprintf(w, "lock %q: %d recent events (%d total)\n", lock, len(evs), f.Total(lock)); err != nil {
			return err
		}
		for _, e := range evs {
			if _, err := fmt.Fprintf(w, "  %16d %-9s %-16s %s\n", e.AtNs, e.Kind, e.Actor, e.Detail); err != nil {
				return err
			}
		}
	}
	return nil
}
