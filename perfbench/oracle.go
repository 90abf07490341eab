package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// oracle checks the lock service's promises from the outside, on every
// cycle of every run: at most one holder per lock at a time, and
// strictly increasing fencing tokens per lock across all clients.
type oracle struct {
	guards []atomic.Int32
	tokens []atomic.Uint64

	violations atomic.Int64
	mu         sync.Mutex
	first      []string // the first few violation messages
}

func newOracle(locks int) *oracle {
	return &oracle{guards: make([]atomic.Int32, locks), tokens: make([]atomic.Uint64, locks)}
}

func (o *oracle) fail(format string, args ...any) {
	if o.violations.Add(1) > 5 {
		return
	}
	o.mu.Lock()
	o.first = append(o.first, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

// grant marks lock held on a grant. A guard already set means two
// holders overlap.
func (o *oracle) grant(lock int) {
	if !o.guards[lock].CompareAndSwap(0, 1) {
		o.fail("mutual exclusion: lock %d granted while already held", lock)
	}
}

// fence checks a grant's fencing token against the last one seen for
// the lock. Called between grant and release, so grants of one lock
// reach it in grant order.
func (o *oracle) fence(lock int, token uint64) {
	if last := o.tokens[lock].Swap(token); token <= last {
		o.fail("fencing: lock %d granted token %d after token %d", lock, token, last)
	}
}

// release clears the guard before the release is sent.
func (o *oracle) release(lock int) {
	if !o.guards[lock].CompareAndSwap(1, 0) {
		o.fail("mutual exclusion: lock %d released while not held", lock)
	}
}

// report returns the violation count and the first messages.
func (o *oracle) report() (int64, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.violations.Load(), append([]string(nil), o.first...)
}
