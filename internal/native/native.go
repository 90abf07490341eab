// Package native is a real-runtime implementation of the paper's
// configurable lock for Go programs: a mutex whose *waiting policy* (spin
// count, backoff, parking, timeout) and *release scheduler* (FIFO,
// priority, handoff) can be chosen at creation and changed dynamically
// while the lock is in use, with a built-in monitor and an optional
// feedback-driven adaptive controller.
//
// The simulated implementation in internal/core is the measurement
// instrument that reproduces the paper's numbers; this package is the
// downstream-usable artifact. The Go scheduler obscures microsecond-level
// behaviour (the reason the reproduction measures on a simulator), but the
// structure — registration, acquisition, release modules over mutable
// configuration attributes — carries over directly.
package native

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Policy is the wait component: how a thread is delayed while the lock is
// busy (the paper's spin-time / delay-time / sleep-time / timeout
// attributes, in Go-runtime terms).
type Policy struct {
	// Spin is the number of acquisition attempts made before parking.
	// Each attempt is separated by a scheduler yield (and Backoff, if
	// set). 0 parks immediately.
	Spin int
	// Backoff, when nonzero, sleeps between spin attempts, doubling up
	// to BackoffMax (Anderson's Ethernet-style backoff).
	Backoff    time.Duration
	BackoffMax time.Duration
	// NoPark, when true, never parks: pure spinning (the paper's pure
	// spin lock). Spin is then the attempts between backoff sleeps.
	NoPark bool
}

// Validate reports whether the policy is usable.
func (p Policy) Validate() error {
	if p.Spin < 0 {
		return errors.New("native: negative Spin")
	}
	if p.Backoff < 0 || p.BackoffMax < 0 {
		return errors.New("native: negative backoff")
	}
	if p.NoPark && p.Spin == 0 && p.Backoff == 0 {
		return errors.New("native: NoPark policy needs Spin or Backoff to avoid a hot loop")
	}
	return nil
}

// Common policies, mirroring the paper's lock spectrum.
var (
	// SpinPolicy busy-waits (with yields) and never parks.
	SpinPolicy = Policy{Spin: 64, NoPark: true}
	// BackoffPolicy spins with exponential backoff and never parks.
	BackoffPolicy = Policy{Spin: 8, Backoff: time.Microsecond, BackoffMax: 256 * time.Microsecond, NoPark: true}
	// BlockPolicy parks immediately (the pure sleep lock).
	BlockPolicy = Policy{Spin: 0}
	// CombinedPolicy spins briefly, then parks (the combined lock).
	CombinedPolicy = Policy{Spin: 32}
)

// Scheduler selects the release module's grant order.
type Scheduler int

// Schedulers.
const (
	// FIFO grants in registration order.
	FIFO Scheduler = iota
	// Priority grants the highest-priority registered waiter (FIFO among
	// equals), the paper's first priority-lock implementation.
	Priority
	// Threshold grants FIFO among waiters whose priority is at least the
	// lock's threshold (the paper's second implementation), falling back
	// to plain FIFO when no waiter qualifies.
	Threshold
	// Handoff grants the waiter named by UnlockTo, falling back to FIFO.
	Handoff
)

func (s Scheduler) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case Priority:
		return "priority"
	case Threshold:
		return "threshold"
	case Handoff:
		return "handoff"
	}
	return fmt.Sprintf("scheduler(%d)", int(s))
}

func (s Scheduler) valid() bool { return s >= FIFO && s <= Handoff }

// waiter is one registered thread (goroutine).
type waiter struct {
	ch      chan struct{} // grant signal, buffered(1)
	prio    int64
	tag     uint64 // caller-chosen identity for handoff targeting
	granted bool
}

// Stats is the monitor module's snapshot.
type Stats struct {
	Acquisitions int64
	Contended    int64
	Timeouts     int64
	Grants       int64
	Reconfigs    int64
	HoldNanos    int64 // total hold time
	WaitNanos    int64 // total contended wait time
	MaxWaiters   int64

	// Robustness counters (see robust.go).
	Cancellations int64 // acquisitions aborted by context cancellation
	OwnerDeaths   int64 // DeclareOwnerDead force-releases
	WatchdogTrips int64 // hold-deadline violations detected
	Stalls        int64 // waiters aborted with ErrOwnerStalled
}

// AvgHold returns the mean hold duration.
func (s Stats) AvgHold() time.Duration {
	if s.Acquisitions == 0 {
		return 0
	}
	return time.Duration(s.HoldNanos / s.Acquisitions)
}

// AvgWait returns the mean contended wait.
func (s Stats) AvgWait() time.Duration {
	if s.Contended == 0 {
		return 0
	}
	return time.Duration(s.WaitNanos / s.Contended)
}

// Mutex is the configurable lock. The zero value is NOT ready to use; call
// New.
type Mutex struct {
	guard spinGuard
	held  bool
	queue []*waiter

	policy    atomic.Pointer[Policy]
	sched     Scheduler
	pending   Scheduler
	hasPend   bool
	threshold atomic.Int64

	holdStart time.Time

	// Robustness state (see robust.go). tenure counts ownership changes
	// so a watchdog armed for one tenure never fires into the next;
	// diedPending carries an owner-death notification to the next
	// acquirer; stallCh is closed (broadcast) to abort parked waiters
	// when the watchdog trips with AbortWaiters set.
	tenure      uint64
	diedPending bool
	wdDeadline  time.Duration
	wdAbort     bool
	wdOnTrip    func(WatchdogEvent)
	stallCh     chan struct{}
	stallGen    atomic.Uint64
	inj         atomic.Value // injBox

	// Lifecycle event sink (see observe.go).
	esink atomic.Value // sinkBox

	// ownerTag is the handoff tag the current owner acquired under
	// (guard-protected); the release path reports it to the event sink so
	// consumers can attribute the ending tenure.
	ownerTag uint64

	// monitor counters (atomics: read without the guard)
	acquisitions  atomic.Int64
	contended     atomic.Int64
	timeouts      atomic.Int64
	grants        atomic.Int64
	reconfigs     atomic.Int64
	holdNanos     atomic.Int64
	waitNanos     atomic.Int64
	maxWaiters    atomic.Int64
	cancellations atomic.Int64
	ownerDeaths   atomic.Int64
	wdTrips       atomic.Int64
	stallAborts   atomic.Int64
}

// New creates a configurable mutex with the given initial policy and
// scheduler.
func New(p Policy, s Scheduler) (*Mutex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !s.valid() {
		return nil, fmt.Errorf("native: invalid scheduler %d", int(s))
	}
	m := &Mutex{sched: s}
	m.policy.Store(&p)
	m.esink.Store(sinkBox{NopSink})
	return m, nil
}

// MustNew is New, panicking on error (for package-level defaults).
func MustNew(p Policy, s Scheduler) *Mutex {
	m, err := New(p, s)
	if err != nil {
		panic(err)
	}
	return m
}

// Lock acquires the lock with priority 0 and no handoff identity.
func (m *Mutex) Lock() { m.LockAs(0, 0) }

// LockP acquires the lock with the given priority (meaningful under the
// Priority and Threshold schedulers).
func (m *Mutex) LockP(prio int64) { m.LockAs(0, prio) }

// LockAs acquires the lock, registering under a caller-chosen tag so a
// later UnlockTo(tag) can hand the lock directly to this requester (the
// handoff scheduler; tag 0 means anonymous).
func (m *Mutex) LockAs(tag uint64, prio int64) {
	if !m.acquire(tag, prio, 0) {
		panic("native: unbounded acquire failed") // unreachable
	}
}

// TryLock attempts a single acquisition without waiting.
func (m *Mutex) TryLock() bool {
	m.guard.lock()
	if !m.held {
		m.take(0)
		start := m.holdStart
		m.guard.unlock()
		m.emitEvent(EventAcquire, 0, 0, start, 0, 0)
		return true
	}
	m.guard.unlock()
	return false
}

// TryLockFor acquires the lock with priority 0, giving up after d (the
// paper's conditional lock).
func (m *Mutex) TryLockFor(d time.Duration) bool { return m.acquire(0, 0, d) }

// take records acquisition under the given handoff tag; guard must be
// held and the lock free. It returns — and consumes — the pending
// owner-death notification, and arms the watchdog for the new tenure.
func (m *Mutex) take(tag uint64) bool {
	m.held = true
	m.holdStart = time.Now()
	m.ownerTag = tag
	m.acquisitions.Add(1)
	died := m.diedPending
	m.diedPending = false
	m.armLocked()
	return died
}

// acquire implements the registration + acquisition modules for the
// error-free entry points (Lock, TryLockFor).
func (m *Mutex) acquire(tag uint64, prio int64, timeout time.Duration) bool {
	ok, _, _ := m.acquireFull(nil, tag, prio, timeout, false)
	return ok
}

// acquireFull is the full registration + acquisition path. ctx, when
// non-nil, aborts the acquisition on cancellation — both while spinning
// and while parked. abortable waiters additionally subscribe to the
// watchdog's stall broadcast. It returns (acquired, ownerDied, err):
// acquired=true means the caller owns the lock (ownerDied then reports an
// inherited owner death); acquired=false with err=nil is a conditional
// timeout; otherwise err is ctx.Err() or ErrOwnerStalled.
func (m *Mutex) acquireFull(ctx context.Context, tag uint64, prio int64, timeout time.Duration, abortable bool) (bool, bool, error) {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			m.cancellations.Add(1)
			return false, false, err
		}
		done = ctx.Done()
	}
	// Fast path.
	m.guard.lock()
	if !m.held {
		died := m.take(tag)
		start := m.holdStart
		m.guard.unlock()
		m.emitEvent(EventAcquire, tag, prio, start, 0, 0)
		m.injectHolderStall()
		return true, died, nil
	}
	m.guard.unlock()
	m.contended.Add(1)
	m.emitEvent(EventWait, tag, prio, time.Now(), 0, 0)
	m.injectWaiterPreempt()
	waitStart := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = waitStart.Add(timeout)
	}
	stallGen := m.stallGen.Load()

	p := *m.policy.Load()
	backoff := p.Backoff
	for {
		// Spin phase.
		for i := 0; i < p.Spin || (p.NoPark && p.Spin == 0); i++ {
			m.guard.lock()
			if !m.held {
				died := m.take(tag)
				m.guard.unlock()
				m.finishWait(waitStart, tag, prio)
				m.injectHolderStall()
				return true, died, nil
			}
			m.guard.unlock()
			if done != nil {
				select {
				case <-done:
					m.cancellations.Add(1)
					m.emitEvent(EventAbort, tag, prio, time.Now(), 0, 0)
					return false, false, ctx.Err()
				default:
				}
			}
			if abortable && m.stallGen.Load() != stallGen {
				m.stallAborts.Add(1)
				m.emitEvent(EventAbort, tag, prio, time.Now(), 0, 0)
				return false, false, ErrOwnerStalled
			}
			if timeout > 0 && time.Now().After(deadline) {
				m.timeouts.Add(1)
				m.emitEvent(EventTimeout, tag, prio, time.Now(), 0, 0)
				return false, false, nil
			}
			osYield()
		}
		if p.Backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if p.BackoffMax > 0 && backoff > p.BackoffMax {
				backoff = p.BackoffMax
			}
		}
		if p.NoPark {
			p = *m.policy.Load() // adopt reconfiguration between rounds
			continue
		}
		// Park phase: register and wait for a directed grant.
		w := &waiter{ch: make(chan struct{}, 1), prio: prio, tag: tag}
		m.guard.lock()
		if !m.held {
			died := m.take(tag)
			m.guard.unlock()
			m.finishWait(waitStart, tag, prio)
			m.injectHolderStall()
			return true, died, nil
		}
		m.queue = append(m.queue, w)
		if n := int64(len(m.queue)); n > m.maxWaiters.Load() {
			m.maxWaiters.Store(n)
		}
		var stallC <-chan struct{}
		if abortable {
			stallC = m.stallCh // snapshot under guard; nil without a watchdog
		}
		m.guard.unlock()

		var timer *time.Timer
		var timerC <-chan time.Time
		if timeout > 0 {
			remain := time.Until(deadline)
			if remain < 0 {
				remain = 0
			}
			timer = time.NewTimer(remain)
			timerC = timer.C
		}
		granted, cancelled, stalled := false, false, false
		select {
		case <-w.ch:
			granted = true
		case <-timerC:
		case <-done:
			cancelled = true
		case <-stallC:
			stalled = true
		}
		if timer != nil {
			timer.Stop()
		}
		m.guard.lock()
		if w.granted {
			// Directed handoff: held stays true; we are the owner. A
			// grant that raced our timeout or stall abort is accepted; a
			// grant that raced cancellation is released below so it is
			// never lost.
			m.holdStart = time.Now()
			m.ownerTag = tag
			m.acquisitions.Add(1)
			died := m.diedPending
			m.diedPending = false
			m.armLocked()
			m.guard.unlock()
			if cancelled {
				m.waitNanos.Add(int64(time.Since(waitStart)))
				m.cancellations.Add(1)
				m.emitEvent(EventAbort, tag, prio, time.Now(), 0, 0)
				m.unlock(0)
				return false, false, ctx.Err()
			}
			m.finishWait(waitStart, tag, prio)
			m.injectHolderStall()
			return true, died, nil
		}
		// Not granted: deregister before reporting timeout/cancel/stall.
		for i, q := range m.queue {
			if q == w {
				copy(m.queue[i:], m.queue[i+1:])
				m.queue = m.queue[:len(m.queue)-1]
				break
			}
		}
		m.guard.unlock()
		switch {
		case cancelled:
			m.cancellations.Add(1)
			m.emitEvent(EventAbort, tag, prio, time.Now(), 0, 0)
			return false, false, ctx.Err()
		case stalled:
			m.stallAborts.Add(1)
			m.emitEvent(EventAbort, tag, prio, time.Now(), 0, 0)
			return false, false, ErrOwnerStalled
		case !granted && timeout > 0:
			m.timeouts.Add(1)
			m.emitEvent(EventTimeout, tag, prio, time.Now(), 0, 0)
			return false, false, nil
		}
		// Spurious (cannot happen with directed grants, but loop for
		// safety) — re-enter the waiting policy.
		p = *m.policy.Load()
	}
}

// Unlock releases the lock, granting it per the current scheduler.
func (m *Mutex) Unlock() { m.unlock(0) }

// UnlockTo releases the lock, handing it directly to the waiter that
// registered with LockAs(tag, ...) — the handoff scheduler. Without such a
// waiter it falls back to the scheduler's default pick.
func (m *Mutex) UnlockTo(tag uint64) { m.unlock(tag) }

func (m *Mutex) unlock(hint uint64) {
	m.injectReleaseDelay()
	m.guard.lock()
	if !m.held {
		m.guard.unlock()
		panic("native: Unlock of unlocked Mutex")
	}
	start := m.holdStart
	held := time.Since(start)
	ownerTag := m.ownerTag
	m.holdNanos.Add(int64(held))
	w := m.releaseLocked(hint)
	m.guard.unlock()
	if w != nil {
		w.ch <- struct{}{}
	}
	m.emitEvent(EventRelease, ownerTag, 0, start.Add(held), 0, held)
}

// releaseLocked ends the current tenure and either frees the lock or picks
// and marks the next grantee (returned for the caller to signal outside
// the guard). Guard must be held with the lock held.
func (m *Mutex) releaseLocked(hint uint64) *waiter {
	m.tenure++ // end the tenure: a pending watchdog no-ops
	if m.hasPend && len(m.queue) == 0 {
		m.sched = m.pending
		m.hasPend = false
	}
	if len(m.queue) == 0 {
		m.held = false
		return nil
	}
	idx := m.pickLocked(hint)
	w := m.queue[idx]
	copy(m.queue[idx:], m.queue[idx+1:])
	m.queue = m.queue[:len(m.queue)-1]
	w.granted = true
	m.grants.Add(1)
	return w
}

// pickLocked implements the release module (guard held, queue non-empty).
func (m *Mutex) pickLocked(hint uint64) int {
	idx := 0
	switch m.sched {
	case Priority:
		best := m.queue[0].prio
		for i, w := range m.queue {
			if w.prio > best {
				best = w.prio
				idx = i
			}
		}
	case Threshold:
		th := m.threshold.Load()
		for i, w := range m.queue {
			if w.prio >= th {
				idx = i
				break
			}
		}
	case Handoff:
		if hint != 0 {
			for i, w := range m.queue {
				if w.tag == hint {
					idx = i
					break
				}
			}
		}
	}
	return idx
}
