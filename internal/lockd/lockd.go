// Package lockd is a lease-based network lock service fronting the
// configurable lock: a TCP/JSON-line server whose named locks are
// native.Mutex instances, with the distributed-systems robustness
// machinery the in-process lock cannot provide on its own.
//
//   - Sessions and leases: every client operates under a session with a
//     keepalive lease. A client that crashes, partitions away, or stops
//     heartbeating has its session expired and every lock it held
//     force-released through the mutex's DeclareOwnerDead path — the
//     distributed analogue of the paper's timeout waiting policies.
//   - Fencing tokens: every grant returns a per-lock monotonically
//     increasing token. Downstream resources that check tokens reject
//     writes from a stale (recovered-from) holder, so a zombie client
//     that wakes up after its lease expired cannot corrupt state.
//   - Overload shedding: each lock's wait queue is bounded; acquisitions
//     beyond the bound are refused immediately with CodeOverloaded and a
//     Retry-After hint instead of queueing without limit.
//   - Wire-level reconfiguration (the paper's Ψ): clients can switch a
//     served lock's waiting policy and release scheduler remotely;
//     scheduler changes keep the configuration-delay semantics (deferred
//     until pre-registered waiters drain, reported as Pending).
//
// Served locks register in an internal/telemetry Registry, so /metrics
// exposes per-lock counters plus the server's session/lease/shed/retry
// counters while it runs.
package lockd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/native"
	"repro/internal/telemetry"
)

// Config tunes a Server. The zero value serves with the defaults noted
// on each field.
type Config struct {
	// MaxWaiters bounds each lock's wait queue; acquisitions arriving
	// with MaxWaiters already waiting are shed with CodeOverloaded.
	// Default 64.
	MaxWaiters int
	// DefaultLease is granted to sessions that don't ask for one
	// (default 2s); MinLease/MaxLease clamp requested leases (defaults
	// 50ms / 1min).
	DefaultLease time.Duration
	MinLease     time.Duration
	MaxLease     time.Duration
	// SweepEvery is the lease-expiry scan interval. Default
	// DefaultLease/4, floored at 5ms.
	SweepEvery time.Duration
	// DefaultWait bounds acquisitions that don't set WaitMs. Default 10s.
	DefaultWait time.Duration
	// Policy and Scheduler configure newly created locks. Defaults:
	// native.CombinedPolicy, native.FIFO.
	Policy    *native.Policy
	Scheduler native.Scheduler
	// Registry, when non-nil, receives a telemetry entry per served lock
	// plus a "lockd" entry carrying the server counters and a waitgraph
	// entry exporting deadlock-suspicion metrics.
	Registry *telemetry.Registry
	// Causal observability (defaults: the causal package's process-wide
	// instances). Recorder receives server-side queue-wait and hold
	// spans — continuing the client's trace when the request carries
	// one; Graph the session-level holder/waiter edges feeding deadlock
	// detection; Flight the per-lock event rings behind /debug/flightrec
	// and the SIGQUIT dump.
	Recorder *causal.Recorder
	Graph    *causal.Graph
	Flight   *causal.Flight
	// Journal, when non-nil, records every served lock's lifecycle into
	// the binary event journal, one record per transition: waits, grants
	// and releases carry the session, fencing token and the client's
	// trace id, so journals written by the server and its clients merge
	// into one verifiable history. Lease-expiry force-releases are
	// journaled as owner-dead records naming the expired session.
	Journal *journal.Journal
	// WrapConn, when non-nil, wraps every accepted connection — the
	// fault-injection hook (see internal/fault.WrapConn).
	WrapConn func(net.Conn) net.Conn
	// Replica, when non-nil, puts the server in replicated mode: client
	// operations are gated on leadership and every state mutation is
	// quorum-replicated before it is acknowledged. See the Replica
	// interface in replication.go and internal/replica for the layer
	// itself.
	Replica Replica
	// Clock is the server's hybrid logical clock: merged with every
	// request's HLC before handling and stamped into every response, so
	// journaled events order after everything the requesting client had
	// seen. Default hlc.Default. Share one clock between the server,
	// its journal, and its replica node — they are one process.
	Clock *hlc.Clock
	// Logf, when non-nil, receives server diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 64
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 2 * time.Second
	}
	if c.MinLease <= 0 {
		c.MinLease = 50 * time.Millisecond
	}
	if c.MaxLease <= 0 {
		c.MaxLease = time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.DefaultLease / 4
	}
	if c.SweepEvery < 5*time.Millisecond {
		c.SweepEvery = 5 * time.Millisecond
	}
	if c.DefaultWait <= 0 {
		c.DefaultWait = 10 * time.Second
	}
	if c.Policy == nil {
		p := native.CombinedPolicy
		c.Policy = &p
	}
	if c.Recorder == nil {
		c.Recorder = causal.Default
	}
	if c.Graph == nil {
		c.Graph = causal.DefaultGraph
	}
	if c.Flight == nil {
		c.Flight = causal.DefaultFlight
	}
	if c.Clock == nil {
		c.Clock = hlc.Default
	}
	return c
}

// counters aggregates the server's robustness counters (see Counters for
// the wire shape).
type counters struct {
	sessionsOpened   atomic.Int64
	sessionsResumed  atomic.Int64
	sessionsExpired  atomic.Int64
	forcedReleases   atomic.Int64
	recoveredGrants  atomic.Int64
	sheds            atomic.Int64
	retries          atomic.Int64
	acquires         atomic.Int64
	releases         atomic.Int64
	staleReleases    atomic.Int64
	acquireTimeouts  atomic.Int64
	reconfigurations atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		SessionsOpened:   c.sessionsOpened.Load(),
		SessionsResumed:  c.sessionsResumed.Load(),
		SessionsExpired:  c.sessionsExpired.Load(),
		ForcedReleases:   c.forcedReleases.Load(),
		RecoveredGrants:  c.recoveredGrants.Load(),
		Sheds:            c.sheds.Load(),
		Retries:          c.retries.Load(),
		Acquires:         c.acquires.Load(),
		Releases:         c.releases.Load(),
		StaleReleases:    c.staleReleases.Load(),
		AcquireTimeouts:  c.acquireTimeouts.Load(),
		Reconfigurations: c.reconfigurations.Load(),
	}
}

// servedLock is one named lock. Holder bookkeeping lives beside the
// mutex: the mutex enforces exclusion, the bookkeeping binds the current
// tenure to a session and a fencing token.
type servedLock struct {
	name  string
	m     *native.Mutex
	entry *telemetry.NativeEntry
	jlock uint32 // interned journal id for name (0 = journaling off)

	// recMu serializes the lock's transitions (see Server.record), so
	// every view sees them in one order.
	recMu sync.Mutex

	mu            sync.Mutex
	fence         uint64 // last granted fencing token
	holderSession uint64 // 0 = free
	holderToken   uint64
	waiting       int
	sheds         int64

	// Causal bookkeeping for the running tenure (guarded by mu): the
	// trace the hold span joins, the queue-wait span it parents on, and
	// when the tenure began.
	holdTrace  causal.TraceID
	holdParent causal.SpanID
	holdStart  time.Time
}

// endTenure clears the holder and returns the transition ending the
// running tenure on behalf of sess (mu held).
func (lk *servedLock) endTenure(kind journal.Kind, sess *session, cause string) transition {
	t := transition{
		kind: kind, lk: lk, sess: sess, token: lk.holderToken, trace: lk.holdTrace,
		start: lk.holdStart, span: causal.NewSpanID(), parent: lk.holdParent, cause: cause,
	}
	lk.holderSession, lk.holderToken = 0, 0
	return t
}

// session is one client session. Lock order: session.mu may be taken
// before servedLock.mu (the acquire path nests them); never the reverse.
type session struct {
	id     uint64
	client string
	// actor is the session's node name in the wait-for graph, flight
	// recorder and journal: the client-reported name, or a session-id
	// fallback.
	actor string
	lease time.Duration

	mu       sync.Mutex
	deadline time.Time
	expired  bool
	held     map[string]uint64 // lock name -> fencing token
}

// newSession returns a live session whose lease runs until deadline.
func newSession(id uint64, client string, lease time.Duration, deadline time.Time) *session {
	actor := client
	if actor == "" {
		actor = fmt.Sprintf("session-%d", id)
	}
	return &session{id: id, client: client, actor: actor, lease: lease, deadline: deadline, held: make(map[string]uint64)}
}

// renew extends the lease; it reports false if the session already
// expired.
func (s *session) renew() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expired {
		return false
	}
	s.deadline = time.Now().Add(s.lease)
	return true
}

// Server is a running lock service.
type Server struct {
	cfg    Config
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	locks       map[string]*servedLock
	sessions    map[uint64]*session
	conns       map[net.Conn]struct{}
	lastSession uint64
	closed      bool

	entry      *telemetry.Entry
	graphEntry *telemetry.Entry
	ctr        counters
}

// Serve starts a lock service on addr (e.g. ":7700" or "127.0.0.1:0").
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		ctx:      ctx,
		cancel:   cancel,
		locks:    make(map[string]*servedLock),
		sessions: make(map[uint64]*session),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.Registry != nil {
		s.entry = cfg.Registry.RegisterSource("lockd", "lockd", s.telemetrySnapshot)
		s.graphEntry = cfg.Registry.RegisterWaitGraph("waitgraph", cfg.Graph)
		cfg.Registry.SetFlight(cfg.Flight)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweepLoop()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the service: the listener closes, in-flight acquisitions
// abort, and background loops drain. Held native locks are released so
// no goroutine stays parked.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	// Unblock serveConn read loops parked on idle connections.
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// Release whatever is still held so the mutexes end balanced.
	s.mu.Lock()
	locks := make([]*servedLock, 0, len(s.locks))
	for _, lk := range s.locks {
		locks = append(locks, lk)
	}
	s.mu.Unlock()
	for _, lk := range locks {
		lk.mu.Lock()
		if lk.holderSession != 0 {
			lk.holderSession, lk.holderToken = 0, 0
			lk.m.Unlock()
		}
		lk.mu.Unlock()
		s.cfg.Graph.SetHolder(lk.name, "")
		if lk.entry != nil {
			lk.entry.Close()
		}
	}
	if s.entry != nil {
		s.entry.Close()
	}
	if s.graphEntry != nil {
		s.graphEntry.Close()
	}
	return err
}

// Counters snapshots the server's robustness counters.
func (s *Server) Counters() Counters { return s.ctr.snapshot() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// telemetrySnapshot is the registry pull for the server-level entry.
func (s *Server) telemetrySnapshot() telemetry.LockSnapshot {
	s.mu.Lock()
	sessions := int64(len(s.sessions))
	s.mu.Unlock()
	c := s.ctr.snapshot()
	name := "lockd"
	if s.entry != nil {
		name = s.entry.Name()
	}
	return telemetry.LockSnapshot{
		Name: name,
		Impl: "lockd",
		Extra: []telemetry.ExtraPoint{
			{Name: "lockd_sessions", Help: "Currently live sessions.", Gauge: true, Value: sessions},
			{Name: "lockd_sessions_opened_total", Help: "Sessions opened.", Value: c.SessionsOpened},
			{Name: "lockd_sessions_resumed_total", Help: "Sessions resumed after reconnect.", Value: c.SessionsResumed},
			{Name: "lockd_lease_expirations_total", Help: "Sessions expired by the lease sweeper.", Value: c.SessionsExpired},
			{Name: "lockd_forced_releases_total", Help: "Locks force-released from expired sessions.", Value: c.ForcedReleases},
			{Name: "lockd_recovered_grants_total", Help: "Grants inherited from a dead owner.", Value: c.RecoveredGrants},
			{Name: "lockd_shed_total", Help: "Acquisitions shed with CodeOverloaded.", Value: c.Sheds},
			{Name: "lockd_retries_total", Help: "Acquire attempts beyond a client's first try.", Value: c.Retries},
			{Name: "lockd_acquires_total", Help: "Successful acquisitions granted.", Value: c.Acquires},
			{Name: "lockd_releases_total", Help: "Token-matched releases performed.", Value: c.Releases},
			{Name: "lockd_stale_releases_total", Help: "Idempotent releases of stale tokens.", Value: c.StaleReleases},
			{Name: "lockd_acquire_timeouts_total", Help: "Acquisitions that waited out their deadline.", Value: c.AcquireTimeouts},
			{Name: "lockd_reconfigurations_total", Help: "Wire-level policy/scheduler reconfigurations.", Value: c.Reconfigurations},
		},
	}
}

// lock returns (creating on first use) the served lock named name.
func (s *Server) lock(name string) (*servedLock, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lk, ok := s.locks[name]; ok {
		return lk, nil
	}
	m, err := native.New(*s.cfg.Policy, s.cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	lk := &servedLock{name: name, m: m}
	if s.cfg.Registry != nil {
		lk.entry = s.cfg.Registry.RegisterNative("lockd/"+name, m).ObserveLatency()
	}
	if s.cfg.Journal != nil {
		lk.jlock = s.cfg.Journal.InternLock(name)
	}
	s.locks[name] = lk
	return lk, nil
}

// transition is one lifecycle transition of a served lock: a queued
// acquisition's start or exit, the end of a tenure, or a
// reconfiguration.
type transition struct {
	kind  journal.Kind
	lk    *servedLock
	sess  *session // the acting session (for a tenure's end, the holder's)
	token uint64
	trace causal.TraceID
	// start is when the phase this transition closes began — the queued
	// acquisition for a wait's exit, the tenure for its end — and span
	// and parent identify that phase's span. A zero start closes no
	// phase: a wait's start, a shed, a reconfiguration.
	start        time.Time
	span, parent causal.SpanID
	// cause says why the phase ended: the queue-wait span's outcome or
	// the hold span's cause.
	cause string
}

// abortDetail is the flight recorder's text for each way a queued
// acquisition ends without a grant, keyed by transition cause.
var abortDetail = map[string]string{
	"shed":         "wait queue full",
	"aborted":      "connection or server closing",
	"unreplicated": "replication quorum unavailable",
	"expired":      "lease expired while waiting",
}

// record applies one transition to every server-side view of the lock:
// the wait-for graph, the span recorder, the flight ring and the
// journal. It is the only writer of those views for a served lock, so
// they cannot disagree about what happened; the flight ring names each
// event with the journal kind's name. A transition that hands the lock
// on is recorded before the native mutex moves, so the next grant lands
// after it in every view.
func (s *Server) record(t transition) {
	lk, actor := t.lk, t.sess.actor
	lk.recMu.Lock()
	defer lk.recMu.Unlock()
	now := time.Now()
	var detail string
	switch t.kind {
	case journal.KindWait:
		s.cfg.Graph.AddWait(actor, lk.name)
		detail = "trace=" + t.trace.String()
	case journal.KindAcquire:
		// Wait edge off before the hold edge lands, so the graph never
		// shows a transient self-cycle.
		s.cfg.Graph.RemoveWait(actor, lk.name)
		s.cfg.Graph.SetHolder(lk.name, actor)
		detail = fmt.Sprintf("token=%d trace=%s", t.token, t.trace)
	case journal.KindTimeout, journal.KindAbort:
		if !t.start.IsZero() {
			s.cfg.Graph.RemoveWait(actor, lk.name)
		}
		detail = abortDetail[t.cause]
	case journal.KindRelease, journal.KindOwnerDead:
		s.cfg.Graph.SetHolder(lk.name, "")
		detail = fmt.Sprintf("token=%d", t.token)
	}
	var dur time.Duration
	if !t.start.IsZero() {
		dur = now.Sub(t.start)
		s.cfg.Recorder.Record(t.phaseSpan(actor, now))
	}
	s.cfg.Flight.Record(lk.name, t.kind.String(), actor, detail)
	if j := s.cfg.Journal; j != nil {
		// Both instants come from the server's clock — the one that
		// merged the requesting client's HLC — not the journal's, so a
		// server running on an injected (skewed) clock journals what
		// that clock actually read.
		j.Append(journal.Record{
			Kind:   t.kind,
			Origin: journal.OriginLockd,
			AtNs:   s.cfg.Clock.PhysNow(),
			HLC:    s.cfg.Clock.Now(),
			DurNs:  int64(dur),
			Token:  t.token,
			Trace:  uint64(t.trace),
			Lock:   lk.jlock,
			Tag:    t.sess.id,
			Agent:  j.InternAgent(actor),
		})
	}
}

// phaseSpan is the span of the phase t closes: the tenure's hold span
// when t ends one, otherwise the acquisition's queue-wait span.
func (t transition) phaseSpan(actor string, end time.Time) causal.Span {
	name, key := "queue-wait", "outcome"
	if t.kind == journal.KindRelease || t.kind == journal.KindOwnerDead {
		name, key = "hold", "cause"
	}
	attrs := map[string]string{key: t.cause}
	if t.token != 0 {
		attrs["token"] = strconv.FormatUint(t.token, 10)
	}
	return causal.Span{
		Trace: t.trace, ID: t.span, Parent: t.parent,
		Name: name, Actor: actor, Object: t.lk.name,
		Start: t.start.UnixNano(), End: end.UnixNano(),
		Attrs: attrs,
	}
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.cfg.WrapConn != nil {
			c = s.cfg.WrapConn(c)
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn runs one connection: fast operations answer inline,
// acquisitions run on their own goroutines so heartbeats keep flowing on
// the same connection while an acquire waits. Responses are serialized
// by a write mutex; clients demultiplex by request ID.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	var wmu sync.Mutex
	enc := json.NewEncoder(c)
	reply := func(r Response) {
		// Stamp the reply with the server's HLC and raw wall reading:
		// the former closes the causal loop at the caller, the latter
		// feeds its skew estimate for this server.
		r.HLC = uint64(s.cfg.Clock.Now())
		r.WallNs = s.cfg.Clock.PhysNow()
		wmu.Lock()
		defer wmu.Unlock()
		if err := enc.Encode(r); err != nil {
			// The peer is gone (or a fault injector dropped the conn);
			// the read loop will notice and unwind.
			s.logf("lockd: write to %s: %v", c.RemoteAddr(), err)
		}
	}

	var pending sync.WaitGroup
	br := bufio.NewReaderSize(c, 4096)
	for {
		line, err := readLine(br, maxLineBytes)
		if err == errLineTooLong {
			// A protocol error, not connection death: the oversized line
			// has been consumed, so the conn keeps serving.
			reply(Response{Code: CodeBadRequest, Err: fmt.Sprintf("request line exceeds %d bytes", maxLineBytes)})
			continue
		}
		if err != nil {
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			reply(Response{ID: req.ID, Code: CodeBadRequest, Err: "malformed request: " + err.Error()})
			continue
		}
		// Merge the sender's clock before any handler runs (or any
		// record is journaled) on this request's behalf.
		s.cfg.Clock.Update(hlc.Time(req.HLC))
		if req.Op == OpReplAppend || req.Op == OpReplVote {
			// Peer replication traffic: answered inline (strictly ordered
			// per conn) and never leadership-gated.
			if s.cfg.Replica == nil {
				reply(Response{ID: req.ID, Code: CodeBadRequest, Err: "replication not enabled"})
			} else {
				reply(s.cfg.Replica.HandleRepl(req))
			}
			continue
		}
		if s.cfg.Replica != nil {
			if g := s.cfg.Replica.Gate(); !g.Leader {
				reply(Response{ID: req.ID, Code: CodeNotLeader, Err: "not the leader",
					LeaderAddr: g.LeaderAddr, Term: g.Term})
				continue
			}
		}
		if req.Op == OpAcquire {
			req := req
			pending.Add(1)
			go func() {
				defer pending.Done()
				reply(s.handleAcquire(ctx, req))
			}()
			continue
		}
		reply(s.handle(req))
	}
	cancel() // abort this connection's in-flight acquisitions
	pending.Wait()
}

// maxLineBytes bounds one wire request line.
const maxLineBytes = 1 << 20

// errLineTooLong marks a request line exceeding maxLineBytes; the line
// is fully consumed so the connection can keep serving.
var errLineTooLong = errors.New("lockd: request line too long")

// readLine reads one newline-terminated line of at most max bytes. An
// oversized line is drained to its newline and reported as
// errLineTooLong — a typed protocol error rather than connection death
// (bufio.Scanner's ErrTooLong would end the read loop). Any other error
// is a real I/O condition and ends the connection.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		switch err {
		case nil:
			if line == nil {
				return frag, nil
			}
			line = append(line, frag...)
			if len(line) > max {
				return nil, errLineTooLong
			}
			return line, nil
		case bufio.ErrBufferFull:
			line = append(line, frag...)
			if len(line) > max {
				// Discard the remainder of the oversized line.
				for {
					_, err := br.ReadSlice('\n')
					if err == nil {
						return nil, errLineTooLong
					}
					if err != bufio.ErrBufferFull {
						return nil, err
					}
				}
			}
		default:
			return nil, err
		}
	}
}

// handle serves the fast (non-blocking) operations.
func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpHello:
		return s.handleHello(req)
	case OpHeartbeat:
		sess, resp := s.sessionFor(req)
		if sess == nil {
			return resp
		}
		return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: sess.lease.Milliseconds()}
	case OpRelease:
		return s.handleRelease(req)
	case OpReconfigure:
		return s.handleReconfigure(req)
	case OpStat:
		return s.handleStat(req)
	case OpBye:
		return s.handleBye(req)
	}
	return Response{ID: req.ID, Code: CodeBadRequest, Err: fmt.Sprintf("unknown op %q", req.Op)}
}

// sessionFor resolves and renews the request's session; a nil session
// means the returned response is the error to send.
func (s *Server) sessionFor(req Request) (*session, Response) {
	s.mu.Lock()
	sess := s.sessions[req.Session]
	s.mu.Unlock()
	if sess == nil || !sess.renew() {
		return nil, Response{ID: req.ID, Code: CodeExpired, Err: "unknown or expired session"}
	}
	return sess, Response{}
}

func (s *Server) handleHello(req Request) Response {
	lease := s.cfg.DefaultLease
	if req.LeaseMs > 0 {
		lease = time.Duration(req.LeaseMs) * time.Millisecond
		if lease < s.cfg.MinLease {
			lease = s.cfg.MinLease
		}
		if lease > s.cfg.MaxLease {
			lease = s.cfg.MaxLease
		}
	}
	// Resume: a reconnecting client keeps its session (and its held
	// locks) as long as the lease never lapsed.
	if req.Session != 0 {
		s.mu.Lock()
		sess := s.sessions[req.Session]
		s.mu.Unlock()
		if sess != nil && sess.renew() {
			s.ctr.sessionsResumed.Add(1)
			return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: sess.lease.Milliseconds(), Resumed: true}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{ID: req.ID, Code: CodeShutdown, Err: "server shutting down"}
	}
	s.lastSession++
	sess := newSession(s.lastSession, req.Client, lease, time.Now().Add(lease))
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	// Replicated mode: the session must exist on a quorum before the
	// client learns its id, or a promoted learner would expire grants
	// bound to a session it never heard of.
	if err := s.propose(Mutation{Kind: journal.KindSessionOpen, Session: sess.id, Agent: sess.client, DurNs: int64(lease)}); err != nil {
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
	}
	s.journalSession(journal.KindSessionOpen, sess.id, sess.client, lease)
	s.ctr.sessionsOpened.Add(1)
	return Response{ID: req.ID, OK: true, Session: sess.id, LeaseMs: lease.Milliseconds()}
}

// handleAcquire runs on its own goroutine (it may wait).
func (s *Server) handleAcquire(ctx context.Context, req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	if req.Lock == "" {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: "acquire without a lock name"}
	}
	switch req.WaitHint {
	case "", "block", "spin", "try":
	default:
		return Response{ID: req.ID, Code: CodeBadRequest, Err: fmt.Sprintf("unknown wait hint %q", req.WaitHint)}
	}
	if req.Attempt > 1 {
		s.ctr.retries.Add(1)
	}
	lk, err := s.lock(req.Lock)
	if err != nil {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
	}

	// Admission: duplicate acquires answer with the existing grant (a
	// lost-reply retry), and a full wait queue sheds instead of queueing.
	lk.mu.Lock()
	if lk.holderSession == sess.id {
		tok := lk.holderToken
		lk.mu.Unlock()
		return Response{ID: req.ID, OK: true, Code: CodeAlreadyHeld, Token: tok}
	}
	if lk.waiting >= s.cfg.MaxWaiters {
		lk.sheds++
		waiting := lk.waiting
		lk.mu.Unlock()
		s.ctr.sheds.Add(1)
		s.record(transition{kind: journal.KindAbort, lk: lk, sess: sess, trace: causal.ParseTraceID(req.TraceID), cause: "shed"})
		// Retry-After scales with the queue: a deeper backlog pushes
		// retries further out.
		hint := time.Duration(waiting) * 10 * time.Millisecond
		if hint < 10*time.Millisecond {
			hint = 10 * time.Millisecond
		}
		return Response{
			ID: req.ID, Code: CodeOverloaded,
			Err:          fmt.Sprintf("lock %q wait queue full (%d waiting)", req.Lock, waiting),
			RetryAfterMs: hint.Milliseconds(),
		}
	}
	lk.waiting++
	lk.mu.Unlock()
	defer func() {
		lk.mu.Lock()
		lk.waiting--
		lk.mu.Unlock()
	}()

	// Causal: continue the client's trace when the request carries one
	// (so client backoff + queue wait + hold share a trace), otherwise
	// start a server-local trace. Every exit of the queued acquisition
	// closes its queue-wait span.
	tr := causal.ParseTraceID(req.TraceID)
	if tr == 0 {
		tr = causal.NewTraceID()
	}
	qspan := causal.NewSpanID()
	qstart := time.Now()
	s.record(transition{kind: journal.KindWait, lk: lk, sess: sess, trace: tr})
	exit := func(kind journal.Kind, tok uint64, cause string) {
		s.record(transition{
			kind: kind, lk: lk, sess: sess, token: tok, trace: tr,
			start: qstart, span: qspan, parent: causal.ParseSpanID(req.ParentSpan), cause: cause,
		})
	}

	wait := s.cfg.DefaultWait
	if req.WaitMs > 0 {
		wait = time.Duration(req.WaitMs) * time.Millisecond
	}
	actx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()

	recovered := false
	if req.WaitHint == "spin" || req.WaitHint == "try" {
		// The per-RPC impatient path (hint "try" polls exactly once).
		err = s.spinAcquire(actx, lk, req.WaitHint == "try")
	} else {
		err = lk.m.AcquireCtxAs(actx, 0, req.Prio)
	}
	if errors.Is(err, native.ErrOwnerDied) {
		// Robust-mutex semantics: the caller owns the lock, inherited
		// from a dead session. Surface it so the client can repair.
		recovered = true
		err = nil
		s.ctr.recoveredGrants.Add(1)
	}
	if err != nil {
		if ctx.Err() != nil {
			exit(journal.KindAbort, 0, "aborted")
			return Response{ID: req.ID, Code: CodeShutdown, Err: "connection or server closing"}
		}
		s.ctr.acquireTimeouts.Add(1)
		exit(journal.KindTimeout, 0, "timeout")
		return Response{ID: req.ID, Code: CodeTimeout, Err: fmt.Sprintf("lock %q not acquired within %v", req.Lock, wait)}
	}

	// Replicated mode: mint the token now and ship the grant to a
	// quorum BEFORE acknowledging — a promoted learner must know every
	// token ever granted. Holding the native mutex serializes grants on
	// this lock, so reading fence without keeping lk.mu across the
	// network round-trip is safe: nothing else can advance it.
	var tok uint64
	if s.cfg.Replica != nil {
		lk.mu.Lock()
		tok = lk.fence + 1
		lk.mu.Unlock()
		if err := s.propose(Mutation{
			Kind: journal.KindAcquire, Lock: req.Lock, Agent: sess.actor,
			Session: sess.id, Token: tok, Trace: uint64(tr), DurNs: int64(time.Since(qstart)),
		}); err != nil {
			// No quorum. The entry stays in the local log (it may already
			// sit on some learners), so burn the token and append a
			// compensating release — then give the grant back.
			exit(journal.KindAbort, 0, "unreplicated")
			s.burnGrant(lk, sess, tok)
			return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
		}
	}

	// Grant: bind the tenure to the session under session.mu so the
	// lease sweeper can never observe a half-recorded holder, and mint
	// the fencing token. (Lock order: session.mu, then servedLock.mu.)
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		// The lease lapsed while we waited: give the grant back (a
		// replicated grant must not dangle either).
		exit(journal.KindAbort, 0, "expired")
		s.burnGrant(lk, sess, tok)
		return Response{ID: req.ID, Code: CodeExpired, Err: "session lease expired while waiting"}
	}
	lk.mu.Lock()
	if tok != 0 {
		lk.fence = tok
	} else {
		lk.fence++
		tok = lk.fence
	}
	lk.holderSession, lk.holderToken = sess.id, tok
	lk.holdTrace, lk.holdParent, lk.holdStart = tr, qspan, time.Now()
	lk.mu.Unlock()
	sess.held[req.Lock] = tok
	sess.mu.Unlock()
	s.ctr.acquires.Add(1)
	outcome := "acquired"
	if recovered {
		outcome = "recovered"
	}
	exit(journal.KindAcquire, tok, outcome)
	resp = Response{ID: req.ID, OK: true, Token: tok, Recovered: recovered}
	if req.TraceID != "" {
		resp.ServerSpan = qspan.String()
	}
	return resp
}

// burnGrant gives back a native grant the server will not hand to the
// client. A token already proposed to the replicas (tok != 0) is burnt
// and a compensating release is logged, so the replicated history never
// carries a dangling grant.
func (s *Server) burnGrant(lk *servedLock, sess *session, tok uint64) {
	if tok != 0 {
		lk.mu.Lock()
		if lk.fence < tok {
			lk.fence = tok
		}
		lk.mu.Unlock()
		s.propose(Mutation{Kind: journal.KindRelease, Lock: lk.name, Agent: sess.actor, Session: sess.id, Token: tok}) //nolint:errcheck // best-effort compensation
	}
	lk.m.Unlock()
}

// spinAcquire polls the lock until success or deadline — the wire-level
// "spin" wait hint (per-RPC spin vs. sleep, à la Mutable Locks). Each
// poll is a deadline-bounded AcquireCtx rather than TryLock, because
// TryLock would silently consume a pending owner-death notification;
// this way a recovered tenure is inherited exactly like the queued path.
func (s *Server) spinAcquire(ctx context.Context, lk *servedLock, once bool) error {
	for {
		tctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		err := lk.m.AcquireCtx(tctx)
		cancel()
		if err == nil || errors.Is(err, native.ErrOwnerDied) {
			return err
		}
		if once {
			return context.DeadlineExceeded
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		runtime.Gosched()
	}
}

func (s *Server) handleRelease(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.mu.Lock()
	lk := s.locks[req.Lock]
	s.mu.Unlock()
	if lk == nil {
		s.ctr.staleReleases.Add(1)
		return Response{ID: req.ID, OK: true, Code: CodeStaleToken}
	}
	// Replicated mode: a live release is a state mutation — quorum-ack it
	// before the lock moves. If the tenure ends concurrently (sweeper),
	// the proposed release becomes a harmless duplicate in the log.
	if s.cfg.Replica != nil {
		lk.mu.Lock()
		live := lk.holderSession == sess.id && lk.holderToken == req.Token
		lk.mu.Unlock()
		if live {
			if err := s.propose(Mutation{
				Kind: journal.KindRelease, Lock: req.Lock, Agent: sess.actor,
				Session: sess.id, Token: req.Token,
			}); err != nil {
				return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
			}
		}
	}
	sess.mu.Lock()
	if sess.held[req.Lock] == req.Token {
		delete(sess.held, req.Lock)
	}
	sess.mu.Unlock()
	lk.mu.Lock()
	if lk.holderSession == sess.id && lk.holderToken == req.Token {
		end := lk.endTenure(journal.KindRelease, sess, "released")
		lk.mu.Unlock()
		s.record(end)
		lk.m.Unlock()
		s.ctr.releases.Add(1)
		return Response{ID: req.ID, OK: true, Token: req.Token}
	}
	lk.mu.Unlock()
	// Already released, recovered, or re-granted: idempotent success.
	s.ctr.staleReleases.Add(1)
	return Response{ID: req.ID, OK: true, Code: CodeStaleToken}
}

func (s *Server) handleReconfigure(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	if req.Lock == "" || (req.Policy == "" && req.Sched == "") {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: "reconfigure needs a lock and a policy and/or sched"}
	}
	lk, err := s.lock(req.Lock)
	if err != nil {
		return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
	}
	// Validate before replicating so a bad request never reaches the log.
	var pol native.Policy
	if req.Policy != "" {
		if pol, err = ParsePolicy(req.Policy); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	var sched native.Scheduler
	if req.Sched != "" {
		if sched, err = ParseScheduler(req.Sched); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	if err := s.propose(Mutation{
		Kind: journal.KindReconfig, Lock: req.Lock, Agent: sess.actor,
		Session: sess.id, Policy: req.Policy, Sched: req.Sched,
	}); err != nil {
		return Response{ID: req.ID, Code: CodeUnavailable, Err: "replication quorum unavailable: " + err.Error()}
	}
	if req.Policy != "" {
		if err := lk.m.SetPolicy(pol); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
	}
	pending := false
	if req.Sched != "" {
		if err := lk.m.SetScheduler(sched); err != nil {
			return Response{ID: req.ID, Code: CodeBadRequest, Err: err.Error()}
		}
		_, pending = lk.m.PendingScheduler()
	}
	s.ctr.reconfigurations.Add(1)
	s.record(transition{kind: journal.KindReconfig, lk: lk, sess: sess})
	return Response{ID: req.ID, OK: true, Pending: pending}
}

func (s *Server) handleStat(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.mu.Lock()
	stat := &Stat{Sessions: len(s.sessions)}
	locks := make([]*servedLock, 0, len(s.locks))
	for _, lk := range s.locks {
		locks = append(locks, lk)
	}
	s.mu.Unlock()
	sort.Slice(locks, func(i, j int) bool { return locks[i].name < locks[j].name })
	for _, lk := range locks {
		lk.mu.Lock()
		stat.Locks = append(stat.Locks, LockStat{
			Name:          lk.name,
			Held:          lk.holderSession != 0,
			HolderSession: lk.holderSession,
			Token:         lk.fence,
			Waiting:       lk.waiting,
			Sheds:         lk.sheds,
		})
		lk.mu.Unlock()
	}
	stat.Counters = s.ctr.snapshot()
	return Response{ID: req.ID, OK: true, Stat: stat}
}

func (s *Server) handleBye(req Request) Response {
	sess, resp := s.sessionFor(req)
	if sess == nil {
		return resp
	}
	s.endSession(sess, false)
	return Response{ID: req.ID, OK: true}
}

// endSession retires a session, releasing (forced=false, clean Unlock)
// or recovering (forced=true, DeclareOwnerDead) every lock it holds.
func (s *Server) endSession(sess *session, forced bool) {
	sess.mu.Lock()
	if sess.expired {
		sess.mu.Unlock()
		return
	}
	sess.expired = true
	held := make(map[string]uint64, len(sess.held))
	for n, t := range sess.held {
		held[n] = t
	}
	sess.mu.Unlock()

	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()

	// A clean goodbye releases; an expiry force-releases through the
	// robust-mutex path, so the next acquirer inherits the lock with
	// the owner-died notification set.
	kind, cause := journal.KindRelease, "bye"
	if forced {
		kind, cause = journal.KindOwnerDead, "lease-expired"
	}
	for name, tok := range held {
		s.mu.Lock()
		lk := s.locks[name]
		s.mu.Unlock()
		if lk == nil {
			continue
		}
		// Replicated mode: ship the tenure's end, best-effort — a leader
		// that lost quorum must still recover locally (its lease will
		// fence it shortly), and a demoted replica must not propose.
		s.proposeIfLeader(Mutation{Kind: kind, Lock: name, Agent: sess.actor, Session: sess.id, Token: tok})
		lk.mu.Lock()
		if lk.holderSession != sess.id || lk.holderToken != tok {
			lk.mu.Unlock()
			continue
		}
		end := lk.endTenure(kind, sess, cause)
		lk.mu.Unlock()
		s.record(end)
		if !forced {
			lk.m.Unlock()
			s.ctr.releases.Add(1)
		} else if err := lk.m.DeclareOwnerDead(); err != nil {
			s.logf("lockd: recover %q from session %d: %v", name, sess.id, err)
		} else {
			s.ctr.forcedReleases.Add(1)
		}
	}
	s.proposeIfLeader(Mutation{Kind: journal.KindSessionEnd, Session: sess.id, Agent: sess.client})
	s.journalSession(journal.KindSessionEnd, sess.id, sess.client, 0)
	if forced {
		s.ctr.sessionsExpired.Add(1)
		s.logf("lockd: session %d (%s) lease expired; recovered %d lock(s)", sess.id, sess.client, len(held))
	}
}

// sweepLoop expires sessions whose lease lapsed.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		var expired []*session
		for _, sess := range s.sessions {
			sess.mu.Lock()
			if !sess.expired && sess.deadline.Before(now) {
				expired = append(expired, sess)
			}
			sess.mu.Unlock()
		}
		s.mu.Unlock()
		sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
		for _, sess := range expired {
			s.endSession(sess, true)
		}
	}
}
