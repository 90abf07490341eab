package lockd

import (
	"context"
	"errors"
	"net"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/native"
)

// This file is lockd's half of the replication contract. The replica
// layer itself (leases, elections, log shipping) lives in
// internal/replica; the server only knows three things about it:
//
//   - every client operation is gated on leadership (non-leaders answer
//     CodeNotLeader with a redirect hint);
//   - every state mutation — session open, grant, release, session
//     expiry, reconfigure — is Proposed to the replica layer and must
//     reach a quorum of learners before the client sees the ack, so a
//     promoted learner always resumes with a token floor >= anything
//     ever granted;
//   - role changes flow back in: promotion installs the replicated
//     shadow state (InstallReplicaState), demotion fences whatever the
//     old leader still holds (FenceSessions).

// ReplGate is a replica's answer to "may this server serve writes?".
type ReplGate struct {
	Leader     bool
	Term       uint64
	LeaderAddr string // redirect hint; empty mid-election
}

// Mutation is one replicated state change. The replica layer encodes it
// with the journal's record framing (journal.EncodeRecordFrames) for
// the log; learners decode and apply it to their shadow state.
type Mutation struct {
	Kind    journal.Kind // KindSessionOpen/End, KindAcquire/Release/OwnerDead, KindReconfig
	Lock    string       // empty for session open/end
	Agent   string       // client name of the acting session
	Session uint64
	Token   uint64
	Trace   uint64
	DurNs   int64 // lease (session-open) or wait/hold duration
	Policy  string
	Sched   string
	// HLC is the leader's hybrid logical clock at propose time (see
	// internal/hlc). It ships inside the log entry's record frames, so a
	// learner applying the entry advances its own clock past every event
	// the leader had seen — causal order survives the hop even when the
	// wall clocks disagree.
	HLC uint64
}

// Replica is the replication layer a Server defers to when configured.
// Implemented by internal/replica.Node; defined here so lockd does not
// import it (replica imports lockd for the wire types).
//
// Propose appends the mutation to the replication log and waits for a
// quorum of learner acks. Even when it returns an error (no quorum in
// time), the mutation stays in the local log and ships when
// connectivity returns — callers that must neutralize a failed grant
// append a compensating release rather than un-appending.
type Replica interface {
	Gate() ReplGate
	Propose(Mutation) error
	HandleRepl(Request) Response
}

// propose forwards a mutation to the replica layer, if any.
func (s *Server) propose(m Mutation) error {
	if s.cfg.Replica == nil {
		return nil
	}
	return s.cfg.Replica.Propose(m)
}

// proposeIfLeader is the best-effort variant for server-initiated paths
// (lease sweeps, fencing): a demoted replica must not propose, and a
// quorum failure must not block local recovery — the lease machinery
// converges the cluster instead.
func (s *Server) proposeIfLeader(m Mutation) {
	r := s.cfg.Replica
	if r == nil || !r.Gate().Leader {
		return
	}
	if err := r.Propose(m); err != nil {
		s.logf("lockd: propose %v for session %d: %v", m.Kind, m.Session, err)
	}
}

// journalSession records a session lifecycle event (no lock attached).
// Only meaningful under replication, where session state is part of the
// replicated history.
func (s *Server) journalSession(kind journal.Kind, id uint64, client string, lease time.Duration) {
	j := s.cfg.Journal
	if j == nil || s.cfg.Replica == nil {
		return
	}
	rec := journal.Record{
		Kind:   kind,
		Origin: journal.OriginLockd,
		AtNs:   s.cfg.Clock.PhysNow(),
		HLC:    s.cfg.Clock.Now(),
		DurNs:  int64(lease),
		Tag:    id,
	}
	if client != "" {
		rec.Agent = j.InternAgent(client)
	}
	j.Append(rec)
}

// ReplSession is one live session in a replica state snapshot.
type ReplSession struct {
	ID     uint64
	Client string
	Lease  time.Duration
	Held   map[string]uint64 // lock name -> fencing token
}

// ReplLock is one served lock in a replica state snapshot.
type ReplLock struct {
	Name          string
	Fence         uint64 // token floor: highest token ever granted
	HolderSession uint64 // 0 = free
	HolderToken   uint64
	Holder        string // holder's agent name, for the wait-for graph
	Policy        string // last reconfigured policy ("" = untouched)
	Sched         string
}

// ReplState is the shadow state a learner replays from the replication
// log, handed to the local server at promotion.
type ReplState struct {
	Term        uint64
	LastSession uint64
	Sessions    []ReplSession
	Locks       []ReplLock
}

// InstallReplicaState promotes this server to serving the replicated
// state: sessions are re-created with a fail-over grace period on their
// leases (one default lease on top of their own, so clients have time
// to find the new leader), token floors are raised, and held locks are
// re-acquired natively and bound to their sessions. Counters stay
// per-node. Idempotent with respect to already-present state.
func (s *Server) InstallReplicaState(st ReplState) {
	grace := s.cfg.DefaultLease
	s.mu.Lock()
	if st.LastSession > s.lastSession {
		s.lastSession = st.LastSession
	}
	s.mu.Unlock()
	for _, rs := range st.Sessions {
		lease := rs.Lease
		if lease <= 0 {
			lease = s.cfg.DefaultLease
		}
		sess := newSession(rs.ID, rs.Client, lease, time.Now().Add(lease+grace))
		for n, t := range rs.Held {
			sess.held[n] = t
		}
		s.mu.Lock()
		if _, exists := s.sessions[rs.ID]; !exists {
			s.sessions[rs.ID] = sess
		}
		s.mu.Unlock()
	}
	for _, rl := range st.Locks {
		lk, err := s.lock(rl.Name)
		if err != nil {
			s.logf("lockd: install replica lock %q: %v", rl.Name, err)
			continue
		}
		if rl.Policy != "" {
			if p, err := ParsePolicy(rl.Policy); err == nil {
				if err := lk.m.SetPolicy(p); err != nil {
					s.logf("lockd: install policy on %q: %v", rl.Name, err)
				}
			}
		}
		if rl.Sched != "" {
			if sc, err := ParseScheduler(rl.Sched); err == nil {
				if err := lk.m.SetScheduler(sc); err != nil {
					s.logf("lockd: install scheduler on %q: %v", rl.Name, err)
				}
			}
		}
		lk.mu.Lock()
		if lk.fence < rl.Fence {
			lk.fence = rl.Fence
		}
		needHold := rl.HolderSession != 0 && lk.holderSession == 0
		lk.mu.Unlock()
		if !needHold {
			continue
		}
		// Bind the replicated tenure: take the native mutex (free on a
		// fresh learner; carrying an owner-death note after a demotion
		// cycle) and record the holder.
		ctx, cancel := context.WithTimeout(s.ctx, time.Second)
		err = lk.m.AcquireCtx(ctx)
		cancel()
		if err != nil && !errors.Is(err, native.ErrOwnerDied) {
			s.logf("lockd: install holder of %q: %v", rl.Name, err)
			continue
		}
		lk.mu.Lock()
		lk.holderSession, lk.holderToken = rl.HolderSession, rl.HolderToken
		lk.holdTrace, lk.holdParent, lk.holdStart = 0, 0, time.Now()
		lk.mu.Unlock()
		s.cfg.Graph.SetHolder(rl.Name, rl.Holder)
	}
	s.logf("lockd: installed replica state: term %d, %d session(s), %d lock(s)",
		st.Term, len(st.Sessions), len(st.Locks))
}

// FenceSessions is the demotion half: an old-term leader expires every
// session it still carries, force-releasing held locks through the
// owner-death path, so a partitioned ex-leader can never keep minting
// grants against state the new term owns. Returns how many sessions
// were fenced.
func (s *Server) FenceSessions(reason string) int {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	for _, sess := range sessions {
		s.endSession(sess, true)
	}
	if len(sessions) > 0 {
		s.logf("lockd: fenced %d session(s): %s", len(sessions), reason)
	}
	return len(sessions)
}

// Kill stops the server abruptly — the in-process stand-in for SIGKILL
// in chaos scenarios: listener and conns close, in-flight acquisitions
// abort, background loops stop, but held locks are NOT released and no
// goodbye records are journaled. Telemetry entries are closed so test
// registries stay reusable.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	locks := make([]*servedLock, 0, len(s.locks))
	for _, lk := range s.locks {
		locks = append(locks, lk)
	}
	s.mu.Unlock()
	for _, lk := range locks {
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
}
