package lockd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/journal"
)

// quorumless is a Replica that stays leader but can never replicate a
// grant: every acquire proposal fails, everything else succeeds.
type quorumless struct{}

func (quorumless) Gate() ReplGate { return ReplGate{Leader: true, Term: 1} }

func (quorumless) Propose(m Mutation) error {
	if m.Kind == journal.KindAcquire {
		return errors.New("no quorum")
	}
	return nil
}

func (quorumless) HandleRepl(req Request) Response {
	return Response{ID: req.ID, Code: CodeBadRequest}
}

// viewsHarness is a server whose journal, flight ring, wait-for graph
// and span recorder are private to one test, driven through the
// handlers directly so every exit path is reached deterministically.
type viewsHarness struct {
	t      *testing.T
	s      *Server
	j      *journal.Journal
	dir    string
	flight *causal.Flight
	graph  *causal.Graph
	traces int
}

func newViewsHarness(t *testing.T, maxWaiters int, rep Replica) *viewsHarness {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	h := &viewsHarness{t: t, j: j, dir: dir, flight: causal.NewFlight(256), graph: causal.NewGraph()}
	// A long lease keeps the sweeper out of the way: expiries are
	// driven by the cases themselves.
	h.s, err = Serve("127.0.0.1:0", Config{
		MaxWaiters: maxWaiters, DefaultLease: time.Minute, Replica: rep, Journal: j,
		Flight: h.flight, Graph: h.graph, Recorder: causal.NewRecorder(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.s.Close() })
	return h
}

func (h *viewsHarness) hello(client string) *session {
	h.t.Helper()
	resp := h.s.handleHello(Request{Op: OpHello, Client: client})
	if !resp.OK {
		h.t.Fatalf("hello %s: %+v", client, resp)
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sessions[resp.Session]
}

// acquire runs one acquisition carrying a fresh client trace id.
func (h *viewsHarness) acquire(ctx context.Context, sess *session, waitMs int64) Response {
	h.traces++
	return h.s.handleAcquire(ctx, Request{
		Op: OpAcquire, Session: sess.id, Lock: "L", WaitMs: waitMs,
		TraceID: causal.TraceID(1000 + h.traces).String(),
	})
}

// acquireAsync starts an acquisition on its own goroutine and returns
// once it is parked on the lock.
func (h *viewsHarness) acquireAsync(ctx context.Context, sess *session) <-chan Response {
	h.t.Helper()
	h.traces++
	req := Request{Op: OpAcquire, Session: sess.id, Lock: "L", TraceID: causal.TraceID(1000 + h.traces).String()}
	lk, err := h.s.lock("L")
	if err != nil {
		h.t.Fatal(err)
	}
	before := lk.m.Waiters()
	out := make(chan Response, 1)
	go func() { out <- h.s.handleAcquire(ctx, req) }()
	for deadline := time.Now().Add(5 * time.Second); lk.m.Waiters() == before; {
		if time.Now().After(deadline) {
			h.t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

func (h *viewsHarness) release(sess *session, tok uint64) {
	h.t.Helper()
	if resp := h.s.handleRelease(Request{Op: OpRelease, Session: sess.id, Lock: "L", Token: tok}); !resp.OK || resp.Code != "" {
		h.t.Fatalf("release token %d: %+v", tok, resp)
	}
}

func mustGrant(t *testing.T, resp Response) uint64 {
	t.Helper()
	if !resp.OK || resp.Token == 0 {
		t.Fatalf("acquire not granted: %+v", resp)
	}
	return resp.Token
}

func wantCode(t *testing.T, resp Response, code string) {
	t.Helper()
	if resp.Code != code {
		t.Fatalf("acquire answered %+v, want code %q", resp, code)
	}
}

// TestTransitionViewsAgree drives every way a lockd acquisition or
// tenure can end and checks the server's views against each other: the
// journal and the flight ring hold the same transition sequence for the
// lock, every journaled wait has exactly one exit for its session and
// trace, and the wait-for graph ends empty.
func TestTransitionViewsAgree(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name       string
		maxWaiters int
		replica    Replica
		run        func(h *viewsHarness)
		want       []string // journal kind/agent sequence for the lock
	}{
		{
			name: "grant-release",
			run: func(h *viewsHarness) {
				a := h.hello("a")
				h.release(a, mustGrant(h.t, h.acquire(ctx, a, 0)))
			},
			want: []string{"wait/a", "acquire/a", "release/a"},
		},
		{
			name: "bye",
			run: func(h *viewsHarness) {
				a := h.hello("a")
				mustGrant(h.t, h.acquire(ctx, a, 0))
				h.s.handleBye(Request{Op: OpBye, Session: a.id})
			},
			want: []string{"wait/a", "acquire/a", "release/a"},
		},
		{
			name: "lease-expiry-force-release",
			run: func(h *viewsHarness) {
				a := h.hello("a")
				mustGrant(h.t, h.acquire(ctx, a, 0))
				h.s.endSession(a, true)
			},
			want: []string{"wait/a", "acquire/a", "owner-dead/a"},
		},
		{
			name: "timeout",
			run: func(h *viewsHarness) {
				a, b := h.hello("a"), h.hello("b")
				tok := mustGrant(h.t, h.acquire(ctx, a, 0))
				wantCode(h.t, h.acquire(ctx, b, 20), CodeTimeout)
				h.release(a, tok)
			},
			want: []string{"wait/a", "acquire/a", "wait/b", "timeout/b", "release/a"},
		},
		{
			name: "shutdown-abort",
			run: func(h *viewsHarness) {
				a, b := h.hello("a"), h.hello("b")
				mustGrant(h.t, h.acquire(ctx, a, 0))
				waiter := h.acquireAsync(h.s.ctx, b)
				h.s.Close()
				wantCode(h.t, <-waiter, CodeShutdown)
			},
			// Close gives back a's tenure without a release record.
			want: []string{"wait/a", "acquire/a", "wait/b", "abort/b"},
		},
		{
			name:       "shed",
			maxWaiters: 1,
			run: func(h *viewsHarness) {
				a, b, c := h.hello("a"), h.hello("b"), h.hello("c")
				tok := mustGrant(h.t, h.acquire(ctx, a, 0))
				waiter := h.acquireAsync(ctx, b)
				wantCode(h.t, h.acquire(ctx, c, 0), CodeOverloaded)
				h.release(a, tok)
				h.release(b, mustGrant(h.t, <-waiter))
			},
			want: []string{"wait/a", "acquire/a", "wait/b", "abort/c", "release/a", "acquire/b", "release/b"},
		},
		{
			name: "expired-while-waiting",
			run: func(h *viewsHarness) {
				a, b := h.hello("a"), h.hello("b")
				tok := mustGrant(h.t, h.acquire(ctx, a, 0))
				waiter := h.acquireAsync(ctx, b)
				h.s.endSession(b, true)
				h.release(a, tok)
				wantCode(h.t, <-waiter, CodeExpired)
			},
			want: []string{"wait/a", "acquire/a", "wait/b", "release/a", "abort/b"},
		},
		{
			name: "bad-wait-hint",
			run: func(h *viewsHarness) {
				a := h.hello("a")
				resp := h.s.handleAcquire(ctx, Request{Op: OpAcquire, Session: a.id, Lock: "L", WaitHint: "nap"})
				wantCode(h.t, resp, CodeBadRequest)
			},
			// Rejected before it queues: nothing to record.
			want: nil,
		},
		{
			name:    "quorum-loss-abort",
			replica: quorumless{},
			run: func(h *viewsHarness) {
				a := h.hello("a")
				wantCode(h.t, h.acquire(ctx, a, 0), CodeUnavailable)
			},
			want: []string{"wait/a", "abort/a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newViewsHarness(t, tc.maxWaiters, tc.replica)
			tc.run(h)

			h.j.Flush()
			entries, _, err := journal.ReadDir(h.dir)
			if err != nil {
				t.Fatal(err)
			}
			var jseq []string
			var lockRecs []journal.Entry
			for _, e := range entries {
				if e.LockName != "L" {
					continue
				}
				lockRecs = append(lockRecs, e)
				jseq = append(jseq, e.Kind.String()+"/"+e.AgentName)
			}
			var fseq []string
			for _, ev := range h.flight.Events("L") {
				fseq = append(fseq, ev.Kind+"/"+ev.Actor)
			}
			if !reflect.DeepEqual(jseq, tc.want) {
				t.Errorf("journal sequence = %v, want %v", jseq, tc.want)
			}
			if !reflect.DeepEqual(fseq, jseq) {
				t.Errorf("flight sequence %v disagrees with journal %v", fseq, jseq)
			}
			if err := waitsPaired(lockRecs); err != nil {
				t.Error(err)
			}
			if snap := h.graph.Snapshot(); len(snap.Waits) != 0 || len(snap.Holders) != 0 {
				t.Errorf("wait-for graph not empty at the end: %+v", snap)
			}
		})
	}
}

// waitsPaired checks that every journaled wait is followed by exactly
// one acquire, timeout or abort for the same session and trace.
func waitsPaired(recs []journal.Entry) error {
	for i, w := range recs {
		if w.Kind != journal.KindWait {
			continue
		}
		exits := 0
		for _, e := range recs[i+1:] {
			if e.Tag != w.Tag || e.Trace != w.Trace {
				continue
			}
			switch e.Kind {
			case journal.KindAcquire, journal.KindTimeout, journal.KindAbort:
				exits++
			}
		}
		if exits != 1 {
			return fmt.Errorf("wait of session %d trace %x has %d exits, want 1", w.Tag, w.Trace, exits)
		}
	}
	return nil
}
