package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/lockclient"
	"repro/internal/lockd"
	"repro/internal/native"
	"repro/internal/replica"
	"repro/internal/telemetry"
)

// workload is one named traffic mix. setup builds a ready, warmed-up
// system from the seed; traced systems tap every connection.
type workload struct {
	name  string
	why   string
	setup func(seed int64, traced bool, tmp string) (*system, error)
}

var workloads = []workload{
	{"native-zipf", "in-process native.Mutex fast path and contended handoff, no wire, codec, recorder or journal", setupNative},
	{"lockd-spread", "one default lockd, 2 clients, 1 cycle each over 4096 uniform locks: wire, codec, sessions, HLC, causal", setupSpread},
	{"lockd-hot", "one default lockd, 2 clients x 8 outstanding cycles over 8 zipf locks: server queueing and handoff", setupHot},
	{"lockd-ha", "3 replicated in-process nodes with journals, 2 clients on the leader: replica, journal, hlc on the path", setupHA},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clientCount is the number of client connections (or, for native-zipf,
// driving goroutines): two, or fewer on a smaller host.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// system is one running instance of a workload.
type system struct {
	slots      []cycleFunc
	calls      [][]callSpan // per slot; nil on untraced systems
	traceUntil int64        // calls ending before this instant are kept
	oracle     *oracle

	// lockd workloads
	clients  []*lockclient.Client
	leader   *lockd.Server
	servers  []*lockd.Server
	nodes    []*replica.Node
	journals []*journal.Journal
	jdirs    []string
	regs     []*telemetry.Registry // per server, traced systems only
	leaderIx int                   // index of the leader in servers
	tracer   *tracer
	ctaps    []*connTap // client connection i's tap, guarded by tracer.mu

	// native-zipf
	mutexes  []*native.Mutex
	counters []int64 // unguarded per-lock counters
	total    []int64 // per-slot cycle totals, warm-up included
}

// zipfSeq draws n lock indices in [0, locks) with exponent s (s = 0
// draws uniformly).
func zipfSeq(seed int64, s float64, locks, n int) []int32 {
	r := rand.New(rand.NewSource(seed))
	var z *rand.Zipf
	if s > 0 {
		z = rand.NewZipf(r, s, 1, uint64(locks-1))
	}
	seq := make([]int32, n)
	for i := range seq {
		if z != nil {
			seq[i] = int32(z.Uint64())
		} else {
			seq[i] = int32(r.Intn(locks))
		}
	}
	return seq
}

const (
	nativeLocks = 64
	nativeSeq   = 1 << 20
	nativeWarm  = 1 << 17
	sampleEvery = 64 // native-zipf times one Lock/Unlock in this many
	csLoop      = 16 // iterations of the native critical section's loop
)

func setupNative(seed int64, _ bool, _ string) (*system, error) {
	n := clientCount()
	sys := &system{oracle: newOracle(nativeLocks), counters: make([]int64, nativeLocks), total: make([]int64, n)}
	for i := 0; i < nativeLocks; i++ {
		m, err := native.New(native.CombinedPolicy, native.FIFO)
		if err != nil {
			return nil, err
		}
		sys.mutexes = append(sys.mutexes, m)
	}
	scratch := make([]uint64, nativeLocks)
	for i := 0; i < n; i++ {
		i, seq := i, zipfSeq(seed*1000+int64(i), 1.1, nativeLocks, nativeSeq)
		pos := 0
		sys.slots = append(sys.slots, func(st *slotStats) {
			l := seq[pos&(nativeSeq-1)]
			pos++
			m := sys.mutexes[l]
			sample := pos%sampleEvery == 0
			var t0, t1, t2 int64
			if sample {
				t0 = nowNs()
			}
			m.Lock()
			if sample {
				t1 = nowNs()
			}
			sys.oracle.grant(int(l))
			sys.counters[l]++
			x := scratch[l]
			for k := uint64(0); k < csLoop; k++ {
				x = x*31 + k
			}
			scratch[l] = x
			sys.oracle.release(int(l))
			if sample {
				t2 = nowNs()
			}
			m.Unlock()
			if sample {
				st.sample(float64(t1-t0)/1e3, float64(nowNs()-t2)/1e3)
			}
			st.cycles++
			st.attempts += 2
			sys.total[i]++
		})
	}
	warm(sys.slots, nativeWarm)
	return sys, nil
}

// warm runs every slot for cycles cycles, concurrently, outside any
// measurement.
func warm(slots []cycleFunc, cycles int) {
	var wg sync.WaitGroup
	for _, cyc := range slots {
		wg.Add(1)
		go func(cyc cycleFunc) {
			defer wg.Done()
			var st slotStats
			for k := 0; k < cycles; k++ {
				cyc(&st)
			}
		}(cyc)
	}
	wg.Wait()
}

// lockdSlots builds the closed-loop slots of the lockd workloads:
// perClient slots on each client, drawing from names by seq. Slots of
// one client never ask for the same lock at once: an acquire arriving
// while its own session holds the lock is answered with the existing
// grant (a lost-reply retry), so two slots would both hold it. Each
// client therefore serializes its own slots per lock before going to
// the server, as any client multiplexing one session must. Acquire
// latency includes that local wait.
func (sys *system) lockdSlots(seed int64, names []string, zipfS float64, perClient int) {
	ctx := context.Background()
	sys.oracle = newOracle(len(names))
	for ci, cl := range sys.clients {
		var gates []sync.Mutex
		if perClient > 1 {
			gates = make([]sync.Mutex, len(names))
		}
		for k := 0; k < perClient; k++ {
			slot := len(sys.slots)
			ci, cl := ci, cl
			seq := zipfSeq(seed*1000+int64(slot), zipfS, len(names), 1<<16)
			pos := 0
			sys.slots = append(sys.slots, func(st *slotStats) {
				l := seq[pos&(1<<16-1)]
				pos++
				t0 := nowNs()
				if gates != nil {
					gates[l].Lock()
					defer gates[l].Unlock()
				}
				c0 := nowNs()
				h, err := cl.Acquire(ctx, names[l])
				t1 := nowNs()
				st.attempts++
				if err != nil {
					st.failures++
					return
				}
				sys.oracle.grant(int(l))
				sys.oracle.fence(int(l), h.Token)
				sys.oracle.release(int(l))
				t2 := nowNs()
				err = cl.Release(ctx, h)
				t3 := nowNs()
				st.attempts++
				if err != nil {
					st.failures++
					return
				}
				st.sample(float64(t1-t0)/1e3, float64(t3-t2)/1e3)
				st.cycles++
				if sys.calls != nil && t3 < sys.traceUntil {
					sys.calls[slot] = append(sys.calls[slot],
						callSpan{client: ci, op: lockd.OpAcquire, lock: names[l], token: h.Token, start: c0, end: t1},
						callSpan{client: ci, op: lockd.OpRelease, lock: names[l], token: h.Token, start: t2, end: t3})
				}
			})
		}
	}
	if sys.tracer != nil {
		sys.calls = make([][]callSpan, len(sys.slots))
	}
}

// sweep acquires and releases every name once, the clients splitting
// the names between them, so lazily created server state exists before
// the measurement starts.
func (sys *system) sweep(names []string) error {
	ctx := context.Background()
	errs := make(chan error, len(sys.clients))
	for ci, cl := range sys.clients {
		go func(ci int, cl *lockclient.Client) {
			for i := ci; i < len(names); i += len(sys.clients) {
				h, err := cl.Acquire(ctx, names[i])
				if err == nil {
					err = cl.Release(ctx, h)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(ci, cl)
	}
	var first error
	for range sys.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func lockNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return names
}

// serve starts one lockd with the zero Config plus the given replica
// and journal; traced servers tap accepted connections and register
// their locks so the native mutexes' Stats can be read.
func (sys *system) serve(rep lockd.Replica, jr *journal.Journal) (*lockd.Server, error) {
	cfg := lockd.Config{Journal: jr, Replica: rep}
	if sys.tracer != nil {
		reg := telemetry.NewRegistry()
		cfg.Registry = reg
		sys.regs = append(sys.regs, reg)
		cfg.WrapConn = func(c net.Conn) net.Conn { return sys.tracer.wrap("server", c) }
	}
	srv, err := lockd.Serve("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	sys.servers = append(sys.servers, srv)
	return srv, nil
}

// dial connects clientCount default-option clients to addr.
func (sys *system) dial(addr string) error {
	if sys.tracer != nil {
		sys.ctaps = make([]*connTap, clientCount())
	}
	for i := 0; i < clientCount(); i++ {
		var o lockclient.Options
		if sys.tracer != nil {
			i := i
			o.Dial = func(a string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", a, 5*time.Second)
				if err != nil {
					return nil, err
				}
				tc := sys.tracer.wrap("client", c).(*tapConn)
				sys.tracer.mu.Lock()
				sys.ctaps[i] = tc.tap
				sys.tracer.mu.Unlock()
				return tc, nil
			}
		}
		cl, err := lockclient.Dial(addr, o)
		if err != nil {
			return err
		}
		sys.clients = append(sys.clients, cl)
	}
	return nil
}

func newLockdSystem(traced bool) *system {
	sys := &system{}
	if traced {
		sys.tracer = &tracer{}
	}
	return sys
}

func setupSpread(seed int64, traced bool, _ string) (*system, error) {
	sys := newLockdSystem(traced)
	srv, err := sys.serve(nil, nil)
	if err != nil {
		return nil, err
	}
	sys.leader = srv
	names := lockNames("spread-", 4096)
	if err := sys.dial(srv.Addr()); err != nil {
		sys.shutdown()
		return nil, err
	}
	sys.lockdSlots(seed, names, 0, 1)
	if err := sys.sweep(names); err != nil {
		sys.shutdown()
		return nil, err
	}
	return sys, nil
}

func setupHot(seed int64, traced bool, _ string) (*system, error) {
	sys := newLockdSystem(traced)
	srv, err := sys.serve(nil, nil)
	if err != nil {
		return nil, err
	}
	sys.leader = srv
	names := lockNames("hot-", 8)
	if err := sys.dial(srv.Addr()); err != nil {
		sys.shutdown()
		return nil, err
	}
	sys.lockdSlots(seed, names, 1.2, 8)
	if err := sys.sweep(names); err != nil {
		sys.shutdown()
		return nil, err
	}
	return sys, nil
}

func setupHA(seed int64, traced bool, tmp string) (*system, error) {
	sys := newLockdSystem(traced)
	var peers []replica.Peer
	for id := 1; id <= 3; id++ {
		dir, err := os.MkdirTemp(tmp, fmt.Sprintf("node%d-", id))
		if err != nil {
			sys.shutdown()
			return nil, err
		}
		jr, err := journal.Open(journal.Config{Dir: dir, MaxSegments: -1})
		if err != nil {
			sys.shutdown()
			return nil, err
		}
		sys.jdirs = append(sys.jdirs, dir)
		sys.journals = append(sys.journals, jr)
		rc := replica.Config{ID: id, Seed: seed, Journal: jr}
		if traced {
			rc.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return sys.tracer.wrap("peer", c), nil
			}
		}
		node := replica.New(rc)
		sys.nodes = append(sys.nodes, node)
		srv, err := sys.serve(node, jr)
		if err != nil {
			sys.shutdown()
			return nil, err
		}
		peers = append(peers, replica.Peer{ID: id, Addr: srv.Addr()})
	}
	for i, n := range sys.nodes {
		n.Start(sys.servers[i], peers)
	}
	deadline := time.Now().Add(20 * time.Second)
	for sys.leader == nil {
		if time.Now().After(deadline) {
			sys.shutdown()
			return nil, fmt.Errorf("lockd-ha: no leader elected within 20s")
		}
		time.Sleep(time.Millisecond)
		for i, n := range sys.nodes {
			if n.Gate().Leader {
				sys.leader, sys.leaderIx = sys.servers[i], i
			}
		}
	}
	names := lockNames("ha-", 4096)
	if err := sys.dial(sys.leader.Addr()); err != nil {
		sys.shutdown()
		return nil, err
	}
	sys.lockdSlots(seed, names, 0, 1)
	if err := sys.sweep(names); err != nil {
		sys.shutdown()
		return nil, err
	}
	return sys, nil
}

// leaderRegistry is the registry of the server the clients use.
func (sys *system) leaderRegistry() *telemetry.Registry {
	if len(sys.regs) == 0 {
		return nil
	}
	return sys.regs[sys.leaderIx]
}

// shutdown stops clients, replicas, servers and journals, in that
// order. Safe on a partly built system.
func (sys *system) shutdown() {
	for _, cl := range sys.clients {
		cl.Close()
	}
	if len(sys.nodes) > 0 && len(sys.clients) > 0 {
		// Let the leader's heartbeats carry the last entries to a
		// learner that was not in the quorum.
		time.Sleep(100 * time.Millisecond)
	}
	for _, n := range sys.nodes {
		n.Close()
	}
	for _, s := range sys.servers {
		s.Close()
	}
	for _, j := range sys.journals {
		j.Close()
	}
	sys.clients, sys.nodes, sys.servers, sys.journals = nil, nil, nil, nil
}

// removeJournals deletes the system's journal directories.
func (sys *system) removeJournals() {
	for _, d := range sys.jdirs {
		os.RemoveAll(d)
	}
}

// verifyReport is the end-of-run output check beyond the per-cycle
// oracle.
type verifyReport struct {
	violations []string
	drops      int64
	records    int
	secs       float64
}

// finish shuts the system down and checks its outputs: on native-zipf
// the unguarded counters must sum to the cycles run; on lockd-ha the
// merged node journals must verify clean in HLC order.
func (sys *system) finish() verifyReport {
	sys.shutdown()
	var rep verifyReport
	if sys.counters != nil {
		var sum, cycles int64
		for _, c := range sys.counters {
			sum += c
		}
		for _, t := range sys.total {
			cycles += t
		}
		if sum != cycles {
			rep.violations = append(rep.violations, fmt.Sprintf("mutual exclusion: unguarded counters sum to %d over %d cycles", sum, cycles))
		}
	}
	if len(sys.jdirs) > 0 {
		start := time.Now()
		var procs []journal.ProcEntries
		for i, d := range sys.jdirs {
			entries, _, err := journal.ReadDir(d)
			if err != nil {
				rep.violations = append(rep.violations, fmt.Sprintf("journal: read node %d: %v", i+1, err))
				continue
			}
			procs = append(procs, journal.ProcEntries{Proc: fmt.Sprintf("node-%d", i+1), Entries: entries})
		}
		vr := journal.Verify(procs)
		rep.secs = time.Since(start).Seconds()
		rep.drops, rep.records = vr.Drops, vr.Records
		for _, v := range vr.Violations {
			rep.violations = append(rep.violations, "journal: "+v)
		}
		sys.removeJournals()
	}
	return rep
}

// tempRoot is where lockd-ha keeps its journals: inside the working
// directory, removed when the run ends.
func tempRoot() (string, error) {
	root := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
