package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"repro/internal/causal"
	"repro/internal/journal"
	"repro/internal/lockd"
	"repro/internal/native"
)

// stageSecs bounds how long a traced run keeps messages and call spans
// for the round-trip split.
const stageSecs = 2

// runTraced is the per-layer run: the first half of the run length
// measures an untraced system (the baseline for the tracing overhead
// and the runtime counters), the second half a traced one, whose taps,
// counters and call spans give the layer metrics. Unit-cost probes
// follow.
func runTraced(wl workload, o options, tmp string, fp fingerprint) (result, fingerprint, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	m := metrics{}

	sys, err := wl.setup(o.seed, false, tmp)
	if err != nil {
		return result{}, fp, fmt.Errorf("setup: %w", err)
	}
	rt0 := readRuntime()
	plain := drive(sys.slots, half)
	rt1 := readRuntime()
	violations := oracleViolations(sys, sys.finish())
	rt1.perCycle(rt0, plain.cycles, m)
	plain.tails(m, fp.Percentiles)

	tsys, err := wl.setup(o.seed, true, tmp)
	if err != nil {
		return result{}, fp, fmt.Errorf("traced setup: %w", err)
	}
	before := readLayers(tsys)
	if tsys.tracer != nil {
		// Round trips are staged over the first stageSecs of the
		// phase, which keeps the traced run's memory bounded; the
		// counters cover all of it.
		tsys.traceUntil = nowNs() + int64(min(half, stageSecs*time.Second))
		tsys.tracer.reset(256, tsys.traceUntil)
	}
	lag := sampleWriterLag(tsys.journals)
	traced := drive(tsys.slots, half)
	maxLag := lag()
	after := readLayers(tsys)
	var c capture
	if tsys.tracer != nil {
		c = tsys.tracer.freeze()
	}
	hbRTT := heartbeatRTT(tsys)
	conns := len(tsys.clients)
	rep := tsys.finish()
	violations = append(violations, oracleViolations(tsys, rep)...)

	cycles := float64(traced.cycles)
	after.report(before, cycles, m)
	m.set("journal.writer_lag_records", float64(maxLag), "count")
	m.set("journal.verify_s", rep.secs, "s")
	m.set("lockd.heartbeat_rtt_us", hbRTT, "us")
	reqSize, respSize := transportMetrics(tsys, c, cycles, m)
	var calls []callSpan
	for _, cs := range tsys.calls {
		calls = append(calls, cs...)
	}
	samples := stageMetrics(tsys, c, calls, m, fp.Percentiles)
	if len(samples) > 0 {
		if err := writeSpans(o.spans, samples, 10000); err != nil {
			return result{}, fp, fmt.Errorf("write spans: %w", err)
		}
	}
	m.set("bench.trace_overhead_frac", 1-traced.cyclesPerSec()/plain.cyclesPerSec(), "frac")
	attempts, failures := plain.attempts+traced.attempts, plain.failures+traced.failures
	m.set("bench.failed_frac", float64(failures)/float64(max(attempts, 1)), "frac")

	runProbes(m, tmp, c, conns, reqSize, respSize)

	fp.Slots, fp.Cycles, fp.Violations = len(tsys.slots), plain.cycles+traced.cycles, violations
	return result{Correct: len(violations) == 0, Attempted: attempts, Failed: failures, Metrics: m}, fp, nil
}

// runtimeSample is the Go runtime's cumulative allocation and CPU
// accounting at one instant.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	rs := runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 && s[1].Value.Kind() == rtmetrics.KindFloat64 {
		rs.gcCPU, rs.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return rs
}

func (r runtimeSample) perCycle(base runtimeSample, cycles int64, m metrics) {
	n := float64(max(cycles, 1))
	m.set("runtime.allocs_per_cycle", float64(r.mallocs-base.mallocs)/n, "count")
	m.set("runtime.alloc_bytes_per_cycle", float64(r.bytes-base.bytes)/n, "B")
	gc := 0.0
	if d := r.allCPU - base.allCPU; d > 0 {
		gc = (r.gcCPU - base.gcCPU) / d
	}
	m.set("runtime.gc_cpu_frac", gc, "frac")
}

// layerCounters is every cumulative counter the layers expose publicly,
// read at the start and end of the traced phase.
type layerCounters struct {
	lockd       lockd.Counters
	retries     int64
	reconnects  int64
	native      native.Stats
	maxWaiters  int64
	spans       int64
	flight      int64
	jAppended   uint64
	jDropped    uint64
	replicaTerm uint64
}

func readLayers(sys *system) layerCounters {
	var lc layerCounters
	if sys.leader != nil {
		lc.lockd = sys.leader.Counters()
	}
	for _, cl := range sys.clients {
		st := cl.Stats()
		lc.retries += st.Retries
		lc.reconnects += st.Reconnects
	}
	add := func(st native.Stats) {
		lc.native.Acquisitions += st.Acquisitions
		lc.native.Contended += st.Contended
		lc.native.WaitNanos += st.WaitNanos
		lc.maxWaiters = max(lc.maxWaiters, st.MaxWaiters)
	}
	for _, mu := range sys.mutexes {
		add(mu.Stats())
	}
	if reg := sys.leaderRegistry(); reg != nil {
		for _, snap := range reg.Snapshots() {
			if snap.Native != nil {
				add(*snap.Native)
			}
		}
	}
	lc.spans = int64(causal.Default.Len()) + causal.Default.Dropped()
	for _, l := range causal.DefaultFlight.Locks() {
		lc.flight += causal.DefaultFlight.Total(l)
	}
	for _, j := range sys.journals {
		st := j.Stats()
		lc.jAppended += st.Appended
		lc.jDropped += st.Dropped
	}
	if len(sys.nodes) > 0 {
		lc.replicaTerm = sys.nodes[sys.leaderIx].Term()
	}
	return lc
}

// report sets the counter-based layer metrics from the phase's deltas.
func (a layerCounters) report(b layerCounters, cycles float64, m metrics) {
	per := func(d float64) float64 {
		if cycles == 0 {
			return 0
		}
		return d / cycles
	}
	m.set("lockd.sheds", float64(a.lockd.Sheds-b.lockd.Sheds), "count")
	m.set("lockd.acquire_timeouts", float64(a.lockd.AcquireTimeouts-b.lockd.AcquireTimeouts), "count")
	m.set("lockd.stale_releases", float64(a.lockd.StaleReleases-b.lockd.StaleReleases), "count")
	attempts := 0.0
	if acq := float64(a.lockd.Acquires - b.lockd.Acquires); acq > 0 {
		attempts = (acq + float64(a.retries-b.retries)) / acq
	}
	m.set("lockclient.attempts_per_acquire", attempts, "count")
	m.set("lockclient.reconnects", float64(a.reconnects-b.reconnects), "count")

	acqs := float64(a.native.Acquisitions - b.native.Acquisitions)
	cont := float64(a.native.Contended - b.native.Contended)
	frac, wait := 0.0, 0.0
	if acqs > 0 {
		frac = cont / acqs
	}
	if cont > 0 {
		wait = float64(a.native.WaitNanos-b.native.WaitNanos) / cont / 1e3
	}
	m.set("native.contended_frac", frac, "frac")
	m.set("native.avg_wait_us", wait, "us")
	m.set("native.max_waiters", float64(a.maxWaiters), "count")

	m.set("causal.spans_per_cycle", per(float64(a.spans-b.spans)), "count")
	m.set("causal.flight_events_per_cycle", per(float64(a.flight-b.flight)), "count")

	app, drop := float64(a.jAppended-b.jAppended), float64(a.jDropped-b.jDropped)
	m.set("journal.records_per_cycle", per(app), "count")
	dropped := 0.0
	if app+drop > 0 {
		dropped = drop / (app + drop)
	}
	m.set("journal.dropped_frac", dropped, "frac")
	m.set("replica.elections", float64(a.replicaTerm), "count")
}

// sampleWriterLag polls the journals' appended-but-unwritten backlog
// until the returned stop function is called, which reports the
// largest backlog seen.
func sampleWriterLag(js []*journal.Journal) func() uint64 {
	if len(js) == 0 {
		return func() uint64 { return 0 }
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var worst uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			var lag uint64
			for _, j := range js {
				st := j.Stats()
				if st.Appended > st.Flushed {
					lag += st.Appended - st.Flushed
				}
			}
			worst = max(worst, lag)
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return worst
	}
}

// heartbeatRTT times raw heartbeat calls on the first client: the
// server's fast path with no lock work.
func heartbeatRTT(sys *system) float64 {
	if len(sys.clients) == 0 {
		return 0
	}
	ctx := context.Background()
	var rtts []float64
	for i := 0; i < 1000; i++ {
		t := nowNs()
		if _, err := sys.clients[0].Call(ctx, lockd.Request{Op: lockd.OpHeartbeat}); err != nil {
			break
		}
		rtts = append(rtts, float64(nowNs()-t)/1e3)
	}
	return median(rtts)
}

// transportMetrics reports the syscall-level shape of the client
// connections and returns the median request and response line sizes.
func transportMetrics(sys *system, c capture, cycles float64, m metrics) (reqSize, respSize int) {
	var clientWrites, serverWrites, reads, bytes, serverWriteNs int64
	var reqSizes, respSizes []float64
	var replRTT []float64
	var peerBytes, appends int64
	for _, t := range c.taps {
		switch {
		case t.role == "client":
			clientWrites += t.writes
			reads += t.reads
			bytes += t.bytesOut + t.bytesIn
			for _, msg := range t.out {
				reqSizes = append(reqSizes, float64(msg.size))
			}
			for _, msg := range t.in {
				respSizes = append(respSizes, float64(msg.size))
			}
		case t.role == "server" && !isPeerLink(t):
			serverWrites += t.writes
			serverWriteNs += t.writeNs
			reads += t.reads
		case t.role == "peer":
			// Peer links carry the leader's appends (and, only during
			// an election, votes): every message sent is an append.
			peerBytes += t.bytesOut + t.bytesIn
			appends += t.sent
			for _, r := range pairByID(t.out, t.in) {
				if r.op == lockd.OpReplAppend {
					replRTT = append(replRTT, float64(r.respAt-r.reqAt)/1e3)
				}
			}
		}
	}
	per := func(v int64) float64 {
		if cycles == 0 {
			return 0
		}
		return float64(v) / cycles
	}
	m.set("transport.client_writes_per_cycle", per(clientWrites), "count")
	m.set("transport.server_writes_per_cycle", per(serverWrites), "count")
	m.set("transport.reads_per_cycle", per(reads), "count")
	m.set("transport.bytes_per_cycle", per(bytes), "B")
	writeUs := 0.0
	if serverWrites > 0 {
		writeUs = float64(serverWriteNs) / float64(serverWrites) / 1e3
	}
	m.set("transport.server_write_us", writeUs, "us")
	m.set("replica.appends_per_cycle", per(appends), "count")
	m.set("replica.peer_bytes_per_cycle", per(peerBytes), "B")
	m.set("replica.append_rtt_p50_us", percentile(replRTT, 50).Value, "us")
	m.set("replica.append_rtt_p99_us", percentile(replRTT, 99).Value, "us")
	return int(median(reqSizes)), int(median(respSizes))
}

// stageMetrics splits every matched call into its five round-trip
// stages and reports each stage's median and tail per operation.
func stageMetrics(sys *system, c capture, calls []callSpan, m metrics, counts map[string]quantile) []stageSample {
	var repl []interval
	for _, t := range c.taps {
		if t.role != "peer" {
			continue
		}
		for _, r := range pairByID(t.out, t.in) {
			if r.op == lockd.OpReplAppend {
				repl = append(repl, interval{r.reqAt, r.respAt})
			}
		}
	}
	var samples []stageSample
	unmatched := 0
	if len(sys.ctaps) > 0 {
		samples, unmatched = stages(calls, sys.ctaps, c, repl)
	}
	frac := 0.0
	if len(calls) > 0 {
		frac = float64(unmatched) / float64(len(calls))
	}
	m.set("stage.unmatched_frac", frac, "frac")
	for _, op := range []string{lockd.OpAcquire, lockd.OpRelease} {
		cols := map[string][]float64{}
		for _, s := range samples {
			if s.op != op {
				continue
			}
			for name, v := range map[string]int64{
				"client_send": s.clientSend, "wire_in": s.wireIn, "server": s.server,
				"wire_out": s.wireOut, "client_recv": s.clientRecv, "server_self": s.serverSelf,
			} {
				cols[name] = append(cols[name], float64(v)/1e3)
			}
		}
		for _, name := range []string{"client_send", "wire_in", "server", "wire_out", "client_recv", "server_self"} {
			m.set(fmt.Sprintf("stage.%s.%s_p50_us", op, name), percentile(cols[name], 50).Value, "us")
			q := percentile(cols[name], 99)
			m.set(fmt.Sprintf("stage.%s.%s_p99_us", op, name), q.Value, "us")
			counts[fmt.Sprintf("stage.%s.%s_p99_us", op, name)] = q
		}
	}
	return samples
}
