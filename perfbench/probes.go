package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockd"
	"repro/internal/native"
)

// This file holds the unit-cost probes: each times one layer's public
// call in a tight loop on a single goroutine and reports the median
// nanoseconds and the allocations per call.

const probeReps = 5

// unitCost calls f(i) for i in [0, n) probeReps times and returns the
// median ns per call and the allocations per call.
func unitCost(n int, f func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	var times []float64
	for r := 0; r < probeReps; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		times = append(times, float64(d.Nanoseconds())/float64(n))
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	return median(times), allocs
}

// runProbes sets every unit-cost metric. The wire and echo probes need
// the traced run's messages; without them (native-zipf) they report 0.
func runProbes(m metrics, tmp string, c capture, conns, reqSize, respSize int) {
	wireProbes(m, c)
	echo := 0.0
	if conns > 0 && reqSize > 0 && respSize > 0 {
		echo = echoRTT(conns, reqSize, respSize, 300*time.Millisecond)
	}
	m.set("transport.echo_rtt_us", echo, "us")

	clk, remote := hlc.NewClock(), hlc.NewClock()
	stamps := make([]hlc.Time, 1024)
	for i := range stamps {
		stamps[i] = remote.Now()
	}
	ns, al := unitCost(200000, func(int) { clk.Now() })
	m.set("hlc.now_ns", ns, "ns")
	m.set("hlc.now_allocs", al, "count")
	ns, al = unitCost(200000, func(i int) { clk.Update(stamps[i&1023]) })
	m.set("hlc.update_ns", ns, "ns")
	m.set("hlc.update_allocs", al, "count")

	rec := causal.NewRecorder(8192)
	span := causal.Span{
		Trace: causal.NewTraceID(), ID: causal.NewSpanID(), Parent: causal.NewSpanID(),
		Name: "queue-wait", Actor: "session-1", Object: "spread-0001",
		Start: 1, End: 2, Attrs: map[string]string{"outcome": "acquired", "token": "12"},
	}
	ns, al = unitCost(200000, func(int) { rec.Record(span) })
	m.set("causal.record_ns", ns, "ns")
	m.set("causal.record_allocs", al, "count")
	fl := causal.NewFlight(256)
	ns, al = unitCost(200000, func(int) { fl.Record("spread-0001", "acquire", "session-1", "token=12 trace=00000000000000ab") })
	m.set("causal.flight_record_ns", ns, "ns")
	m.set("causal.flight_record_allocs", al, "count")
	g := causal.NewGraph()
	ns, al = unitCost(50000, func(int) {
		// One cycle's edges, as lockd updates them: wait, grant, release.
		g.AddWait("session-1", "spread-0001")
		g.RemoveWait("session-1", "spread-0001")
		g.SetHolder("spread-0001", "session-1")
		g.SetHolder("spread-0001", "")
	})
	m.set("causal.graph_edge_ns", ns, "ns")
	m.set("causal.graph_edge_allocs", al, "count")

	ns, al = journalAppendCost(tmp)
	m.set("journal.append_ns", ns, "ns")
	m.set("journal.append_allocs", al, "count")

	mu := native.MustNew(native.CombinedPolicy, native.FIFO)
	var smu sync.Mutex
	nns, al := unitCost(1000000, func(int) { mu.Lock(); mu.Unlock() })
	sns, _ := unitCost(1000000, func(int) { smu.Lock(); smu.Unlock() })
	m.set("native.cycle_ns", nns, "ns")
	m.set("native.cycle_allocs", al, "count")
	m.set("native.sync_ratio", nns/sns, "ratio")
}

// journalAppendCost times Append on a journal configured as lockd-ha's
// (default rings, unlimited retention), in batches that fit the rings so
// no record is dropped; the writer drains between batches, untimed.
func journalAppendCost(tmp string) (ns, allocs float64) {
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return 0, 0
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Config{Dir: dir, MaxSegments: -1})
	if err != nil {
		return 0, 0
	}
	defer j.Close()
	var locks [4]uint32
	for i := range locks {
		locks[i] = j.InternLock("spread-000" + string(rune('0'+i)))
	}
	agent := j.InternAgent("session-1")
	const batch = 512
	var times, allocsPer []float64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < 40; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < batch; i++ {
			j.Append(journal.Record{Kind: journal.KindAcquire, Origin: journal.OriginLockd,
				AtNs: int64(i), Token: uint64(i), Tag: 1, Trace: 7, Lock: locks[i&3], Agent: agent})
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		times = append(times, float64(d.Nanoseconds())/batch)
		allocsPer = append(allocsPer, float64(ms1.Mallocs-ms0.Mallocs)/batch)
		j.Flush()
	}
	return median(times), median(allocsPer)
}

// wireProbes times encoding/json on the request and response values the
// traced run actually sent, as lockd and lockclient use it: an Encoder
// per connection for writes, Unmarshal per line for reads.
func wireProbes(m metrics, c capture) {
	var reqLines, respLines [][]byte
	for _, t := range c.taps {
		if t.role == "client" {
			reqLines = append(reqLines, t.rawOut...)
			respLines = append(respLines, t.rawIn...)
		}
	}
	if len(reqLines) == 0 || len(respLines) == 0 {
		for _, k := range []string{"req_encode_ns", "req_decode_ns", "resp_encode_ns", "resp_decode_ns", "allocs_per_rpc"} {
			unit := "ns"
			if k == "allocs_per_rpc" {
				unit = "count"
			}
			m.set("wire."+k, 0, unit)
		}
		return
	}
	reqs := make([]lockd.Request, len(reqLines))
	for i, l := range reqLines {
		json.Unmarshal(l, &reqs[i]) //nolint:errcheck // lines came off a working connection
	}
	resps := make([]lockd.Response, len(respLines))
	for i, l := range respLines {
		json.Unmarshal(l, &resps[i]) //nolint:errcheck // as above
	}
	enc := json.NewEncoder(io.Discard)
	const n = 20000
	reqEnc, a1 := unitCost(n, func(i int) { enc.Encode(&reqs[i%len(reqs)]) }) //nolint:errcheck // io.Discard
	reqDec, a2 := unitCost(n, func(i int) {
		var r lockd.Request
		json.Unmarshal(reqLines[i%len(reqLines)], &r) //nolint:errcheck // known-good lines
	})
	respEnc, a3 := unitCost(n, func(i int) { enc.Encode(&resps[i%len(resps)]) }) //nolint:errcheck // io.Discard
	respDec, a4 := unitCost(n, func(i int) {
		var r lockd.Response
		json.Unmarshal(respLines[i%len(respLines)], &r) //nolint:errcheck // known-good lines
	})
	m.set("wire.req_encode_ns", reqEnc, "ns")
	m.set("wire.req_decode_ns", reqDec, "ns")
	m.set("wire.resp_encode_ns", respEnc, "ns")
	m.set("wire.resp_decode_ns", respDec, "ns")
	m.set("wire.allocs_per_rpc", a1+a2+a3+a4, "count")
}

// echoRTT runs a raw loopback echo over conns connections for d: each
// connection sends a reqSize-byte line and waits for a respSize-byte
// line back, in a closed loop. It returns the median round trip in µs —
// the floor under any lockd round trip of the same sizes.
func echoRTT(conns, reqSize, respSize int, d time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	resp := append(bytes.Repeat([]byte{'x'}, respSize-1), '\n')
	req := append(bytes.Repeat([]byte{'y'}, reqSize-1), '\n')
	var srv sync.WaitGroup
	var served []net.Conn
	var smu sync.Mutex
	srv.Add(1)
	go func() {
		defer srv.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			smu.Lock()
			served = append(served, c)
			smu.Unlock()
			srv.Add(1)
			go func() {
				defer srv.Done()
				br := bufio.NewReader(c)
				for {
					if _, err := br.ReadSlice('\n'); err != nil {
						return
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	var cli sync.WaitGroup
	rtts := make([][]float64, conns)
	deadline := time.Now().Add(d)
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			continue
		}
		cli.Add(1)
		go func(i int, c net.Conn) {
			defer cli.Done()
			defer c.Close()
			br := bufio.NewReader(c)
			for time.Now().Before(deadline) {
				t := nowNs()
				if _, err := c.Write(req); err != nil {
					return
				}
				if _, err := br.ReadSlice('\n'); err != nil {
					return
				}
				rtts[i] = append(rtts[i], float64(nowNs()-t)/1e3)
			}
		}(i, c)
	}
	cli.Wait()
	ln.Close()
	smu.Lock()
	for _, c := range served {
		c.Close()
	}
	smu.Unlock()
	srv.Wait()
	var all []float64
	for _, r := range rtts {
		all = append(all, r...)
	}
	return median(all)
}
