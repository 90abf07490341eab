package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"testing"

	"repro/internal/lockd"
)

func line(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// chunks splits b into pieces of the given sizes, cycling through them.
func chunks(b []byte, sizes ...int) [][]byte {
	var out [][]byte
	for i := 0; len(b) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

func TestLineSplitterReassemblesAcrossChunks(t *testing.T) {
	stream := []byte("first\nsecond line\n\nthird")
	for _, sizes := range [][]int{{1}, {2, 5}, {7}, {len(stream)}} {
		var s lineSplitter
		var got []string
		for _, c := range chunks(stream, sizes...) {
			s.feed(c, func(l []byte) { got = append(got, string(l)) })
		}
		want := []string{"first", "second line", ""}
		if len(got) != len(want) {
			t.Fatalf("sizes %v: lines %q, want %q", sizes, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sizes %v: lines %q, want %q", sizes, got, want)
			}
		}
		if string(s.partial) != "third" {
			t.Fatalf("sizes %v: partial %q, want the unterminated tail", sizes, s.partial)
		}
	}
}

// Requests and responses written as JSON lines and read back in small,
// misaligned Read calls through a tapped connection must be reassembled
// and paired by id, with the fields the stage join needs intact.
func TestTapPairsSplitRequestsAndResponsesByID(t *testing.T) {
	reqs := []lockd.Request{
		{ID: 7, Op: lockd.OpAcquire, Session: 3, Lock: "spread-0042",
			TraceID: "00000000000000ff", ParentSpan: "0000000000000abc", Attempt: 1, HLC: 1 << 40},
		{ID: 8, Op: lockd.OpHeartbeat, Session: 3},
		{ID: 9, Op: lockd.OpRelease, Session: 3, Lock: "spread-0042", Token: 12},
	}
	resps := []lockd.Response{ // out of order, as lockd may answer
		{ID: 8, OK: true, Session: 3, LeaseMs: 2000},
		{ID: 7, OK: true, Token: 12, ServerSpan: "0000000000000def", HLC: 1 << 41, WallNs: 5},
		{ID: 9, OK: true, Token: 12},
	}
	var reqStream, respStream []byte
	for _, r := range reqs {
		reqStream = append(reqStream, line(t, r)...)
	}
	for _, r := range resps {
		respStream = append(respStream, line(t, r)...)
	}

	var tr tracer
	local, remote := net.Pipe()
	conn := tr.wrap("client", local)
	tr.reset(2, math.MaxInt64)
	done := make(chan error, 1)
	go func() {
		// The far end writes responses in odd-sized pieces.
		for _, c := range chunks(respStream, 3, 11, 1, 40) {
			if _, err := remote.Write(c); err != nil {
				done <- err
				return
			}
		}
		done <- remote.Close()
	}()
	go io.Copy(io.Discard, remote) //nolint:errcheck // drains the requests
	for _, c := range chunks(reqStream, 17, 5) {
		if _, err := conn.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 9)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	conn.Close()

	c := tr.freeze()
	tap := c.taps[0]
	if len(tap.out) != 3 || len(tap.in) != 3 {
		t.Fatalf("tap saw %d requests, %d responses; want 3 and 3", len(tap.out), len(tap.in))
	}
	if tap.sent != 3 {
		t.Fatalf("tap counted %d requests sent, want 3", tap.sent)
	}
	if tap.bytesOut != int64(len(reqStream)) || tap.bytesIn != int64(len(respStream)) {
		t.Fatalf("bytes out/in %d/%d, want %d/%d", tap.bytesOut, tap.bytesIn, len(reqStream), len(respStream))
	}
	if len(tap.rawOut) != 2 || string(tap.rawOut[0]) != string(line(t, reqs[0])[:len(line(t, reqs[0]))-1]) {
		t.Fatalf("raw capture %q, want the first two request lines verbatim", tap.rawOut)
	}
	rpcs := pairByID(tap.out, tap.in)
	if len(rpcs) != 3 {
		t.Fatalf("paired %d rpcs, want 3", len(rpcs))
	}
	acq := rpcs[7]
	if acq.op != lockd.OpAcquire || acq.lock != "spread-0042" || acq.token != 12 {
		t.Fatalf("acquire rpc %+v: want op, lock and the granted token", acq)
	}
	if rel := rpcs[9]; rel.op != lockd.OpRelease || rel.token != 12 || rel.lock != "spread-0042" {
		t.Fatalf("release rpc %+v", rel)
	}
	if hb := rpcs[8]; hb.op != lockd.OpHeartbeat || tap.in[0].size != len(line(t, resps[0])) {
		t.Fatalf("heartbeat rpc %+v", hb)
	}
	if acq.respAt < acq.reqAt {
		t.Fatalf("acquire answered before it was sent: %+v", acq)
	}
}

// The stage join: client and server taps of one connection, plus the
// slot's view of the call, give five stages that add up to the call.
func TestStagesSplitACallAcrossBothSides(t *testing.T) {
	client := &connTap{role: "client", local: "127.0.0.1:5000", remote: "127.0.0.1:7000",
		out: []wireMsg{{at: 110, id: 1, op: "acquire", lock: "a"}, {at: 500, id: 2, op: "release", lock: "a", token: 4}},
		in:  []wireMsg{{at: 190, id: 1, token: 4}, {at: 560, id: 2, token: 4}},
	}
	server := &connTap{role: "server", local: "127.0.0.1:7000", remote: "127.0.0.1:5000",
		in:  []wireMsg{{at: 120, id: 1, op: "acquire", lock: "a"}, {at: 510, id: 2, op: "release", lock: "a", token: 4}},
		out: []wireMsg{{at: 180, id: 1, token: 4}, {at: 550, id: 2, token: 4}},
	}
	calls := []callSpan{
		{client: 0, op: "acquire", lock: "a", token: 4, start: 100, end: 200},
		{client: 0, op: "release", lock: "a", token: 4, start: 495, end: 570},
		{client: 0, op: "acquire", lock: "a", token: 5, start: 600, end: 700}, // never on the wire
	}
	repl := []interval{{130, 150}, {140, 160}}
	got, unmatched := stages(calls, []*connTap{client}, capture{taps: []*connTap{client, server}}, repl)
	if unmatched != 1 || len(got) != 2 {
		t.Fatalf("matched %d, unmatched %d; want 2 and 1", len(got), unmatched)
	}
	a := got[0]
	if a.clientSend != 10 || a.wireIn != 10 || a.server != 60 || a.wireOut != 10 || a.clientRecv != 10 {
		t.Fatalf("acquire stages %+v", a)
	}
	if a.serverSelf != 30 {
		t.Fatalf("acquire server self time %d, want 60 minus the 30 covered by replication", a.serverSelf)
	}
	r := got[1]
	if r.clientSend != 5 || r.wireIn != 10 || r.server != 40 || r.wireOut != 10 || r.clientRecv != 10 || r.serverSelf != 40 {
		t.Fatalf("release stages %+v", r)
	}
}
