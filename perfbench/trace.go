package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// This file is the outside-in tracer: net.Conn wrappers installed
// through the public dial/accept hooks (lockclient.Options.Dial,
// lockd.Config.WrapConn, replica.Config.Dial) that count reads, writes
// and bytes, reassemble the newline-delimited JSON messages from the
// byte stream, and pair each request with its response by (connection,
// id). Everything stays in memory until the run ends.

// lineSplitter reassembles newline-terminated messages from the
// arbitrary chunks Read and Write see.
type lineSplitter struct{ partial []byte }

// feed passes each line completed by chunk (newline stripped) to emit.
// Bytes after the last newline are kept for the next chunk.
func (s *lineSplitter) feed(chunk []byte, emit func(line []byte)) {
	for len(chunk) > 0 {
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			s.partial = append(s.partial, chunk...)
			return
		}
		if len(s.partial) > 0 {
			s.partial = append(s.partial, chunk[:i]...)
			emit(s.partial)
			s.partial = s.partial[:0]
		} else {
			emit(chunk[:i])
		}
		chunk = chunk[i+1:]
	}
}

// wireMsg is one message seen on a tapped connection.
type wireMsg struct {
	at    int64 // write start (outbound) or read return (inbound), ns
	id    uint64
	op    string // requests only
	lock  string // requests only
	token uint64
	size  int // bytes, newline included
}

// parseMsg extracts the fields the matcher needs without a full JSON
// decode: lockd's wire types put them at top level, and lock names in
// the benchmark never need escaping.
func parseMsg(line []byte) wireMsg {
	return wireMsg{
		id:    jsonUint(line, `"id":`),
		op:    jsonStr(line, `"op":"`),
		lock:  jsonStr(line, `"lock":"`),
		token: jsonUint(line, `"token":`),
		size:  len(line) + 1,
	}
}

func jsonUint(line []byte, key string) uint64 {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0
	}
	v := uint64(0)
	for _, c := range line[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

func jsonStr(line []byte, key string) string {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// rpc is one request paired with its response.
type rpc struct {
	id            uint64
	op, lock      string
	token         uint64 // the response's token, else the request's
	reqAt, respAt int64
}

// pairByID matches requests to responses on one connection by id.
// Requests without a response (in flight when the capture ended) are
// dropped.
func pairByID(reqs, resps []wireMsg) map[uint64]rpc {
	byID := make(map[uint64]wireMsg, len(resps))
	for _, r := range resps {
		byID[r.id] = r
	}
	out := make(map[uint64]rpc, len(reqs))
	for _, q := range reqs {
		r, ok := byID[q.id]
		if !ok {
			continue
		}
		tok := r.token
		if tok == 0 {
			tok = q.token
		}
		out[q.id] = rpc{id: q.id, op: q.op, lock: q.lock, token: tok, reqAt: q.at, respAt: r.at}
	}
	return out
}

// connTap is the record of one tapped connection.
type connTap struct {
	role          string // "client", "server" or "peer"
	local, remote string

	mu                sync.Mutex
	reads, writes     int64
	bytesIn, bytesOut int64
	writeNs           int64
	sent              int64 // outbound messages, counted all phase long
	inSplit, outSplit lineSplitter
	in, out           []wireMsg // messages seen before until
	rawIn, rawOut     [][]byte  // first lines verbatim, for the codec probes
	capture           int
	until             int64
}

func (t *connTap) observe(outbound bool, chunk []byte, at, took int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	split, msgs, raw := &t.inSplit, &t.in, &t.rawIn
	if outbound {
		split, msgs, raw = &t.outSplit, &t.out, &t.rawOut
		t.writes++
		t.bytesOut += int64(len(chunk))
		t.writeNs += took
	} else {
		t.reads++
		t.bytesIn += int64(len(chunk))
	}
	split.feed(chunk, func(line []byte) {
		if outbound {
			t.sent++
		}
		if at >= t.until {
			return
		}
		m := parseMsg(line)
		m.at = at
		*msgs = append(*msgs, m)
		if len(*raw) < t.capture {
			*raw = append(*raw, append([]byte(nil), line...))
		}
	})
}

// reset forgets everything counted so far (the warm-up), keeping any
// partial line so the stream stays in frame. Messages are kept until
// the monotonic instant until; counting goes on after it.
func (t *connTap) reset(capture int, until int64) {
	t.mu.Lock()
	t.reads, t.writes, t.bytesIn, t.bytesOut, t.writeNs, t.sent = 0, 0, 0, 0, 0, 0
	t.in, t.out, t.rawIn, t.rawOut = nil, nil, nil, nil
	t.capture, t.until = capture, until
	t.mu.Unlock()
}

// tapConn is a net.Conn reporting its traffic to a connTap.
type tapConn struct {
	net.Conn
	tap *connTap
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.observe(false, p[:n], nowNs(), 0)
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	at := nowNs()
	n, err := c.Conn.Write(p)
	c.tap.observe(true, p[:n], at, nowNs()-at)
	return n, err
}

// tracer owns every tap of one traced system.
type tracer struct {
	mu   sync.Mutex
	taps []*connTap
}

func (tr *tracer) wrap(role string, c net.Conn) net.Conn {
	t := &connTap{role: role, local: c.LocalAddr().String(), remote: c.RemoteAddr().String(), until: math.MaxInt64}
	tr.mu.Lock()
	tr.taps = append(tr.taps, t)
	tr.mu.Unlock()
	return &tapConn{Conn: c, tap: t}
}

// reset starts the measured phase on every tap: messages are kept until
// the instant until, and the first capture lines of each direction
// verbatim.
func (tr *tracer) reset(capture int, until int64) {
	for _, t := range tr.all() {
		t.reset(capture, until)
	}
}

func (tr *tracer) all() []*connTap {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*connTap(nil), tr.taps...)
}

// capture is a frozen copy of a tracer's taps at the end of a phase.
type capture struct{ taps []*connTap }

func (tr *tracer) freeze() capture {
	var c capture
	for _, t := range tr.all() {
		t.mu.Lock()
		c.taps = append(c.taps, &connTap{
			role: t.role, local: t.local, remote: t.remote,
			reads: t.reads, writes: t.writes, bytesIn: t.bytesIn, bytesOut: t.bytesOut, writeNs: t.writeNs, sent: t.sent,
			in: t.in, out: t.out, rawIn: t.rawIn, rawOut: t.rawOut,
		})
		t.mu.Unlock()
	}
	return c
}

// isPeerLink reports whether an accepted connection carried replication
// traffic rather than client requests.
func isPeerLink(t *connTap) bool {
	for _, m := range t.in {
		if len(m.op) > 5 && m.op[:5] == "repl-" {
			return true
		}
	}
	return false
}

// callSpan is one Acquire or Release call as the calling slot saw it.
type callSpan struct {
	client   int // index of the client connection
	op, lock string
	token    uint64
	start    int64
	end      int64
}

// stageSample is one call split into the five stages of its round trip.
type stageSample struct {
	op                                              string
	clientSend, wireIn, server, wireOut, clientRecv int64
	serverSelf                                      int64 // server minus replication round trips
	t0, t1, t2, t3, t4, t5                          int64
	lock                                            string
	token                                           uint64
}

// stages joins the slots' call spans with the tapped byte streams:
// client conn i is clientTaps[i]; its server side is the accepted tap
// whose remote address is that conn's local address. repl holds the
// leader's replication round trips, subtracted from the server stage to
// give its self time. Unmatched calls are counted, not guessed.
func stages(calls []callSpan, clientTaps []*connTap, c capture, repl []interval) ([]stageSample, int) {
	serverByRemote := map[string]*connTap{}
	for _, t := range c.taps {
		if t.role == "server" {
			serverByRemote[t.remote] = t
		}
	}
	type key struct {
		op, lock string
		token    uint64
	}
	clientIdx := make([]map[key]rpc, len(clientTaps))
	serverIdx := make([]map[uint64]rpc, len(clientTaps))
	for i, ct := range clientTaps {
		clientIdx[i] = map[key]rpc{}
		for _, r := range pairByID(ct.out, ct.in) {
			clientIdx[i][key{r.op, r.lock, r.token}] = r
		}
		if st := serverByRemote[ct.local]; st != nil {
			serverIdx[i] = pairByID(st.in, st.out)
		}
	}
	sort.Slice(repl, func(i, j int) bool { return repl[i].start < repl[j].start })
	var out []stageSample
	unmatched := 0
	for _, cs := range calls {
		cr, ok := clientIdx[cs.client][key{cs.op, cs.lock, cs.token}]
		var sr rpc
		if ok && serverIdx[cs.client] != nil {
			sr, ok = serverIdx[cs.client][cr.id]
		} else {
			ok = false
		}
		s := stageSample{op: cs.op, lock: cs.lock, token: cs.token,
			t0: cs.start, t1: cr.reqAt, t2: sr.reqAt, t3: sr.respAt, t4: cr.respAt, t5: cs.end}
		if !ok || !(s.t0 <= s.t1 && s.t1 <= s.t2 && s.t2 <= s.t3 && s.t3 <= s.t4 && s.t4 <= s.t5) {
			unmatched++
			continue
		}
		s.clientSend, s.wireIn, s.server = s.t1-s.t0, s.t2-s.t1, s.t3-s.t2
		s.wireOut, s.clientRecv = s.t4-s.t3, s.t5-s.t4
		s.serverSelf = selfTime(interval{s.t2, s.t3}, overlapping(repl, s.t2, s.t3))
		out = append(out, s)
	}
	return out, unmatched
}

// overlapping returns the intervals of sorted that intersect [a, b).
// Replication round trips are short, so a window one second wide
// around a is more than enough lookback.
func overlapping(sorted []interval, a, b int64) []interval {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].start >= a-1e9 })
	var out []interval
	for ; i < len(sorted) && sorted[i].start < b; i++ {
		if sorted[i].end > a {
			out = append(out, sorted[i])
		}
	}
	return out
}

// writeSpans writes each of the first calls staged calls as a root
// span and its wire_in, server and wire_out children, one JSON object
// per line.
func writeSpans(path string, samples []stageSample, calls int) error {
	samples = samples[:min(calls, len(samples))]
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type span struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent,omitempty"`
		Name   string `json:"name"`
		Lock   string `json:"lock,omitempty"`
		Token  string `json:"token,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	id := 0
	for _, s := range samples {
		id++
		root := id
		spans := []span{
			{ID: root, Name: s.op, Lock: s.lock, Token: strconv.FormatUint(s.token, 10), Start: s.t0, End: s.t5},
			{ID: root + 1, Parent: root, Name: "wire_in", Start: s.t1, End: s.t2},
			{ID: root + 2, Parent: root, Name: "server", Start: s.t2, End: s.t3},
			{ID: root + 3, Parent: root, Name: "wire_out", Start: s.t3, End: s.t4},
		}
		id += 3
		for _, sp := range spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
