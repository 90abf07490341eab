package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since process start.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// slotStats is what one closed-loop slot records. Only the slot's own
// goroutine writes it; drive reads it after the slot has exited.
type slotStats struct {
	cycles   int64
	win      *atomic.Int32 // drive's current window; nil outside a run
	acqUs    [][]float64   // acquire latency samples per window, µs
	relUs    [][]float64   // release latency samples per window, µs
	attempts int64         // acquires + releases attempted
	failures int64         // acquires + releases that failed
}

// sample records one cycle's acquire and release latencies, in µs,
// under the window the run is in.
func (st *slotStats) sample(acqUs, relUs float64) {
	w := 0
	if st.win != nil {
		w = int(st.win.Load())
	}
	for len(st.acqUs) <= w {
		st.acqUs = append(st.acqUs, nil)
		st.relUs = append(st.relUs, nil)
	}
	st.acqUs[w] = append(st.acqUs[w], acqUs)
	st.relUs[w] = append(st.relUs[w], relUs)
}

// cycleFunc runs one acquire→release cycle for a slot, recording into
// st. It returns only when the release has returned, so a slot's next
// acquire is never sent before its previous release completed: the loop
// is closed.
type cycleFunc func(st *slotStats)

// runResult pools what every slot of one closed-loop run recorded.
type runResult struct {
	cycles   int64
	secs     float64
	cpuUs    float64     // process user+sys CPU over the run
	acqUs    [][]float64 // latency samples per one-second window
	relUs    [][]float64
	attempts int64
	failures int64
}

// cpuNs reads this process's user+sys CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// drive runs every slot in a closed loop for dur and returns once every
// slot has finished the cycle it was in when time ran out. The run's
// length is measured to that point, so every counted cycle lies inside
// it. Latency samples are bucketed by one-second window.
func drive(slots []cycleFunc, dur time.Duration) runResult {
	var stop atomic.Bool
	var win atomic.Int32
	stats := make([]*slotStats, len(slots))
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuNs()
	for i, cyc := range slots {
		st := &slotStats{win: &win}
		stats[i] = st
		wg.Add(1)
		go func(cyc cycleFunc) {
			defer wg.Done()
			for !stop.Load() {
				cyc(st)
			}
		}(cyc)
	}
	nwin := max(int(dur/time.Second), 1)
	for i := 1; i <= nwin; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / time.Duration(nwin))))
		if i < nwin {
			win.Store(int32(i))
		}
	}
	stop.Store(true)
	wg.Wait()
	res := runResult{secs: time.Since(start).Seconds(), cpuUs: float64(cpuNs()-cpu0) / 1e3,
		acqUs: make([][]float64, nwin), relUs: make([][]float64, nwin)}
	for _, st := range stats {
		res.cycles += st.cycles
		for w := range st.acqUs {
			res.acqUs[w] = append(res.acqUs[w], st.acqUs[w]...)
			res.relUs[w] = append(res.relUs[w], st.relUs[w]...)
		}
		res.attempts += st.attempts
		res.failures += st.failures
	}
	return res
}

// cyclesPerSec is the run's completed-cycle rate.
func (r runResult) cyclesPerSec() float64 {
	if r.secs == 0 {
		return 0
	}
	return float64(r.cycles) / r.secs
}

// endToEnd sets the end-to-end metrics a run yields. Rates and costs are
// totals over the whole run: on a host whose speed drifts they move
// smoothly with the share of the run spent slow. Each latency
// percentile is the median over one-second windows of that window's
// percentile, so a rare stall (a long GC cycle, a descheduled thread)
// lands in one window instead of setting a whole run's tail. The gated
// tail is p90; p99 moves by a quarter or more from run to run on a
// shared 2-CPU host, so it is reported by the traced run instead (see
// tails). counts receives, per percentile, the smallest window's
// sample count.
func (r runResult) endToEnd(m metrics, counts map[string]quantile) {
	m.set("cycles_per_s", r.cyclesPerSec(), "1/s")
	m.set("cpu_us_per_cycle", r.cpuUs/float64(max(r.cycles, 1)), "us")
	r.latencies(m, counts, 50, 90)
}

// tails sets the p99 latencies the end-to-end run leaves out.
func (r runResult) tails(m metrics, counts map[string]quantile) {
	r.latencies(m, counts, 99)
}

func (r runResult) latencies(m metrics, counts map[string]quantile, pcts ...float64) {
	for _, op := range []struct {
		name    string
		windows [][]float64
	}{{"acquire", r.acqUs}, {"release", r.relUs}} {
		for _, pct := range pcts {
			name := fmt.Sprintf("%s_p%d_us", op.name, int(pct))
			if pct == 99 {
				name = "tail." + name
			}
			q := windowedPercentile(op.windows, pct)
			m.set(name, q.Value, "us")
			counts[name] = q
		}
	}
}

// windowedPercentile is the median over windows of each window's pct
// percentile, with the smallest window's sample count and the lowest
// percentile any window fell back to.
func windowedPercentile(windows [][]float64, pct float64) quantile {
	var vals []float64
	var least quantile
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		q := percentile(w, pct)
		vals = append(vals, q.Value)
		if len(vals) == 1 || q.N < least.N {
			least.N = q.N
		}
		if len(vals) == 1 || q.Pct < least.Pct {
			least.Pct = q.Pct
		}
	}
	least.Value = median(vals)
	return least
}
