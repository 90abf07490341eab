package telemetry

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/native"
)

// maxFrames bounds the stack depth captured and keyed per sample.
const maxFrames = 24

// SiteProfiler aggregates contended acquisitions of a native mutex by
// acquisition call site: it samples the acquiring goroutine's stack on
// one in Rate completed contended acquisitions, trims the lock-internal
// frames, and keys the remainder. The aggregate exports as a top-N site
// table (Top) and as folded-stack flamegraph text (Folded, the
// `a;b;c 42` format flamegraph.pl and speedscope consume).
//
// It is a native.EventSink: attach with NativeEntry.Profile, or tee it
// onto a mutex's sink directly (native.TeeSink).
type SiteProfiler struct {
	rate int64
	tick atomic.Int64

	mu    sync.Mutex
	sites map[[maxFrames]uintptr]*siteAgg
}

// siteAgg is one aggregated acquisition site.
type siteAgg struct {
	pcs   []uintptr
	count int64
	wait  time.Duration
}

// NewSiteProfiler returns a profiler sampling one in rate contended
// acquisitions (rate <= 1 samples every one).
func NewSiteProfiler(rate int) *SiteProfiler {
	if rate < 1 {
		rate = 1
	}
	return &SiteProfiler{
		rate:  int64(rate),
		sites: make(map[[maxFrames]uintptr]*siteAgg),
	}
}

// LockEvent implements native.EventSink: a contended acquisition (an
// EventAcquire that waited) is delivered on the acquiring goroutine, so
// a sampled one charges the caller's stack to its site.
func (p *SiteProfiler) LockEvent(e native.LockEvent) {
	if e.Kind != native.EventAcquire || e.Waited == 0 {
		return
	}
	if p.rate > 1 && p.tick.Add(1)%p.rate != 0 {
		return
	}
	// Capture generously, then trim the mutex- and telemetry-internal
	// frames so the key starts at the user's acquisition site. Keying on
	// trimmed frames (not raw PCs) keeps one user call site as one site
	// even when different internal paths (spin-phase grant vs. parked
	// grant) completed the acquisition.
	var raw [maxFrames + 8]uintptr
	n := runtime.Callers(2, raw[:])
	if n == 0 {
		return
	}
	var key [maxFrames]uintptr
	kn := 0
	frames := runtime.CallersFrames(raw[:n])
	skipping := true
	for kn < maxFrames {
		f, more := frames.Next()
		if f.PC != 0 {
			if skipping && internalFrame(f.Function) {
				if !more {
					break
				}
				continue
			}
			skipping = false
			key[kn] = f.PC
			kn++
		}
		if !more {
			break
		}
	}
	if kn == 0 {
		return
	}
	p.mu.Lock()
	agg := p.sites[key]
	if agg == nil {
		agg = &siteAgg{pcs: append([]uintptr(nil), key[:kn]...)}
		p.sites[key] = agg
	}
	agg.count++
	agg.wait += e.Waited
	p.mu.Unlock()
}

// internalFrame reports whether a function belongs to the lock or
// profiler machinery rather than the acquiring caller.
func internalFrame(fn string) bool {
	return strings.HasPrefix(fn, "repro/internal/native.") ||
		strings.HasPrefix(fn, "repro/internal/telemetry.(*SiteProfiler).")
}

// Samples returns the number of stacks aggregated so far.
func (p *SiteProfiler) Samples() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, s := range p.sites {
		n += s.count
	}
	return n
}

// Site is one aggregated acquisition site, resolved for reporting.
type Site struct {
	// Site names the innermost caller frame: "pkg.Func (file.go:123)".
	Site string `json:"site"`
	// Count is the number of sampled contended acquisitions; WaitNanos
	// their summed registration-to-grant delay.
	Count     int64 `json:"count"`
	WaitNanos int64 `json:"wait_nanos"`
	// Stack is the sampled call stack, root first.
	Stack []string `json:"stack"`
}

// Top returns the aggregated sites, most-sampled first (ties broken by
// total wait). n <= 0 returns every site.
func (p *SiteProfiler) Top(n int) []Site {
	p.mu.Lock()
	aggs := make([]*siteAgg, 0, len(p.sites))
	for _, s := range p.sites {
		aggs = append(aggs, &siteAgg{pcs: s.pcs, count: s.count, wait: s.wait})
	}
	p.mu.Unlock()
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].count != aggs[j].count {
			return aggs[i].count > aggs[j].count
		}
		return aggs[i].wait > aggs[j].wait
	})
	if n > 0 && len(aggs) > n {
		aggs = aggs[:n]
	}
	out := make([]Site, 0, len(aggs))
	for _, a := range aggs {
		leaf, stack := resolveStack(a.pcs)
		out = append(out, Site{
			Site:      leaf,
			Count:     a.count,
			WaitNanos: int64(a.wait),
			Stack:     stack,
		})
	}
	return out
}

// Folded renders the aggregate as collapsed-stack lines — one
// "frame;frame;leaf count" line per site, root first — the input format
// of flamegraph.pl / inferno / speedscope.
func (p *SiteProfiler) Folded() string {
	return FoldedStacks(p.Top(0), "")
}

// FoldedStacks renders sites as collapsed-stack lines. A non-empty root
// is prepended to every stack (used by the server to group multiple
// locks in one flamegraph).
func FoldedStacks(sites []Site, root string) string {
	var sb strings.Builder
	for _, s := range sites {
		frames := s.Stack
		if root != "" {
			frames = append([]string{root}, frames...)
		}
		for i, f := range frames {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(foldedEscape(f))
		}
		fmt.Fprintf(&sb, " %d\n", s.Count)
	}
	return sb.String()
}

// foldedEscape strips the two structural characters of the folded format
// from a frame name.
func foldedEscape(f string) string {
	f = strings.ReplaceAll(f, ";", ":")
	return strings.ReplaceAll(f, " ", "_")
}

// TopTable renders sites as an aligned text table.
func TopTable(sites []Site) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s  %14s  %s\n", "SAMPLES", "TOTAL-WAIT", "SITE")
	for _, s := range sites {
		fmt.Fprintf(&sb, "%8d  %14v  %s\n", s.Count, time.Duration(s.WaitNanos), s.Site)
	}
	return sb.String()
}

// resolveStack symbolizes pcs into a leaf description and a root-first
// frame list.
func resolveStack(pcs []uintptr) (leaf string, stack []string) {
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if f.Function != "" {
			if leaf == "" {
				leaf = fmt.Sprintf("%s (%s:%d)", f.Function, path.Base(f.File), f.Line)
			}
			stack = append(stack, f.Function)
		}
		if !more {
			break
		}
	}
	// runtime.CallersFrames yields leaf first; folded stacks want root
	// first.
	for i, j := 0, len(stack)-1; i < j; i, j = i+1, j-1 {
		stack[i], stack[j] = stack[j], stack[i]
	}
	if leaf == "" {
		leaf = "(unknown)"
	}
	return leaf, stack
}
