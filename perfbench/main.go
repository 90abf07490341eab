// Command perfbench is the repository's benchmark: closed-loop lock
// workloads against the in-process native mutex and against lockd
// served over loopback TCP, reporting end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	go run . --workload lockd-spread --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics with their units. The exit code is
// 1 when the correctness oracle saw a violation, 2 on a usage or set-up
// error.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// fingerprint attributes a run's numbers: host, toolchain, code, inputs
// and the sample counts behind every percentile.
type fingerprint struct {
	Workload    string              `json:"workload"`
	Seed        int64               `json:"seed"`
	Seconds     int                 `json:"seconds"`
	Trace       int                 `json:"trace"`
	NProc       int                 `json:"nproc"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	GoVersion   string              `json:"go"`
	Commit      string              `json:"commit"`
	SourceSHA   string              `json:"source_sha256"`
	Clients     int                 `json:"clients"`
	Slots       int                 `json:"slots"`
	Cycles      int64               `json:"cycles"`
	Percentiles map[string]quantile `json:"percentiles"`
	Violations  []string            `json:"violations,omitempty"`
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
}

// setupReps is how many times a run sets its system up; setup_s is the
// median.
const setupReps = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "traced runs write the spans of up to 10000 calls here (default .bench_build/perfbench-spans/<workload>.jsonl)")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "perfbench-spans", wl.name+".jsonl")
	}
	res, fp, err := run(wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(2)
	}
	printResult(os.Stdout, wl, fp, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run executes one workload invocation.
func run(wl workload, o options) (result, fingerprint, error) {
	fp := fingerprint{
		Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: buildinfo.Revision(), SourceSHA: sourceHash(), Clients: clientCount(),
		Percentiles: map[string]quantile{},
	}
	if fp.Commit == "" {
		fp.Commit = "unknown"
	}
	tmp, err := tempRoot()
	if err != nil {
		return result{}, fp, err
	}
	defer os.RemoveAll(tmp)
	if o.trace == 1 {
		return runTraced(wl, o, tmp, fp)
	}
	return runEndToEnd(wl, o, tmp, fp)
}

// runEndToEnd sets the system up setupReps times, measures the last one
// untraced for the full run length and checks its outputs.
func runEndToEnd(wl workload, o options, tmp string, fp fingerprint) (result, fingerprint, error) {
	var setups []float64
	var sys *system
	var violations []string
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		s, err := wl.setup(o.seed, false, tmp)
		if err != nil {
			return result{}, fp, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupReps-1 {
			violations = append(violations, s.finish().violations...)
			continue
		}
		sys = s
	}
	res := drive(sys.slots, time.Duration(o.seconds)*time.Second)
	rss := maxRSSMB() // before the output checks, which read every journal
	rep := sys.finish()
	violations = append(violations, oracleViolations(sys, rep)...)

	m := metrics{}
	m.set("setup_s", median(setups), "s")
	res.endToEnd(m, fp.Percentiles)
	m.set("max_rss_mb", rss, "MB")
	fp.Slots, fp.Cycles, fp.Violations = len(sys.slots), res.cycles, violations
	return result{
		Correct: len(violations) == 0, Attempted: res.attempts, Failed: res.failures, Metrics: m,
	}, fp, nil
}

// oracleViolations merges the per-cycle oracle's findings with the
// end-of-run output checks.
func oracleViolations(sys *system, rep verifyReport) []string {
	n, first := sys.oracle.report()
	out := append([]string(nil), first...)
	if n > int64(len(first)) {
		out = append(out, fmt.Sprintf("... %d oracle violations in all", n))
	}
	return append(out, rep.violations...)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printResult writes the human-readable report, the fingerprint, and
// the result line last.
func printResult(w io.Writer, wl workload, fp fingerprint, res result) {
	fmt.Fprintf(w, "workload %s: %s\n", wl.name, wl.why)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, v := range fp.Violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload in its own process, so process-wide state
// (memory high-water mark, default recorders) never leaks between them,
// and prints one combined result whose metrics are keyed
// workload/metric.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	all := result{Correct: true, Metrics: metrics{}}
	code := 0
	for _, wl := range workloads {
		args := []string{"--workload", wl.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		var last string
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		waitErr := cmd.Wait()
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no result (%v)\n", wl.name, waitErr)
			all.Correct = false
			code = 2
			continue
		}
		if waitErr != nil && code == 0 {
			code = 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[wl.name+"/"+k] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Printf("%s\n", line)
	return code
}

// sourceHash identifies the code under test: a SHA-256 over the Go
// sources and module files of the working tree, so numbers from a
// checkout without version-control metadata can still be attributed.
func sourceHash() string {
	h := sha256.New()
	found := false
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			found = true
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
			return nil
		})
	}
	if !found {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
