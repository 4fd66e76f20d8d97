// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of the paper's Figure 4 management loop through the
// public APIs of coord, core, persist, cluster, route and sim, checks
// the program's outputs, and prints a human-readable report followed by
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures the workload untraced and
// then traced, and the metrics are the per-layer metrics of
// BENCHMARK.json; bypassed layers report 0.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: serve-hot, serve-churn, rack-serve (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// result is what a workload run reports.
type result struct {
	Attempted int
	Failed    int
	// Metrics are the machine-readable metrics: end-to-end on an
	// untraced run, per-layer on a traced one.
	Metrics []metric
	// Detail holds the workload's own end-to-end figures under the names
	// the workload uses for them (req_per_s, resolve_p50_ms, ...).
	Detail []metric
	// Layers is the traced run's per-span and per-call table.
	Layers func()
	Notes  []string
	// RSS is the median over rateWindow windows of the peak resident set
	// in MiB while the set-up stack served the untraced timed phase, and
	// RSSWindows the number of windows.
	RSS        float64
	RSSWindows int
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
}

var workloads = map[string]func(options) (*result, error){
	"serve-hot":   func(o options) (*result, error) { return runServeWorkload(o, false) },
	"serve-churn": func(o options) (*result, error) { return runServeWorkload(o, true) },
	"rack-serve":  runRackWorkload,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-hot | serve-churn | rack-serve")
		seed    = flag.Uint64("seed", 1, "seed every input derives from")
		seconds = flag.Int("seconds", 10, "seconds the timed phase measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// The disk tier's logs live in a fresh directory under the build
	// output, removed when the run ends.
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		fatal(err)
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: dir}
	res, err := run(o)
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	rss := metric{"rss_peak_mb", "MiB", res.RSS, res.RSSWindows}
	if !o.trace {
		res.Metrics = append(res.Metrics, rss)
	}
	res.Detail = append(res.Detail, rss)
	report(o, res)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// scratchDir holds each run's disk-tier logs, relative to the checkout
// root the benchmark runs from.
const scratchDir = ".bench_build/run"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the metadata, the workload's figures, the traced table
// and, last, the JSON result line.
func report(o options, res *result) {
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Printf("perfbench %s, seed %d, %ds, %s\n", o.workload, o.seed, o.seconds, mode)
	for _, kv := range metadata() {
		fmt.Printf("  %-12s %s\n", kv[0], kv[1])
	}
	fmt.Printf("  %-12s attempted %d, failed %d\n", "operations", res.Attempted, res.Failed)
	fmt.Printf("\n%-28s %16s %-8s %8s\n", "workload metric", "value", "unit", "samples")
	for _, m := range res.Detail {
		fmt.Printf("%-28s %16.6g %-8s %8d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if res.Layers != nil {
		fmt.Println()
		res.Layers()
	}
	fmt.Printf("\n%-28s %16s %-8s %8s\n", "reported metric", "value", "unit", "samples")
	for _, m := range res.Metrics {
		fmt.Printf("%-28s %16.6g %-8s %8d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]jm)}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// metadata describes the host and build a report was measured on.
func metadata() [][2]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return [][2]string{
		{"NumCPU", fmt.Sprint(runtime.NumCPU())},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpu},
		{"git", rev},
	}
}

// startPhase begins a measured phase from a collected heap, with freed
// memory returned to the OS and the kernel's resident-set high-water
// mark reset to the current resident set, so phasePeakMiB reports the
// phase's own peak.
func startPhase() {
	debug.FreeOSMemory()
	resetPeak()
}

// resetPeak resets the kernel's resident-set high-water mark to the
// current resident set. Without clear_refs (an old kernel) phasePeakMiB
// reports the peak since the process started, which bounds the phase's
// peak.
func resetPeak() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// rssSampler reads and resets the resident-set high-water mark at the
// end of every rateWindow of a timed phase. The phase's peak moves with
// where the collector's cycles fall against its allocation bursts, so
// one window's high peak must not decide the phase's figure: the phase
// reports the median of its window peaks.
type rssSampler struct {
	peaks      []float64
	stop, done chan struct{}
}

// startRSS begins a timed phase (see startPhase) and samples its
// resident set until finish.
func startRSS() *rssSampler {
	startPhase()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peaks = append(s.peaks, phasePeakMiB())
				resetPeak()
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median window peak in MiB with
// the number of windows; a phase shorter than a window reports its
// whole peak.
func (s *rssSampler) finish() (float64, int) {
	close(s.stop)
	<-s.done
	if len(s.peaks) == 0 {
		return phasePeakMiB(), 1
	}
	return median(s.peaks), len(s.peaks)
}

// phasePeakMiB is the resident-set high-water mark since it was last
// reset.
func phasePeakMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time all threads of the process have used, user
// plus system. Unlike wall time it leaves out the time the hypervisor
// gives the host's other tenants, which on a shared host moves wall
// times by up to 70% from one second to the next; see README.md.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.NumGC}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.allocBytes - o.allocBytes, m.gcCycles - o.gcCycles}
}

// latencyHist records durations in logarithmic buckets 0.1% wide, so a
// timed phase keeps the same memory however many samples it takes, and
// its quantiles are exact to 0.1%.
type latencyHist struct {
	counts []int64
	n      int64
	sum    time.Duration
}

const histGrowth = 1.001

var histLogBase = math.Log(histGrowth)

// histBuckets covers durations up to about 70 seconds.
const histBuckets = 25000

func (h *latencyHist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]int64, histBuckets)
	}
	b := 0
	if d > 1 {
		b = min(int(math.Log(float64(d))/histLogBase), histBuckets-1)
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

// mean is the exact mean sample, 0 for an empty histogram.
func (h *latencyHist) mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

func (h *latencyHist) merge(o *latencyHist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile is the q-quantile by the nearest-rank rule, reported at the
// geometric middle of its bucket; 0 for an empty histogram.
func (h *latencyHist) quantile(q float64) time.Duration {
	rank := int64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen int64
	for b, c := range h.counts {
		if seen += c; seen >= rank && c > 0 {
			return time.Duration(math.Exp((float64(b) + 0.5) * histLogBase))
		}
	}
	return 0
}

// median of float samples; it sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianSeconds is the median of a run's set-up times, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// rateWindow is the width of the windows a timed phase's throughput is
// counted in.
const rateWindow = time.Second

// windowCounter counts completed operations per rateWindow of a timed
// phase. Throughput is the interquartile mean of the window rates: a
// burst of interference on the host moves one window, not the result,
// and the mean of the middle half does not quantize to one window's
// count.
type windowCounter struct {
	start  time.Time
	counts []int
}

func (w *windowCounter) add(t time.Time) {
	i := int(t.Sub(w.start) / rateWindow)
	for len(w.counts) <= i {
		w.counts = append(w.counts, 0)
	}
	w.counts[i]++
}

// merge adds another counter's windows, aligned on the same start.
func (w *windowCounter) merge(o *windowCounter) {
	for i, c := range o.counts {
		for len(w.counts) <= i {
			w.counts = append(w.counts, 0)
		}
		w.counts[i] += c
	}
}

// rate is the interquartile mean of the per-second rates of the full
// windows of a phase of length d, or the whole phase's rate when it has
// fewer than four windows.
func (w *windowCounter) rate(d time.Duration) (float64, int) {
	full := int(d / rateWindow)
	if full > len(w.counts) {
		full = len(w.counts)
	}
	if full < 4 {
		total := 0
		for _, c := range w.counts {
			total += c
		}
		return float64(total) / d.Seconds(), 1
	}
	xs := make([]float64, full)
	for i := range xs {
		xs[i] = float64(w.counts[i]) / rateWindow.Seconds()
	}
	sort.Float64s(xs)
	mid := xs[full/4 : full-full/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid)), full
}
