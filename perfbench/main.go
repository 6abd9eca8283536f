// Command perfbench is faaspipe's end-to-end benchmark. It runs one
// workload against the simulated cloud for a fixed host-time budget,
// checks every operation's output, and prints the workload's metrics:
// the end-to-end ones on an untraced run, the per-layer ones on a
// traced run (spans around each call into a layer plus a CPU profile).
//
//	perfbench -workload shuffle-fanout -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sizes scales the workloads; the determinism tests shrink them.
type sizes struct {
	fanoutBytes   int64
	fanoutWorkers []int
	records       int
	tenants       int
	arrivals      int
}

// fullSizes are the sizes the benchmark reports.
var fullSizes = sizes{
	fanoutBytes:   3500e6, // the paper's 3.5 GB input
	fanoutWorkers: []int{8, 64, 256},
	records:       250000, // about 13 MB of bedMethyl text
	tenants:       10000,
	arrivals:      100000,
}

// workload is one named input set; run makes one pass over it.
type workload struct {
	name string
	run  func(sz sizes, seed int64, tr *tracer) *iteration
}

var workloads = []workload{
	{"shuffle-fanout", runFanout},
	{"methcomp-real", runMethcomp},
	{"gateway-10k", runGateway},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measured is a metric value with its unit, as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: shuffle-fanout, methcomp-real or gateway-10k")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 20, "host seconds to keep repeating the workload")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", ".", "directory for trace and profile files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(os.Stdout, w, fullSizes, *seed, budget, *out)
	} else {
		res = untracedRun(os.Stdout, w, fullSizes, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// repeat runs the workload until budget has passed (at least once),
// each pass from a collected heap so one pass's garbage is not the
// next one's GC work.
func repeat(w workload, sz sizes, seed int64, budget time.Duration, tr func() *tracer) []*iteration {
	var its []*iteration
	var before, after runtime.MemStats
	for start := time.Now(); len(its) == 0 || time.Since(start) < budget; {
		runtime.GC()
		resetPeakRSS()
		runtime.ReadMemStats(&before)
		it := w.run(sz, seed, tr())
		runtime.ReadMemStats(&after)
		it.peakRSS = peakRSSMB()
		it.hostLayer["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		it.hostLayer["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
		it.hostLayer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		it.finish()
		its = append(its, it)
	}
	return its
}

// summary folds a run's passes into its result: operation counts
// summed, and every virtual value required to repeat exactly across
// passes (a pass that differs makes the run incorrect).
func summary(log io.Writer, its []*iteration) result {
	res := result{Correct: true, Metrics: make(map[string]measured)}
	for i, it := range its {
		res.Attempted += it.attempted
		res.Failed += it.failed
		for _, p := range it.problems {
			fmt.Fprintf(log, "FAILED pass %d: %s\n", i+1, p)
		}
		if diff := diffVirtual(its[0].virtual, it.virtual); diff != "" {
			fmt.Fprintf(log, "FAILED pass %d repeats pass 1 inexactly: %s\n", i+1, diff)
			res.Correct = false
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	return res
}

// diffVirtual names the first value that differs between two passes.
// Stage values exist only on traced passes (the tracer is the
// executor's listener), so they are compared where both passes have
// them.
func diffVirtual(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, inA := a[k]
		_, inB := b[k]
		if strings.HasPrefix(k, "core.stage_") && !(inA && inB) {
			continue
		}
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("%s = %v, then %v", k, a[k], b[k])
		}
	}
	return ""
}

// hostMedians returns the median over passes of setup time, host time
// and peak resident memory.
func hostMedians(its []*iteration) (setup, host, rss float64) {
	var s, h, r []float64
	for _, it := range its {
		s = append(s, it.setup.Seconds())
		h = append(h, it.host.Seconds())
		r = append(r, it.peakRSS)
	}
	return medianOf(s), medianOf(h), medianOf(r)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(log io.Writer, w workload, sz sizes, seed int64, budget time.Duration) result {
	its := repeat(w, sz, seed, budget, func() *tracer { return nil })
	res := summary(log, its)
	for i, it := range its {
		fmt.Fprintf(log, "pass %d: setup %.6f s, host %.6f s, peak RSS %.1f MB\n",
			i+1, it.setup.Seconds(), it.host.Seconds(), it.peakRSS)
	}
	setup, host, rss := hostMedians(its)
	values := map[string]float64{
		"setup_s":     setup,
		"host_s":      host,
		"peak_rss_mb": rss,
	}
	for _, m := range endToEnd {
		if _, ok := values[m.Name]; !ok {
			values[m.Name] = its[0].virtual[m.Name]
		}
	}
	fmt.Fprintf(log, "%s seed %d: %d pass(es), %d operations, %d failed; sojourn tail is %s\n",
		w.name, seed, len(its), res.Attempted, res.Failed, its[0].tailNote)
	report(log, res, endToEnd, values)
	return res
}

// tracedRun measures the per-layer metrics: first untraced passes for
// half the budget (the overhead baseline), then traced passes under a
// CPU profile. Spans of the first traced pass and the profile are
// written to out.
func tracedRun(log io.Writer, w workload, sz sizes, seed int64, budget time.Duration, out string) (result, error) {
	plain := repeat(w, sz, seed, budget/2, func() *tracer { return nil })

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := repeat(w, sz, seed, budget/2, func() *tracer { return newTracer() })
	pprof.StopCPUProfile()

	res := summary(log, append(append([]*iteration(nil), plain...), traced...))
	first := traced[0]
	values := make(map[string]float64)
	for k, v := range first.virtual {
		values[k] = v
	}
	// Values that vary from pass to pass: the median over traced passes.
	hostKeys := make(map[string][]float64)
	for _, it := range traced {
		for k, v := range it.hostLayer {
			hostKeys[k] = append(hostKeys[k], v)
		}
	}
	for k, vs := range hostKeys {
		values[k] = medianOf(vs)
	}
	_, plainHost, _ := hostMedians(plain)
	_, tracedHost, _ := hostMedians(traced)
	values["trace.host_s"] = tracedHost
	values["trace.untraced_host_s"] = plainHost
	if plainHost > 0 {
		values["trace.overhead_pct"] = 100 * (tracedHost - plainHost) / plainHost
	}
	values["trace.spans"] = float64(len(first.tr.spans))
	if run := values["des.run_host_s"]; run > 0 {
		values["des.events_per_host_s"] = values["des.events"] / run
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	shares := cpuShares(samples)
	for row, share := range shares {
		switch row {
		case "runtime.gc", "runtime.malloc", "runtime.sched":
			values[row+"_cpu_share"] = share
		case "des.link":
			values["des.link_cpu_share"] = share
		default:
			if declaredLayer[row+".cpu_share"] {
				values[row+".cpu_share"] = share
			} else {
				values["other.cpu_share"] += share
			}
		}
	}

	if err := writeTrace(out, w.name, first.tr, prof.Bytes()); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "%s seed %d: %d untraced + %d traced pass(es), %d profile samples\n",
		w.name, seed, len(plain), len(traced), len(samples))
	fmt.Fprintln(log, "host self time by span (first traced pass):")
	for _, nt := range first.tr.selfTimes() {
		fmt.Fprintf(log, "  %s\n", nt)
	}
	report(log, res, perLayer, values)
	return res, nil
}

// declaredLayer indexes the per-layer metric names.
var declaredLayer = func() map[string]bool {
	m := make(map[string]bool, len(perLayer))
	for _, x := range perLayer {
		m[x.Name] = true
	}
	return m
}()

// report prints the declared metrics as a table and stores them in the
// result; a declared value the run did not measure reads zero.
func report(log io.Writer, res result, declared []metric, values map[string]float64) {
	for _, m := range declared {
		v := values[m.Name]
		res.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
		fmt.Fprintf(log, "  %-34s %16.6g %s\n", m.Name, v, m.Unit)
	}
}

// writeTrace stores the spans as JSON lines and the raw CPU profile.
func writeTrace(dir, name string, tr *tracer, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".jsonl"))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu-"+name+".pprof"), profile, 0o644)
}

// resetPeakRSS restarts the kernel's peak-resident-set mark, so the
// next peakRSSMB covers one pass. Where that is unsupported (outside
// Linux) peakRSSMB keeps reporting the peak since the process began.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last reset.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
