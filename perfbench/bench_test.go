package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testSizes shrink every workload so the whole suite runs in seconds.
var testSizes = sizes{
	fanoutBytes:   350e6,
	fanoutWorkers: []int{8, 64},
	records:       20000,
	tenants:       200,
	arrivals:      2000,
}

// once runs one pass of w, traced or not, and fails the test on any
// failed operation.
func once(t *testing.T, w workload, seed int64, traced bool) *iteration {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	it := w.run(testSizes, seed, tr)
	it.finish()
	if it.failed > 0 || it.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, it.failed, it.attempted, it.problems)
	}
	return it
}

// TestDeterminism pins the benchmark's premise: for a fixed seed every
// simulated metric and per-layer count repeats bit for bit, with or
// without tracing.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a := once(t, w, 7, false)
			b := once(t, w, 7, false)
			if d := diffVirtual(a.virtual, b.virtual); d != "" {
				t.Errorf("same-seed untraced passes differ: %s", d)
			}
			ta := once(t, w, 7, true)
			tb := once(t, w, 7, true)
			if d := diffVirtual(a.virtual, ta.virtual); d != "" {
				t.Errorf("traced pass differs from untraced: %s", d)
			}
			if d := diffVirtual(ta.virtual, tb.virtual); d != "" {
				t.Errorf("same-seed traced passes differ: %s", d)
			}
			for _, vals := range []map[string]float64{ta.virtual, ta.hostLayer} {
				for k := range vals {
					if !declaredLayer[k] && !declaredEndToEnd[k] {
						t.Errorf("pass measures %s, which no metric table declares", k)
					}
				}
			}
			for _, m := range endToEnd {
				if _, host := map[string]bool{"setup_s": true, "host_s": true, "peak_rss_mb": true}[m.Name]; host {
					continue
				}
				if a.virtual[m.Name] == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
		})
	}
}

var declaredEndToEnd = func() map[string]bool {
	m := make(map[string]bool)
	for _, x := range endToEnd {
		m[x.Name] = true
	}
	return m
}()

func TestSeedChangesArrivals(t *testing.T) {
	a := gwArrivals(1, testSizes.tenants, testSizes.arrivals)
	if b := gwArrivals(1, testSizes.tenants, testSizes.arrivals); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different arrival streams")
	}
	if b := gwArrivals(2, testSizes.tenants, testSizes.arrivals); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 drew the same arrival stream")
	}
}

// TestTracedRunReportsEveryLayer runs the traced path end to end —
// spans, CPU profile decoding, attribution — and checks the result
// carries exactly the declared per-layer metrics with shares summing
// to one.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := findWorkload("methcomp-real")
	res, err := tracedRun(io.Discard, w, testSizes, 3, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced run incorrect")
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics reported, %d declared", len(res.Metrics), len(perLayer))
	}
	var shares float64
	for name, m := range res.Metrics {
		if strings.HasSuffix(name, "cpu_share") && name != "des.link_cpu_share" {
			shares += m.Value
		}
	}
	// A profile of a sub-second run may hold no samples at all.
	if shares != 0 && (shares < 0.999 || shares > 1.001) {
		t.Errorf("cpu shares sum to %v", shares)
	}
}

func TestAttribute(t *testing.T) {
	const des = modulePrefix + "des.(*Sim).Run"
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{modulePrefix + "des.(*Link).reshare", des}, "des"},
		{[]string{"runtime.memmove", modulePrefix + "bed.RadixSort", des}, "bed"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", modulePrefix + "shuffle.merge"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.startm", "runtime.ready", modulePrefix + "des.(*Proc).Wake"}, "runtime.sched"},
		{[]string{modulePrefix + "cloud/payload.Sized"}, "cloud"},
		{[]string{"sort.Float64s", "main.median"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
	if !isLinkFrame(cases[0].frames) || isLinkFrame([]string{des}) {
		t.Error("isLinkFrame misclassifies the link model")
	}
}

func TestTail(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	if v, pct := tail(vals); v != 989 || pct != 99 {
		t.Errorf("tail of 0..999 = %v at p%v, want 989 at p99", v, pct)
	}
	if v, pct := tail(vals[:5]); v != 4 || pct != 100 {
		t.Errorf("tail of 5 samples = %v at p%v, want the maximum", v, pct)
	}
}

// TestMetricTablesMatchManifest keeps the metric tables and the
// repository's BENCHMARK.json in step.
func TestMetricTablesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json does not match the endToEnd table")
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json does not match the perLayer table")
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
}
