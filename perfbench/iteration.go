package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// iteration is one pass over a workload: every operation it defines,
// from rig build to output check.
type iteration struct {
	tr *tracer

	// setup is host time spent before each Sim.Run: rig builds, input
	// generation and marshalling, tenant registration. host is host
	// time inside Sim.Run minus the benchmark's own checks (check),
	// which run inside the simulation because they read the store.
	setup, host, check time.Duration

	// peakRSS is the process's peak resident memory during the pass, MB.
	peakRSS float64

	// tailNote says which percentile sojourn_tail_vs is, of how many
	// operations.
	tailNote string

	// attempted / failed count operations; problems say why each
	// failure happened.
	attempted, failed int
	problems          []string

	// virtual holds every value that must repeat exactly for a seed:
	// the simulated end-to-end metrics and the per-layer counts.
	// hostLayer holds per-layer values that vary from pass to pass:
	// host times and the Go runtime's allocation and GC counts.
	virtual   map[string]float64
	hostLayer map[string]float64

	// handlerVS collects successful FaaS activation durations across
	// all rigs of the iteration, for the faas percentiles.
	handlerVS []float64
}

func newIteration(tr *tracer) *iteration {
	return &iteration{
		tr:        tr,
		virtual:   make(map[string]float64),
		hostLayer: make(map[string]float64),
	}
}

// fail records a failed operation.
func (it *iteration) fail(op string, err error) {
	it.failed++
	it.problems = append(it.problems, fmt.Sprintf("%s: %v", op, err))
}

// timeSetup runs fn and charges its host time to setup.
func (it *iteration) timeSetup(fn func() error) error {
	start := time.Now()
	err := fn()
	it.setup += time.Since(start)
	return err
}

// timeCheck runs an output check from simulation context and keeps its
// host time out of host_s.
func (it *iteration) timeCheck(fn func() error) error {
	start := time.Now()
	err := fn()
	it.check += time.Since(start)
	return err
}

// newRig builds a rig for one operation as set-up work.
func (it *iteration) newRig(p calib.Profile, job string) (*calib.Rig, error) {
	var rig *calib.Rig
	err := it.timeSetup(func() error {
		id := it.tr.begin("calib.NewRig", job, 0)
		defer it.tr.end(id)
		var err error
		rig, err = calib.NewRig(p)
		return err
	})
	return rig, err
}

// run drives rig's simulation to completion, charges its host time,
// and folds the rig's layer counters into the iteration.
func (it *iteration) run(rig *calib.Rig, job string) error {
	id := it.tr.begin("des.Sim.Run", job, 0)
	it.tr.setRunning(id)
	before := it.check
	start := time.Now()
	err := rig.Sim.Run()
	wall := time.Since(start)
	it.tr.setRunning(0)
	it.tr.end(id)
	it.host += wall - (it.check - before)
	it.hostLayer["des.run_host_s"] += wall.Seconds()
	it.collect(rig)
	return err
}

// collect adds a finished rig's layer counters to the iteration.
func (it *iteration) collect(rig *calib.Rig) {
	v := it.virtual
	v["des.events"] += float64(rig.Sim.Fired())

	m := rig.Store.Metrics()
	v["objectstore.class_a_ops"] += float64(m.ClassAOps)
	v["objectstore.class_b_ops"] += float64(m.ClassBOps)
	v["objectstore.throttled"] += float64(m.Throttled)
	v["objectstore.bytes_in"] += float64(m.BytesIn)
	v["objectstore.bytes_out"] += float64(m.BytesOut)

	acts := rig.Platform.Activations()
	st := faas.Summarize(acts)
	v["faas.activations"] += float64(st.Count)
	v["faas.cold"] += float64(st.Cold)
	v["faas.failed"] += float64(st.Failed)
	v["faas.gb_s"] += st.TotalGB
	for _, a := range acts {
		if a.Err == nil {
			it.handlerVS = append(it.handlerVS, (a.End - a.Start).Seconds())
		}
	}

	for _, inst := range rig.Prov.Instances() {
		v["vm.usd"] += inst.Cost()
		v["vm.billed_s"] += inst.BilledDuration().Seconds()
	}
	for _, c := range rig.CacheProv.Clusters() {
		v["memcache.usd"] += c.Cost()
		cm := c.Metrics()
		v["memcache.ops"] += float64(cm.SetOps + cm.GetOps + cm.DeleteOps)
	}
}

// finish derives the metrics that need the whole iteration.
func (it *iteration) finish() {
	if it.tr != nil {
		for k, v := range it.tr.stageVS {
			it.virtual["core.stage_vs."+k] = v
		}
		for k, v := range it.tr.stageUSD {
			it.virtual["core.stage_usd."+k] = v
		}
	}
	if len(it.handlerVS) > 0 {
		sort.Float64s(it.handlerVS)
		it.virtual["faas.handler_p50_vs"] = median(it.handlerVS)
		it.virtual["faas.handler_tail_vs"], _ = tail(it.handlerVS)
	}
	it.handlerVS = nil
}

// opLatencies sets the simulated end-to-end metrics of a batch
// workload from its operations' latencies (virtual seconds) and a
// per-operation latency limit.
func (it *iteration) opLatencies(lat []float64, usd, limit float64) {
	var sum float64
	within := 0
	for _, l := range lat {
		sum += l
		if l <= limit {
			within++
		}
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	it.virtual["virtual_s"] = sum
	it.virtual["usd"] = usd
	it.sojourns(sorted)
	if sum > 0 {
		it.virtual["goodput_per_vs"] = float64(within) / sum
	}
	// Batch jobs are never refused.
	it.virtual["accepted_ratio"] = 1
}

// sojourns sets the sojourn metrics from sorted operation latencies.
func (it *iteration) sojourns(sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	it.virtual["sojourn_p50_vs"] = median(sorted)
	var pct float64
	it.virtual["sojourn_tail_vs"], pct = tail(sorted)
	it.tailNote = fmt.Sprintf("p%g of %d operations", pct, len(sorted))
}

// createBuckets makes the named buckets from simulation context.
func createBuckets(p *des.Proc, c *objectstore.Client, names ...string) error {
	for _, b := range names {
		if err := c.CreateBucket(p, b); err != nil {
			return err
		}
	}
	return nil
}

// checkParts verifies that the objects under prefix sum to want bytes
// and returns their keys.
func checkParts(p *des.Proc, c *objectstore.Client, bucket, prefix string, want int64) ([]string, error) {
	keys, err := c.ListAll(p, bucket, prefix)
	if err != nil {
		return nil, fmt.Errorf("list %s/%s: %w", bucket, prefix, err)
	}
	if err := checkSizes(p, c, bucket, keys, want); err != nil {
		return nil, err
	}
	return keys, nil
}

// checkSizes verifies that the named objects sum to want bytes.
func checkSizes(p *des.Proc, c *objectstore.Client, bucket string, keys []string, want int64) error {
	if len(keys) == 0 {
		return fmt.Errorf("no output parts in %s", bucket)
	}
	var got int64
	for _, k := range keys {
		obj, err := c.Head(p, bucket, k)
		if err != nil {
			return fmt.Errorf("head %s/%s: %w", bucket, k, err)
		}
		got += obj.Size
	}
	if got != want {
		return fmt.Errorf("output parts hold %d bytes, input held %d", got, want)
	}
	return nil
}

// pipelineOnce runs one workflow job on a fresh rig. Building the rig,
// registering the genomics functions and build (which returns the
// workflow and its input) are set-up; staging the input as
// data/sample.bed and running the workflow are measured; check then
// inspects the outputs from simulation context.
func pipelineOnce(it *iteration, prof calib.Profile, job string,
	build func(rig *calib.Rig) (*core.Workflow, payload.Payload, error),
	check func(p *des.Proc, c *objectstore.Client) error) (*core.RunReport, error) {
	rig, err := it.newRig(prof, job)
	if err != nil {
		return nil, err
	}
	var (
		w     *core.Workflow
		input payload.Payload
	)
	err = it.timeSetup(func() error {
		if err := genomics.RegisterFunctions(rig.Platform); err != nil {
			return err
		}
		var err error
		w, input, err = build(rig)
		return err
	})
	if err != nil {
		return nil, err
	}
	if it.tr != nil {
		rig.Exec.AddListener(it.tr)
	}

	var (
		rep    *core.RunReport
		runErr error
	)
	rig.Sim.Spawn("perfbench/"+job, func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		if runErr = createBuckets(p, c, "data", "work"); runErr != nil {
			return
		}
		if runErr = stage(it.tr, p, c, job, "data", "sample.bed", input); runErr != nil {
			return
		}
		if rep, runErr = execRun(it.tr, p, rig, w, job); runErr != nil {
			return
		}
		runErr = it.timeCheck(func() error { return check(p, c) })
	})
	if err := it.run(rig, job); err != nil {
		return nil, err
	}
	return rep, runErr
}

// stage uploads an operation's input, as a traced call into the store.
func stage(tr *tracer, p *des.Proc, c *objectstore.Client, job, bucket, key string, pl payload.Payload) error {
	id := tr.begin("objectstore.Put", job, 0)
	start := p.Now()
	err := c.Put(p, bucket, key, pl)
	tr.end(id)
	tr.virt(id, start, p.Now())
	return err
}

// execRun runs a workflow as a traced call into the executor; the
// tracer's stage events nest under it.
func execRun(tr *tracer, p *des.Proc, rig *calib.Rig, w *core.Workflow, job string) (*core.RunReport, error) {
	id := tr.begin("core.Executor.Run", job, 0)
	tr.job(w.Name(), id)
	start := p.Now()
	rep, err := rig.Exec.Run(p, w)
	tr.end(id)
	tr.virt(id, start, p.Now())
	return rep, err
}
