package main

import (
	"fmt"
	"math"
	"time"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/objectstore"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// Paper Table 1 latencies (virtual s) the w=8 pipelines are compared
// against.
const (
	paperServerlessS = 83.32
	paperVMS         = 142.77
)

// fanoutLimitVS is shuffle-fanout's per-operation latency limit: the
// slowest operation today (the cold cache pipeline) takes well under
// it, so a miss means a modelled exchange got markedly slower.
const fanoutLimitVS = 600

// Exchanges the shuffle-fanout pipelines run, in order.
var fanoutExchanges = []string{"object-storage", "vm", "cache", "auto"}

// runFanout is the shuffle-fanout workload: the sort stage alone over
// a worker sweep, then the full METHCOMP pipeline once per exchange,
// all on a sized input under the paper's calibrated profile.
func runFanout(sz sizes, seed int64, tr *tracer) *iteration {
	it := newIteration(tr)
	prof := calib.Paper()
	prof.Seed = seed

	var lat []float64
	var usd float64
	var absErr float64
	for _, w := range sz.fanoutWorkers {
		job := fmt.Sprintf("sort-w%d", w)
		it.attempted++
		res, d, cost, err := sortOnce(it, prof, sz.fanoutBytes, w, job)
		if err != nil {
			it.fail(job, err)
			continue
		}
		lat = append(lat, d.Seconds())
		usd += cost
		it.virtual["shuffle.sample_vs"] += res.Sample.Seconds()
		it.virtual["shuffle.phase1_vs"] += res.Phase1.Seconds()
		it.virtual["shuffle.phase2_vs"] += res.Phase2.Seconds()
		it.virtual[fmt.Sprintf("shuffle.sort_vs.w%d", w)] = d.Seconds()
		pred := shuffle.Predict(w, shuffle.PlanInput{
			DataBytes:      sz.fanoutBytes,
			MaxWorkers:     256,
			WorkerMemBytes: int64(prof.Faas.MemoryMB) << 20,
			PartitionBps:   prof.PartitionBps,
			MergeBps:       prof.MergeBps,
			Startup:        prof.Faas.ColdStart,
		}, shuffle.ProfileOf(prof.Store)).Predicted
		absErr += math.Abs(d.Seconds()-pred.Seconds()) / pred.Seconds()
	}
	if n := len(sz.fanoutWorkers); n > 0 {
		it.virtual["shuffle.model_err_pct"] = 100 * absErr / float64(n)
	}

	for _, kind := range fanoutExchanges {
		job := "pipeline-" + kind
		it.attempted++
		rep, err := fanoutPipeline(it, prof, sz.fanoutBytes, kind, job)
		if err != nil {
			it.fail(job, err)
			continue
		}
		l := rep.Latency().Seconds()
		lat = append(lat, l)
		usd += rep.Cost.Total()
		switch kind {
		case "object-storage":
			it.virtual["model.table1_err_serverless_pct"] = 100 * (l - paperServerlessS) / paperServerlessS
		case "vm":
			it.virtual["model.table1_err_vm_pct"] = 100 * (l - paperVMS) / paperVMS
		}
	}

	if tr != nil {
		// The planner alone, as one timed call on the profile's
		// offline environment.
		id := tr.begin("autoplan.Plan", "plan", 0)
		start := time.Now()
		_, err := autoplan.Plan(calib.PlanWorkload(prof, sz.fanoutBytes), calib.PlanEnv(prof), autoplan.Objective{})
		it.hostLayer["autoplan.plan_host_s"] = time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			it.attempted++
			it.fail("autoplan.Plan", err)
		}
	}
	it.opLatencies(lat, usd, fanoutLimitVS)
	return it
}

// sortOnce runs shuffle.Operator.Sort once at w workers on a fresh rig
// and checks that the output parts hold every input byte.
func sortOnce(it *iteration, prof calib.Profile, size int64, w int, job string) (shuffle.Result, time.Duration, float64, error) {
	rig, err := it.newRig(prof, job)
	if err != nil {
		return shuffle.Result{}, 0, 0, err
	}
	var (
		res    shuffle.Result
		d      time.Duration
		cost   float64
		runErr error
	)
	rig.Sim.Spawn("perfbench/"+job, func(p *des.Proc) {
		c := objectstore.NewClient(rig.Store)
		if runErr = createBuckets(p, c, "data", "work"); runErr != nil {
			return
		}
		if runErr = stage(it.tr, p, c, job, "data", "in", payload.Sized(size)); runErr != nil {
			return
		}
		fBefore, sBefore := rig.Platform.Meter(), rig.Store.Metrics()
		id := it.tr.begin("shuffle.Operator.Sort", job, 0)
		start := p.Now()
		res, runErr = rig.Shuffle.Sort(p, shuffle.Spec{
			InputBucket: "data", InputKey: "in",
			OutputBucket: "work", OutputPrefix: "sorted/",
			Workers:      w,
			PartitionBps: prof.PartitionBps,
			MergeBps:     prof.MergeBps,
			MemoryMB:     prof.Faas.MemoryMB,
		})
		d = p.Now() - start
		it.tr.end(id)
		it.tr.virt(id, start, p.Now())
		cost = prof.Prices.FunctionsCost(rig.Platform.Meter().Sub(fBefore)) +
			prof.Prices.StorageCost(rig.Store.Metrics().Sub(sBefore))
		if runErr != nil {
			return
		}
		runErr = it.timeCheck(func() error {
			return checkSizes(p, c, "work", res.OutputKeys, size)
		})
	})
	if err := it.run(rig, job); err != nil {
		return res, d, cost, err
	}
	return res, d, cost, runErr
}

// fanoutPipeline runs the sort -> encode pipeline once under one
// exchange and checks that the sorted parts hold every input byte and
// that each was encoded.
func fanoutPipeline(it *iteration, prof calib.Profile, size int64, kind, job string) (*core.RunReport, error) {
	var auto *core.AutoExchange
	build := func(rig *calib.Rig) (*core.Workflow, payload.Payload, error) {
		var strategy core.ExchangeStrategy
		params := rig.SortParams("data", "sample.bed", "work", "sorted/", 8)
		switch kind {
		case "object-storage":
			strategy = core.ObjectStorageExchange{}
		case "vm":
			strategy = rig.VMStrategy()
		case "cache":
			strategy = rig.CacheStrategy(false)
		case "auto":
			auto = rig.AutoStrategy(autoplan.Objective{})
			strategy = auto
			// The planner sweeps worker counts itself.
			params.Workers = 0
		}
		w, err := genomics.BuildPipeline(genomics.PipelineConfig{
			Name:        job,
			InputBucket: "data", InputKey: "sample.bed",
			WorkBucket:  "work",
			Strategy:    strategy,
			Sort:        params,
			EncodeBps:   prof.EncodeBps,
			EncodeRatio: prof.EncodeRatio,
		})
		return w, payload.Sized(size), err
	}
	check := func(p *des.Proc, c *objectstore.Client) error {
		sorted, err := checkParts(p, c, "work", "sorted/", size)
		if err != nil {
			return err
		}
		encoded, err := c.ListAll(p, "work", "compressed/")
		if err != nil {
			return err
		}
		if len(encoded) != len(sorted) {
			return fmt.Errorf("%d encoded parts for %d sorted parts", len(encoded), len(sorted))
		}
		return nil
	}
	rep, err := pipelineOnce(it, prof, job, build, check)
	if err != nil {
		return nil, err
	}
	if auto != nil && auto.LastDecision != nil {
		if sr, ok := rep.Stage("sort"); ok && sr.Duration() > 0 {
			pred := auto.LastDecision.Chosen.Time.Seconds()
			it.virtual["autoplan.pred_err_pct"] = 100 * math.Abs(pred-sr.Duration().Seconds()) / sr.Duration().Seconds()
		}
	}
	return rep, nil
}
