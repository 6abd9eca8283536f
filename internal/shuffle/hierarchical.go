package shuffle

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// repartitionFn is the hierarchical operator's round-2 map function.
const repartitionFn = "shuffle/repartition"

// HierSpec describes a two-level (hierarchical) sort job. The one-level
// all-to-all moves w x w intermediate objects; with w workers in g
// groups the exchange becomes w*g objects in round 1 plus g*(w/g)^2 in
// round 2 — minimized near g = sqrt(w) at ~2*w^1.5 total. That trades
// an extra pass of data through the store for far fewer requests, which
// wins once the service's per-request latency and ops throttle dominate
// (large w) — the design extension Primula's line of work (Locus,
// Pocket) motivates.
type HierSpec struct {
	// Spec carries the common job parameters. Workers must be explicit
	// (or left 0 for the hierarchical planner).
	Spec
	// Groups is the number of round-1 groups; it must divide Workers.
	// 0 picks the divisor of Workers nearest sqrt(Workers).
	Groups int
}

// HierResult reports a completed hierarchical sort.
type HierResult struct {
	Result
	// Groups is the group count used (1 degenerates to a relabeled
	// one-level exchange).
	Groups int
	// Round1 and Round2 are the two exchange passes' durations; they
	// refine Result.Phase1/Phase2 (Phase1 = Round1, Phase2 = Round2).
	Round1, Round2 time.Duration
}

// EnableHierarchical registers the round-2 repartition function; call
// once per operator before SortHierarchical. Split from NewOperator so
// existing single-level deployments register nothing extra.
func (op *Operator) EnableHierarchical() error {
	if err := op.platform.Register(repartitionFn, repartitionHandler); err != nil {
		return err
	}
	op.hierarchical = true
	return nil
}

// autoGroups picks the divisor of w nearest sqrt(w). Primes degrade to
// 1 (a single group: one coarse pass then a full sort of each range).
func autoGroups(w int) int {
	if w <= 1 {
		return 1
	}
	root := math.Sqrt(float64(w))
	best, bestDist := 1, math.Inf(1)
	for g := 1; g <= w; g++ {
		if w%g != 0 {
			continue
		}
		if d := math.Abs(float64(g) - root); d < bestDist {
			best, bestDist = g, d
		}
	}
	return best
}

// SortHierarchical runs the two-level shuffle, blocking p until the
// sorted output is in place. Output parts are globally ordered across
// groups: group j's k parts are parts j*k .. j*k+k-1.
func (op *Operator) SortHierarchical(p *des.Proc, spec HierSpec) (HierResult, error) {
	jobID, client, size, err := op.begin(p, &spec.Spec, "hiershuffle")
	if err != nil {
		return HierResult{}, err
	}
	base, err := plan(spec.Spec, size, ProfileOf(op.store.Config()))
	if err != nil {
		return HierResult{}, err
	}
	res := HierResult{Result: base}
	workers := res.Workers
	groups := spec.Groups
	if groups <= 0 {
		groups = autoGroups(workers)
	}
	if groups > workers || workers%groups != 0 {
		return HierResult{}, fmt.Errorf(
			"shuffle: %d groups do not divide %d workers", groups, workers)
	}
	k := workers / groups // parts (and round-2 workers) per group
	res.Groups = groups
	runs := storeRuns{bucket: spec.ScratchBucket, cleanup: spec.CleanupScratch}
	slice := size / int64(workers)

	// One sample yields both boundary levels: global fine boundaries
	// b_1..b_{w-1}; coarse boundaries are every k-th; fine-within-group
	// are the k-1 between consecutive coarse ones.
	sampleStart := p.Now()
	fine, err := sampleBoundaries(p, client, spec.Spec, size, workers)
	if err != nil {
		return HierResult{}, err
	}
	res.Sample = p.Now() - sampleStart
	var coarse []Boundary
	fineFor := func(group int) []Boundary { return nil }
	if fine != nil {
		coarse = make([]Boundary, groups-1)
		for j := 1; j < groups; j++ {
			coarse[j-1] = fine[j*k-1]
		}
		fineFor = func(group int) []Boundary {
			lo := group * k // b_{group*k+1} is fine[group*k]
			return fine[lo : lo+k-1]
		}
	}

	// Round 1: w mappers spray their slice into g coarse ranges.
	r1Start := p.Now()
	r1JobID := jobID + "-r1"
	r1 := mapWave(spec.Spec, r1JobID, size, splitRanges(size, workers), groups, coarse, runs, nil)
	if _, err := op.mapPhase(p, mapFn, r1, spec.Spec); err != nil {
		return HierResult{}, fmt.Errorf("shuffle: round 1: %w", err)
	}
	res.Round1 = p.Now() - r1Start
	res.Phase1 = res.Round1

	// Round 2: per group, k repartitioners each gather g round-1
	// objects, split them by the group's fine boundaries, and k
	// reducers merge into globally-indexed output parts.
	r2Start := p.Now()
	repInputs := make([]any, 0, workers)
	for g := 0; g < groups; g++ {
		groupJob := fmt.Sprintf("%s-r2-g%04d", jobID, g)
		for j := 0; j < k; j++ {
			// Worker j of group g gathers round-1 partitions from
			// mappers j*g .. (j+1)*g-1 (an even split of the w objects).
			srcs := make([]string, 0, groups)
			for m := j * groups; m < (j+1)*groups; m++ {
				srcs = append(srcs, partKey(r1JobID, m, g))
			}
			repInputs = append(repInputs, &repartitionTask{
				JobID:      groupJob,
				SourceKeys: srcs,
				Workers:    k,
				MapIndex:   j,
				Boundaries: fineFor(g),
				MergeBps:   spec.MergeBps,
				SliceBytes: slice,
				ChunkBytes: spec.StreamChunkBytes,
				Runs:       runs,
			})
		}
	}
	if _, err := op.mapPhase(p, repartitionFn, repInputs, spec.Spec); err != nil {
		return HierResult{}, fmt.Errorf("shuffle: round 2 repartition: %w", err)
	}
	redInputs := make([]any, 0, workers)
	for g := 0; g < groups; g++ {
		groupJob := fmt.Sprintf("%s-r2-g%04d", jobID, g)
		for r := 0; r < k; r++ {
			redInputs = append(redInputs, spec.reduceTask(groupJob, runs, k, r, g*k+r, slice))
		}
	}
	outs, err := op.mapPhase(p, reduceFn, redInputs, spec.Spec)
	if err != nil {
		return HierResult{}, fmt.Errorf("shuffle: round 2 reduce: %w", err)
	}
	res.Round2 = p.Now() - r2Start
	res.Phase2 = res.Round2
	if res.OutputKeys, err = reducedKeys(outs); err != nil {
		return HierResult{}, err
	}
	sort.Strings(res.OutputKeys) // part-%04d names sort into global order
	return res, nil
}

// repartitionTask is the input of one round-2 repartition activation:
// merge the SourceKeys runs and split them into Workers runs by the
// group's fine boundaries. Runs holds both the sources and the output.
type repartitionTask struct {
	JobID      string
	SourceKeys []string
	Workers    int
	MapIndex   int
	Boundaries []Boundary
	MergeBps   float64
	// SliceBytes is the planned per-worker gather volume, sizing the
	// adaptive stream chunk; ChunkBytes overrides it when set.
	SliceBytes int64
	ChunkBytes int64
	Runs       runStore
}

// repartitionHandler opens its source runs — round-1 partitions, which
// are already sorted — and merge-splits them by the group's fine
// boundaries as the chunks arrive (splitEmitter): the g transfers
// overlap each other and the merge CPU, and round 2 re-sorts nothing.
// Only the key columns of each line are ever parsed; bytes are copied
// verbatim.
func repartitionHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*repartitionTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: repartition input %T", input)
	}
	srcs, err := task.Runs.open(ctx, task.SourceKeys,
		AdaptiveChunkBytes(task.ChunkBytes, perRun(task.SliceBytes, len(task.SourceKeys))))
	if err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	parts := make([][]byte, task.Workers)
	hint := 0
	if task.Workers > 0 && task.SliceBytes > 0 {
		hint = int(task.SliceBytes)/task.Workers + int(task.SliceBytes)/(4*task.Workers)
	}
	emit := splitEmitter(parts, task.Boundaries, hint)
	charge := func(n int64) { ctx.ComputeBytes(n, task.MergeBps) }
	sized, total, err := mergeStreamedRuns(ctx.Proc, srcs, charge, emit)
	closeSources(srcs)
	if err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d merge: %w", task.MapIndex, err)
	}
	if _, err := putRuns(ctx, task.Runs, task.JobID, task.MapIndex,
		runPayloads(task.Workers, parts, sized, total), nil); err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	// Sources are freed only once every partition this worker produces
	// is durable, so a MaxRetries re-attempt can re-read its inputs —
	// the same ordering reduceHandler uses.
	if err := task.Runs.free(ctx, task.SourceKeys); err != nil {
		return nil, fmt.Errorf("shuffle: repartition %d: %w", task.MapIndex, err)
	}
	return nil, nil
}

// splitEmitter routes merge-ordered lines into boundary partitions,
// appending each to parts[i] (allocated with capacity hint on first
// use; partitions that receive nothing stay nil). Lines arrive in
// ascending key order, so the routing cursor only moves right — O(1)
// amortized instead of a binary search per line — and every partition
// is a sorted run by construction.
func splitEmitter(parts [][]byte, bounds []Boundary, hint int) func(key bed.Key, line []byte) error {
	cur := 0
	return func(key bed.Key, line []byte) error {
		// Keys equal to a boundary route right, as in partitionIndex.
		for cur < len(bounds) &&
			bed.CompareKeyName(bounds[cur].Key, bounds[cur].Name, key, chromOf(line)) <= 0 {
			cur++
		}
		if parts[cur] == nil {
			parts[cur] = make([]byte, 0, hint)
		}
		parts[cur] = append(parts[cur], line...)
		parts[cur] = append(parts[cur], '\n')
		return nil
	}
}

// PredictHierarchical models the two-level shuffle's latency with w
// workers in g groups, mirroring Predict's structure: three waves
// (spray, repartition, merge), each moving data/w per worker, with the
// request terms shrunk from w per worker to g or w/g per worker.
func PredictHierarchical(w, g int, in PlanInput, sp StoreProfile) Plan {
	in = in.withDefaults()
	d := float64(in.DataBytes)
	fw := float64(w)
	fg := float64(g)
	k := fw / fg
	perWorker := d / fw

	rate := sp.PerConnBandwidth
	if sp.AggregateBandwidth > 0 {
		if agg := sp.AggregateBandwidth / fw; agg < rate {
			rate = agg
		}
	}
	lat := sp.RequestLatency.Seconds()
	toDur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// Round 1: stream the slice — transfer overlaps the partition CPU,
	// with only the per-partition sort after it — then write g
	// partitions (w*g writes total).
	streamBps, sortBps := MapStreamRates(in.PartitionBps)
	reqR1 := math.Max(fg*lat, fw*fg/sp.WriteOpsPerSec)
	ioR1 := math.Max(perWorker/rate, perWorker/streamBps) + perWorker/rate + reqR1 + lat
	cpuR1 := perWorker / sortBps

	// Reduce-side streams run their fan-in concurrently; each leg is
	// capped by its connection count or the worker's aggregate share.
	aggShare := math.Inf(1)
	if sp.AggregateBandwidth > 0 {
		aggShare = sp.AggregateBandwidth / fw
	}

	// Round 2a: stream g sorted runs into the merge-split cursor — the
	// gather overlaps the cursor's CPU (it re-sorts nothing, so the CPU
	// leg runs at the merge rate) — then write k partitions buffered.
	inR2a := math.Min(fg*sp.PerConnBandwidth, aggShare)
	reqR2a := math.Max((fg+k)*lat, (fw*fg+fw*k)/sp.ReadOpsPerSec)
	ioR2a := math.Max(perWorker/inR2a, perWorker/in.MergeBps) + perWorker/rate + reqR2a
	cpuR2a := 0.0

	// Round 2b: stream k partitions into the final merge while the
	// output leaves through the multipart PutStream writer — the full
	// max(in, merge, out) overlap.
	inR2b := math.Min(k*sp.PerConnBandwidth, aggShare)
	outR2b := math.Min(float64(objectstore.DefaultPutConns)*sp.PerConnBandwidth, aggShare)
	parts := float64(objectstore.PutStreamRequests(int64(perWorker), AdaptiveChunkBytes(0, int64(perWorker))))
	reqR2b := math.Max(k*lat, math.Max(fw*k/sp.ReadOpsPerSec, fw*parts/sp.WriteOpsPerSec))
	ioR2b := math.Max(perWorker/inR2b, math.Max(perWorker/in.MergeBps, perWorker/outR2b)) +
		reqR2b + lat
	cpuR2b := 0.0

	p := Plan{
		Workers:   w,
		Startup:   in.Startup,
		Phase1IO:  toDur(ioR1 + ioR2a),
		Phase1CPU: toDur(cpuR1 + cpuR2a),
		Phase2IO:  toDur(ioR2b),
		Phase2CPU: toDur(cpuR2b),
	}
	p.Predicted = p.Startup + p.Phase1IO + p.Phase1CPU + p.Phase2IO + p.Phase2CPU
	return p
}

// HierPlan is the hierarchical planner's decision.
type HierPlan struct {
	// Plan is the chosen configuration's prediction.
	Plan
	// Groups is the chosen group count (1 = stay one-level).
	Groups int
	// OneLevel is the best single-level plan, for comparison.
	OneLevel Plan
}

// OptimizeHierarchical searches worker counts and divisor group counts,
// returning the best two-level configuration alongside the best
// one-level plan. Callers pick whichever Predicted is lower (the
// hierarchy wins only when per-request costs dominate).
func OptimizeHierarchical(in PlanInput, sp StoreProfile) (HierPlan, error) {
	one, err := Optimize(in, sp)
	if err != nil {
		return HierPlan{}, err
	}
	in = in.withDefaults()
	minW := MinWorkersForMemory(in)
	best := HierPlan{OneLevel: one}
	for w := minW; w <= in.MaxWorkers; w++ {
		for g := 2; g <= w; g++ {
			if w%g != 0 {
				continue
			}
			p := PredictHierarchical(w, g, in, sp)
			if best.Groups == 0 || p.Predicted < best.Plan.Predicted {
				best.Plan = p
				best.Groups = g
			}
		}
	}
	if best.Groups == 0 {
		// No composite worker count in range: stay one-level.
		best.Plan = one
		best.Groups = 1
	}
	best.MinWorkers = minW
	return best, nil
}
