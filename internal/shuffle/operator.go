package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const (
	// mapFn and reduceFn are the operator's function names on the
	// platform.
	mapFn    = "shuffle/map"
	reduceFn = "shuffle/reduce"
	// overscan is how far past its range a map worker reads to finish
	// its last line; bedMethyl lines are ~48 bytes, 4 KiB is generous.
	overscan = 4096
	// defaultSampleBytes is the sample size for boundary estimation.
	defaultSampleBytes = 256 * 1024
)

// exchange is what every operator shares: the platform its functions
// run on, the object store holding inputs and outputs, and the job-ID
// sequence (atomic: a session rig shares one operator across
// concurrently Submitted jobs).
type exchange struct {
	platform *faas.Platform
	store    *objectstore.Service
	seq      atomic.Int64
}

// Operator is a serverless shuffle/sort over an object store. One
// operator registers its map/reduce functions on a platform once and
// can then run any number of jobs.
type Operator struct {
	exchange
	hierarchical bool
}

// HierarchicalEnabled reports whether EnableHierarchical registered
// the two-level shuffle's functions — the auto-planner only enumerates
// hierarchical candidates when it did.
func (op *Operator) HierarchicalEnabled() bool { return op.hierarchical }

// NewOperator registers the shuffle functions on the platform.
func NewOperator(platform *faas.Platform, store *objectstore.Service) (*Operator, error) {
	op := &Operator{}
	op.platform, op.store = platform, store
	if err := platform.Register(mapFn, mapHandler); err != nil {
		return nil, err
	}
	if err := platform.Register(reduceFn, reduceHandler); err != nil {
		return nil, err
	}
	return op, nil
}

// Spec describes one sort job.
type Spec struct {
	// InputBucket/InputKey locate the unsorted bedMethyl object.
	InputBucket, InputKey string
	// OutputBucket/OutputPrefix receive the sorted parts
	// (<prefix>part-NNNN), globally ordered by part index.
	OutputBucket, OutputPrefix string
	// ScratchBucket holds intermediate partitions (default: output
	// bucket).
	ScratchBucket string
	// Workers fixes the parallelism; 0 lets the planner choose.
	Workers int
	// MaxWorkers bounds the planner (default 256).
	MaxWorkers int
	// WorkerMemBytes is each function's usable memory for planning.
	WorkerMemBytes int64
	// SampleBytes is read up front to estimate partition boundaries
	// (default 256 KiB).
	SampleBytes int64
	// PartitionBps / MergeBps are the modeled per-worker throughputs
	// used both by the planner and to charge virtual compute time.
	PartitionBps, MergeBps float64
	// Startup is the planner's per-wave startup estimate.
	Startup time.Duration
	// MemoryMB overrides the platform's function memory grant.
	MemoryMB int
	// MaxRetries re-attempts invocations lost to transient platform
	// failures (faas.ErrInvocationFailed) this many extra times.
	MaxRetries int
	// Speculate enables straggler mitigation: laggard workers get a
	// duplicate invocation and the first completion wins. The shuffle's
	// functions are idempotent (deterministic keys), so this is safe.
	Speculate bool
	// Speculation tunes the mitigation when Speculate is set
	// (zero value: faas defaults).
	Speculation faas.Speculation
	// CleanupScratch deletes intermediate partition objects once the
	// consumer's output part is durably written (deferred so that a
	// MaxRetries re-attempt can still re-fetch everything). Deletes are
	// free on real providers but pay request latency; the default
	// leaves scratch in place (lifecycle rules reap it), matching the
	// paper's setup.
	CleanupScratch bool
	// StreamChunkBytes is the streaming map read's transfer granularity
	// (default objectstore.DefaultStreamChunk). Smaller chunks overlap
	// transfer and partition CPU at finer grain.
	StreamChunkBytes int64
}

func (s Spec) validate() error {
	if s.InputBucket == "" || s.InputKey == "" {
		return errors.New("shuffle: input not specified")
	}
	if s.OutputBucket == "" {
		return errors.New("shuffle: output bucket not specified")
	}
	if s.Workers < 0 {
		return fmt.Errorf("shuffle: negative workers %d", s.Workers)
	}
	if s.CleanupScratch && s.Speculate {
		// A speculative duplicate re-reads partitions its twin may have
		// already deleted; even with deletes deferred past the output
		// write, a losing twin can outlive the winner's cleanup, so the
		// combination stays rejected. (CleanupScratch with MaxRetries is
		// fine: deletes only happen after an attempt's output is durable,
		// and failed attempts delete nothing.)
		return errors.New("shuffle: CleanupScratch and Speculate are mutually exclusive")
	}
	if s.Speculate {
		if err := s.Speculation.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result reports a completed sort.
type Result struct {
	// Workers is the parallelism actually used.
	Workers int
	// Planned is the planner's decision (zero-valued when Workers was
	// fixed by the caller).
	Planned Plan
	// AutoPlanned reports whether the planner chose the worker count.
	AutoPlanned bool
	// Sample, Phase1, Phase2 are the measured stage durations.
	Sample, Phase1, Phase2 time.Duration
	// TotalBytes is the input size.
	TotalBytes int64
	// OutputKeys are the sorted part keys in global order.
	OutputKeys []string
}

// Sort runs the shuffle, blocking p until the sorted output is in
// place.
func (op *Operator) Sort(p *des.Proc, spec Spec) (Result, error) {
	jobID, client, size, err := op.begin(p, &spec, "shuffle")
	if err != nil {
		return Result{}, err
	}
	res, err := plan(spec, size, ProfileOf(op.store.Config()))
	if err != nil {
		return Result{}, err
	}
	workers := res.Workers
	runs := storeRuns{bucket: spec.ScratchBucket, cleanup: spec.CleanupScratch}

	// Sample for partition boundaries ("on the fly", real mode only).
	sampleStart := p.Now()
	boundaries, err := sampleBoundaries(p, client, spec, size, workers)
	if err != nil {
		return Result{}, err
	}
	res.Sample = p.Now() - sampleStart

	// Phase 1: map / partition.
	p1Start := p.Now()
	ranges := splitRanges(size, workers)
	if _, err := op.mapPhase(p, mapFn, mapWave(spec, jobID, size, ranges, workers, boundaries, runs, nil), spec); err != nil {
		return Result{}, fmt.Errorf("shuffle: map phase: %w", err)
	}
	res.Phase1 = p.Now() - p1Start

	// Phase 2: reduce / merge.
	p2Start := p.Now()
	redInputs := make([]any, workers)
	for r := range redInputs {
		redInputs[r] = spec.reduceTask(jobID, runs, workers, r, r, size/int64(workers))
	}
	outs, err := op.mapPhase(p, reduceFn, redInputs, spec)
	if err != nil {
		return Result{}, fmt.Errorf("shuffle: reduce phase: %w", err)
	}
	res.Phase2 = p.Now() - p2Start
	if res.OutputKeys, err = reducedKeys(outs); err != nil {
		return Result{}, err
	}
	return res, nil
}

// begin validates spec, fills the defaults every exchange shares,
// allocates the job ID, and stats the input.
func (x *exchange) begin(p *des.Proc, spec *Spec, prefix string) (jobID string, client *objectstore.Client, size int64, err error) {
	if err := spec.validate(); err != nil {
		return "", nil, 0, err
	}
	if spec.ScratchBucket == "" {
		spec.ScratchBucket = spec.OutputBucket
	}
	if spec.SampleBytes <= 0 {
		spec.SampleBytes = defaultSampleBytes
	}
	jobID = fmt.Sprintf("%s-%04d", prefix, x.seq.Add(1))
	client = objectstore.NewClient(x.store)
	head, err := client.Head(p, spec.InputBucket, spec.InputKey)
	if err != nil {
		return "", nil, 0, fmt.Errorf("shuffle: stat input: %w", err)
	}
	if head.Size == 0 {
		return "", nil, 0, errors.New("shuffle: empty input")
	}
	return jobID, client, head.Size, nil
}

// plan fixes a job's parallelism: spec.Workers when set, otherwise the
// planner's choice against the exchange medium's profile.
func plan(spec Spec, size int64, prof StoreProfile) (Result, error) {
	res := Result{TotalBytes: size, Workers: spec.Workers}
	if res.Workers > 0 {
		return res, nil
	}
	planned, err := Optimize(PlanInput{
		DataBytes:      size,
		MaxWorkers:     spec.MaxWorkers,
		WorkerMemBytes: spec.WorkerMemBytes,
		PartitionBps:   spec.PartitionBps,
		MergeBps:       spec.MergeBps,
		Startup:        spec.Startup,
	}, prof)
	if err != nil {
		return Result{}, err
	}
	res.Workers, res.Planned, res.AutoPlanned = planned.Workers, planned, true
	return res, nil
}

// mapPhase runs one wave of fn over inputs with the spec's fault
// policy: per-invocation retries for transient platform failures and
// optional straggler speculation.
func (x *exchange) mapPhase(p *des.Proc, fn string, inputs []any, spec Spec) ([]any, error) {
	opts := faas.InvokeOptions{MemoryMB: spec.MemoryMB, MaxRetries: spec.MaxRetries}
	if spec.Speculate {
		outs, _, err := x.platform.MapSpeculative(p, fn, inputs, opts, spec.Speculation)
		return outs, err
	}
	return x.platform.MapSync(p, fn, inputs, opts)
}

// reducedKeys reads the output keys a reduce wave returned.
func reducedKeys(outs []any) ([]string, error) {
	keys := make([]string, len(outs))
	for i, o := range outs {
		key, ok := o.(string)
		if !ok {
			return nil, fmt.Errorf("shuffle: reduce returned %T, want string key", o)
		}
		keys[i] = key
	}
	return keys, nil
}

// sampleBoundaries reads the head of the input and derives w-1 binary
// sort-key boundaries from sample quantiles. Sized inputs return nil
// boundaries (timing-only mode splits evenly).
func sampleBoundaries(p *des.Proc, client *objectstore.Client, spec Spec, size int64, workers int) ([]Boundary, error) {
	if workers <= 1 {
		return nil, nil
	}
	n := spec.SampleBytes
	if n > size {
		n = size
	}
	pl, err := client.GetRange(p, spec.InputBucket, spec.InputKey, 0, n)
	if err != nil {
		return nil, fmt.Errorf("shuffle: sample: %w", err)
	}
	raw, ok := pl.Bytes()
	if !ok {
		return nil, nil // sized mode
	}
	if cut := bytes.LastIndexByte(raw, '\n'); cut >= 0 {
		raw = raw[:cut+1]
	} else if int64(len(raw)) < size {
		return nil, errors.New("shuffle: sample contains no complete line")
	}
	recs, err := bed.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("shuffle: sample parse: %w", err)
	}
	if len(recs) == 0 {
		return nil, errors.New("shuffle: empty sample")
	}
	// Radix sort the packed sample keys: the sample is read before
	// wave 1 can launch, so its sort sits on the job's critical path.
	// Idx carries the record index; ties fall back to full-name
	// comparison plus input order, exactly like runPart.finish.
	krs := make([]bed.KeyRef, len(recs))
	for i, r := range recs {
		krs[i] = bed.KeyRef{Key: bed.KeyOf(r), Idx: int32(i)}
	}
	bed.RadixSort(krs, func(a, b bed.KeyRef) int {
		if c := bed.CompareKeyName(a.Key, recs[a.Idx].Chrom, b.Key, recs[b.Idx].Chrom); c != 0 {
			return c
		}
		return int(a.Idx) - int(b.Idx)
	})
	bounds := make([]Boundary, workers-1)
	for i := 1; i < workers; i++ {
		kr := krs[i*len(krs)/workers]
		bounds[i-1] = Boundary{Key: kr.Key, Name: recs[kr.Idx].Chrom}
	}
	return bounds, nil
}

type byteRange struct {
	off, n int64
}

// splitRanges divides [0, size) into w contiguous ranges differing by
// at most one byte in length.
func splitRanges(size int64, w int) []byteRange {
	ranges := make([]byteRange, w)
	base := size / int64(w)
	rem := size % int64(w)
	off := int64(0)
	for i := 0; i < w; i++ {
		n := base
		if int64(i) < rem {
			n++
		}
		ranges[i] = byteRange{off: off, n: n}
		off += n
	}
	return ranges
}

// ProfileOf converts a store config into the planner's profile.
func ProfileOf(cfg objectstore.Config) StoreProfile {
	return StoreProfile{
		RequestLatency:     cfg.RequestLatency,
		PerConnBandwidth:   cfg.PerConnBandwidth,
		AggregateBandwidth: cfg.AggregateBandwidth,
		ReadOpsPerSec:      cfg.ReadOpsPerSec,
		WriteOpsPerSec:     cfg.WriteOpsPerSec,
	}
}

// mapTask is the input of one map-phase activation: stream the input
// slice, partition it into Workers sorted runs, write them to Runs.
type mapTask struct {
	mapRead
	JobID      string
	Workers    int
	MapIndex   int
	Boundaries []Boundary
	Runs       runStore
	// OnlyReducers restricts emission to these reducer indexes (nil:
	// all) — a regeneration wave re-derives only lost runs.
	OnlyReducers []int
}

// mapWave describes one map activation per input range: mapper m
// streams ranges[m], partitions it into parts runs by bounds, and
// writes them to runs. A non-nil only restricts the wave to its
// mappers, each emitting only the listed reducers' runs.
func mapWave(spec Spec, jobID string, size int64, ranges []byteRange, parts int,
	bounds []Boundary, runs runStore, only map[int][]int) []any {
	var wave []any
	for m, rg := range ranges {
		rs, ok := only[m]
		if only != nil && !ok {
			continue
		}
		wave = append(wave, &mapTask{
			mapRead: mapRead{
				Bucket: spec.InputBucket, Key: spec.InputKey,
				Offset: rg.off, Length: rg.n, TotalSize: size,
				ChunkBytes: spec.StreamChunkBytes, PartitionBps: spec.PartitionBps,
			},
			JobID:        jobID,
			Workers:      parts,
			MapIndex:     m,
			Boundaries:   bounds,
			Runs:         runs,
			OnlyReducers: rs,
		})
	}
	return wave
}

// reduceTask is the input of one reduce-phase activation: merge the
// Workers runs addressed to ReduceIndex into output part OutputIndex.
// The one-level exchanges set OutputIndex to ReduceIndex, the
// hierarchical operator to the group-offset global index.
type reduceTask struct {
	JobID        string
	Workers      int
	ReduceIndex  int
	OutputIndex  int
	OutputBucket string
	OutputPrefix string
	MergeBps     float64
	// SliceBytes is the planned per-reducer input volume, sizing the
	// adaptive stream chunk; ChunkBytes overrides it when set.
	SliceBytes int64
	ChunkBytes int64
	Runs       runStore
}

// reduceTask describes reducer r of a wave merging workers runs each
// into output part out; slice is the planned per-reducer volume.
func (s Spec) reduceTask(jobID string, runs runStore, workers, r, out int, slice int64) *reduceTask {
	return &reduceTask{
		JobID:        jobID,
		Workers:      workers,
		ReduceIndex:  r,
		OutputIndex:  out,
		OutputBucket: s.OutputBucket,
		OutputPrefix: s.OutputPrefix,
		MergeBps:     s.MergeBps,
		SliceBytes:   slice,
		ChunkBytes:   s.StreamChunkBytes,
		Runs:         runs,
	}
}

// perRun divides a worker's planned slice among the n runs it reads.
func perRun(slice int64, n int) int64 {
	if n > 0 {
		return slice / int64(n)
	}
	return slice
}

// runPayloads wraps one run per reducer: the real runs, or — for a
// timing-only input — the even split of total bytes.
func runPayloads(workers int, parts [][]byte, sized bool, total int64) []payload.Payload {
	pls := make([]payload.Payload, workers)
	if sized {
		for r, rg := range splitRanges(total, workers) {
			pls[r] = payload.Sized(rg.n)
		}
		return pls
	}
	for r, part := range parts {
		pls[r] = payload.RealNoCopy(part)
	}
	return pls
}

// putRuns writes mapper m's runs, skipping reducers outside a non-nil
// only, and reports how many fell back to object storage.
func putRuns(ctx *faas.Ctx, runs runStore, jobID string, m int, pls []payload.Payload, only []int) (int, error) {
	fellBack := 0
	for r, pl := range pls {
		if only != nil && !slices.Contains(only, r) {
			continue
		}
		fb, err := runs.put(ctx, partKey(jobID, m, r), pl)
		if err != nil {
			return 0, fmt.Errorf("write partition %d: %w", r, err)
		}
		if fb {
			fellBack++
		}
	}
	return fellBack, nil
}

// mapHandler consumes its input slice as a stream of chunks,
// partitioning records by the binary sort-key boundaries as they
// arrive, and writes one sorted run per reducer to the task's run
// store. It returns how many runs fell back to object storage.
func mapHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*mapTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: map input %T", input)
	}
	var (
		parts [][]byte
		sized bool
	)
	if task.Length == 0 {
		// Degenerate split (more workers than bytes): write empty runs
		// to keep the key structure uniform.
		parts = make([][]byte, task.Workers)
	} else {
		var err error
		parts, sized, err = consumeMapStream(ctx, task.mapRead, task.Workers, task.Boundaries)
		if err != nil {
			return nil, fmt.Errorf("shuffle: map %d: %w", task.MapIndex, err)
		}
	}
	n, err := putRuns(ctx, task.Runs, task.JobID, task.MapIndex,
		runPayloads(task.Workers, parts, sized, task.Length), task.OnlyReducers)
	if err != nil {
		return nil, fmt.Errorf("shuffle: map %d: %w", task.MapIndex, err)
	}
	return n, nil
}

// reduceHandler opens every mapper's sorted run and k-way merges them
// as the chunks arrive, the merged lines flowing straight into a
// multipart streaming PUT — transfer-in, merge CPU, and transfer-out
// all overlap, so the reduce leg costs their max instead of their sum.
// No re-parse of full records, no re-sort, no re-serialization. It
// returns the output key.
func reduceHandler(ctx *faas.Ctx, input any) (any, error) {
	task, ok := input.(*reduceTask)
	if !ok {
		return nil, fmt.Errorf("shuffle: reduce input %T", input)
	}
	keys := make([]string, task.Workers)
	for m := range keys {
		keys[m] = partKey(task.JobID, m, task.ReduceIndex)
	}
	srcs, err := task.Runs.open(ctx, keys, AdaptiveChunkBytes(task.ChunkBytes, perRun(task.SliceBytes, task.Workers)))
	if err != nil {
		return nil, fmt.Errorf("shuffle: reduce %d: %w", task.ReduceIndex, err)
	}
	defer closeSources(srcs)

	outKey := outputKey(task.OutputPrefix, task.OutputIndex)
	outPart := AdaptiveChunkBytes(task.ChunkBytes, task.SliceBytes)
	w := ctx.Store.PutStream(ctx.Proc, task.OutputBucket, outKey,
		objectstore.PutStreamOptions{PartBytes: outPart})
	var buf []byte
	emit := func(_ bed.Key, line []byte) error {
		if buf == nil {
			buf = make([]byte, 0, outPart+int64(len(line))+1)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		if int64(len(buf)) >= outPart {
			err := w.Write(ctx.Proc, payload.RealNoCopy(buf))
			buf = nil // the payload retains the buffer; start a fresh one
			return err
		}
		return nil
	}
	charge := func(n int64) { ctx.ComputeBytes(n, task.MergeBps) }
	sized, total, err := mergeStreamedRuns(ctx.Proc, srcs, charge, emit)
	if err != nil {
		w.Abort(ctx.Proc)
		return nil, fmt.Errorf("shuffle: reduce %d merge: %w", task.ReduceIndex, err)
	}
	if sized {
		w.Abort(ctx.Proc)
		if err := ctx.Store.Put(ctx.Proc, task.OutputBucket, outKey, payload.Sized(total)); err != nil {
			return nil, fmt.Errorf("shuffle: reduce %d write: %w", task.ReduceIndex, err)
		}
	} else {
		if len(buf) > 0 {
			if err := w.Write(ctx.Proc, payload.RealNoCopy(buf)); err != nil {
				w.Abort(ctx.Proc)
				return nil, fmt.Errorf("shuffle: reduce %d write: %w", task.ReduceIndex, err)
			}
		}
		if err := w.Close(ctx.Proc); err != nil {
			return nil, fmt.Errorf("shuffle: reduce %d write: %w", task.ReduceIndex, err)
		}
	}
	// Consumed runs are freed only once the output part is durable: a
	// reducer retried after a transient platform failure (MaxRetries)
	// must be able to re-fetch every run, so nothing may be freed by an
	// attempt that did not finish. Close returning nil is the
	// durability point — the multipart complete has been admitted.
	if err := task.Runs.free(ctx, keys); err != nil {
		return nil, fmt.Errorf("shuffle: reduce %d: %w", task.ReduceIndex, err)
	}
	return outKey, nil
}
