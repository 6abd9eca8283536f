package shuffle

import (
	"errors"
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

const (
	// cacheMapFn and cacheReduceFn are the cache operator's function
	// names on the platform.
	cacheMapFn    = "cacheshuffle/map"
	cacheReduceFn = "cacheshuffle/reduce"
	// defaultCacheHeadroom oversizes the cluster so the all-to-all's
	// transient double-buffering never hits the eviction path.
	defaultCacheHeadroom = 1.3
)

// CacheOperator is a shuffle/sort whose all-to-all intermediates flow
// through a provisioned in-memory cache instead of object storage —
// the ElastiCache-style alternative the paper names in §1. Input and
// output still live in the object store (the datasets' home); only the
// w x w partition exchange uses the cache.
type CacheOperator struct {
	exchange
	prov *memcache.Provisioner
}

// NewCacheOperator registers the cache-shuffle functions on the
// platform. Clusters are provisioned per job from prov.
func NewCacheOperator(platform *faas.Platform, store *objectstore.Service, prov *memcache.Provisioner) (*CacheOperator, error) {
	if prov == nil {
		return nil, errors.New("shuffle: nil cache provisioner")
	}
	op := &CacheOperator{prov: prov}
	op.platform, op.store = platform, store
	// The same handlers as the object-storage exchange, registered under
	// the cache's own names: the tasks carry the run store.
	if err := platform.Register(cacheMapFn, mapHandler); err != nil {
		return nil, err
	}
	if err := platform.Register(cacheReduceFn, reduceHandler); err != nil {
		return nil, err
	}
	return op, nil
}

// CacheSpec describes one cache-exchanged sort job.
type CacheSpec struct {
	// Spec carries the common job parameters. Intermediates live in the
	// cache; ScratchBucket (default: the output bucket) only receives
	// the runs a dead shard node cannot hold.
	Spec
	// Nodes fixes the cluster size; 0 sizes it from the input volume
	// with Headroom.
	Nodes int
	// Headroom oversizes auto-sized clusters (default 1.3).
	Headroom float64
	// Warm treats the cluster as already provisioned: the spin-up
	// latency is skipped, modeling a long-lived shared cluster. Billing
	// still accrues for the job window only, which understates a real
	// always-on cluster's cost — the ablation's point is latency.
	Warm bool
	// Cluster, when set, is an already-running cluster owned by the
	// caller (a session's standing warm cluster): no provisioning
	// happens, the cluster is left running afterwards, and CacheUSD is
	// reported as 0 because the owner attributes its node-hours.
	// Nodes/Headroom/Warm are ignored.
	Cluster *memcache.Cluster
}

// CacheResult reports a completed cache-exchanged sort.
type CacheResult struct {
	Result
	// Nodes is the cluster size used.
	Nodes int
	// Provision is the cluster spin-up time paid (zero when Warm).
	Provision time.Duration
	// CacheUSD is the cluster cost accrued by this job.
	CacheUSD float64
	// PeakCacheBytes is the high-water cache occupancy estimate
	// (the input volume; partitions are deleted as they are merged).
	PeakCacheBytes int64
	// FallbackSlabs counts intermediate partitions that flowed through
	// object storage instead of the cache because their shard node was
	// down (direct reroutes plus regenerated slabs).
	FallbackSlabs int
	// Restarts counts recovery waves run after a node loss: slab
	// regeneration passes and reduce re-runs.
	Restarts int
	// ReworkBytes is the input volume re-read to regenerate slabs a
	// failed node lost.
	ReworkBytes int64
}

// CacheProfile converts a cache node profile at a given cluster size
// into the planner's store profile, so the same Optimize searches the
// cache-exchange plan space: aggregate bandwidth and ops scale with
// nodes instead of being a service-wide constant.
func CacheProfile(cfg memcache.Config, nodes int) StoreProfile {
	if nodes < 1 {
		nodes = 1
	}
	return StoreProfile{
		RequestLatency:     cfg.RequestLatency,
		PerConnBandwidth:   cfg.PerConnBandwidth,
		AggregateBandwidth: cfg.NodeBandwidth * float64(nodes),
		ReadOpsPerSec:      cfg.NodeOpsPerSec * float64(nodes),
		WriteOpsPerSec:     cfg.NodeOpsPerSec * float64(nodes),
	}
}

// Sort runs the cache-exchanged shuffle, blocking p until the sorted
// output is in the object store. The per-job cluster is provisioned
// before and stopped after the exchange; its cost is reported in the
// result.
func (op *CacheOperator) Sort(p *des.Proc, spec CacheSpec) (CacheResult, error) {
	if spec.Headroom <= 0 {
		spec.Headroom = defaultCacheHeadroom
	}
	jobID, client, size, err := op.begin(p, &spec.Spec, "cacheshuffle")
	if err != nil {
		return CacheResult{}, err
	}

	nodes := spec.Nodes
	if spec.Cluster != nil {
		if spec.Cluster.Stopped() {
			return CacheResult{}, errors.New("shuffle: caller-owned cache cluster is stopped")
		}
		nodes = spec.Cluster.Nodes()
		if size > spec.Cluster.CapacityBytes() {
			return CacheResult{}, fmt.Errorf(
				"shuffle: %d-byte exchange exceeds the standing cluster's %d-byte capacity",
				size, spec.Cluster.CapacityBytes())
		}
	} else if nodes <= 0 {
		nodes = memcache.NodesForCapacity(op.prov.Config(), size, spec.Headroom)
	}
	// Decide parallelism against the cache's throughput profile.
	base, err := plan(spec.Spec, size, CacheProfile(op.prov.Config(), nodes))
	if err != nil {
		return CacheResult{}, err
	}
	res := CacheResult{Result: base, Nodes: nodes, PeakCacheBytes: size}
	workers := res.Workers

	// Provision the cluster (skipped when warm: it is already up; or
	// when the caller owns one: this job just uses it).
	provStart := p.Now()
	cluster := spec.Cluster
	owned := cluster == nil
	if owned {
		if spec.Warm {
			cluster, err = op.prov.ProvisionWarm(p, nodes)
		} else {
			cluster, err = op.prov.Provision(p, nodes)
		}
		if err != nil {
			return CacheResult{}, fmt.Errorf("shuffle: provision cache: %w", err)
		}
		defer cluster.Stop()
	}
	res.Provision = p.Now() - provStart
	runs := cacheRuns{cache: cluster, fallback: spec.ScratchBucket}

	// Sample for partition boundaries (real mode only).
	sampleStart := p.Now()
	boundaries, err := sampleBoundaries(p, client, spec.Spec, size, workers)
	if err != nil {
		return CacheResult{}, err
	}
	res.Sample = p.Now() - sampleStart

	// Phase 1: map / partition into the cache. Runs sharded to a node
	// that dies mid-phase degrade to the store fallback per run.
	p1Start := p.Now()
	ranges := splitRanges(size, workers)
	mapOuts, err := op.mapPhase(p, cacheMapFn, mapWave(spec.Spec, jobID, size, ranges, workers, boundaries, runs, nil), spec.Spec)
	if err != nil {
		return CacheResult{}, fmt.Errorf("shuffle: cache map phase: %w", err)
	}
	res.FallbackSlabs += sumInts(mapOuts)
	res.Phase1 = p.Now() - p1Start

	// Phase 2: reduce / merge out of the cache, with bounded recovery:
	// runs lost with a dead shard (Set before the node died, no store
	// copy) are regenerated from the input into the fallback bucket,
	// and only reducers without durable output re-run.
	p2Start := p.Now()
	outKeys := make([]string, workers)
	pending := make([]int, workers)
	for i := range pending {
		pending[i] = i
	}
	const maxRecoveries = 2
	for wave := 0; ; wave++ {
		if cluster.DownNodes() > 0 {
			lost, err := lostRuns(p, client, runs, jobID, workers, pending)
			if err != nil {
				return CacheResult{}, fmt.Errorf("shuffle: cache loss scan: %w", err)
			}
			if len(lost) > 0 {
				forced := runs
				forced.forceStore = true
				outs, err := op.mapPhase(p, cacheMapFn, mapWave(spec.Spec, jobID, size, ranges, workers, boundaries, forced, lost), spec.Spec)
				if err != nil {
					return CacheResult{}, fmt.Errorf("shuffle: cache slab regen: %w", err)
				}
				res.Restarts++
				res.FallbackSlabs += sumInts(outs)
				for m := range lost {
					res.ReworkBytes += ranges[m].n
				}
			}
		}
		redInputs := make([]any, len(pending))
		for i, r := range pending {
			redInputs[i] = spec.reduceTask(jobID, runs, workers, r, r, size/int64(workers))
		}
		outs, err := op.mapPhase(p, cacheReduceFn, redInputs, spec.Spec)
		if err == nil {
			keys, err := reducedKeys(outs)
			if err != nil {
				return CacheResult{}, err
			}
			for i, key := range keys {
				outKeys[pending[i]] = key
			}
			break
		}
		if wave >= maxRecoveries || !isNodeLoss(err) {
			return CacheResult{}, fmt.Errorf("shuffle: cache reduce phase: %w", err)
		}
		// A shard died mid-reduce. Reducers whose output is already
		// durable are done (their keys are deterministic); the rest
		// re-run after the loss scan above regenerates what they need.
		res.Restarts++
		var still []int
		for _, r := range pending {
			key := outputKey(spec.OutputPrefix, r)
			if _, herr := client.Head(p, spec.OutputBucket, key); herr == nil {
				outKeys[r] = key
				continue
			} else if !objectstore.IsNotFound(herr) {
				return CacheResult{}, fmt.Errorf("shuffle: cache recovery scan: %w", herr)
			}
			still = append(still, r)
		}
		pending = still
		if len(pending) == 0 {
			break
		}
	}
	res.Phase2 = p.Now() - p2Start
	res.OutputKeys = outKeys
	if owned {
		cluster.Stop()
		res.CacheUSD = cluster.Cost()
	}
	return res, nil
}

// isNodeLoss reports whether err stems from a dead cache shard.
func isNodeLoss(err error) bool {
	return errors.Is(err, memcache.ErrNodeDown) || errors.Is(err, errSlabLost)
}

// lostRuns scans the pending reducers' runs for ones that died with a
// shard node, grouping the lost reducer indexes by map index — the
// regeneration wave's mappers and their runs to re-derive.
// Deterministic boundaries make the regenerated runs byte-identical
// to the lost ones.
func lostRuns(p *des.Proc, client *objectstore.Client, runs runStore,
	jobID string, workers int, reducers []int) (map[int][]int, error) {
	keys := make([]string, 0, workers*len(reducers))
	for m := 0; m < workers; m++ {
		for _, r := range reducers {
			keys = append(keys, partKey(jobID, m, r))
		}
	}
	idx, err := runs.lost(p, client, keys)
	if err != nil {
		return nil, err
	}
	lost := make(map[int][]int)
	for _, i := range idx {
		m := i / len(reducers)
		lost[m] = append(lost[m], reducers[i%len(reducers)])
	}
	return lost, nil
}

// sumInts totals a wave's int outputs (the map handlers' fallback
// counts).
func sumInts(outs []any) int {
	n := 0
	for _, o := range outs {
		if v, ok := o.(int); ok {
			n += v
		}
	}
	return n
}
