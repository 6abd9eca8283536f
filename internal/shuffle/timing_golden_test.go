package shuffle

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/memcache"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// exchangeTiming is one golden row: what a single exchange cost the
// simulated cloud, read from the layers' own meters.
type exchangeTiming struct {
	sample, phase1, phase2 time.Duration
	end                    time.Duration // sim clock when the driver finished
	store                  objectstore.Metrics
	cache                  memcache.Metrics
	activations, cold      int64
	fallback, restarts     int
	rework                 int64
	outBytes               int64
	outHash                uint64
}

func (e exchangeTiming) String() string {
	return fmt.Sprintf("sample=%d phase1=%d phase2=%d end=%d "+
		"classA=%d classB=%d delete=%d bytesIn=%d bytesOut=%d "+
		"cacheSet=%d cacheGet=%d cacheDelete=%d cacheIn=%d cacheOut=%d "+
		"activations=%d cold=%d fallbackSlabs=%d restarts=%d reworkBytes=%d "+
		"outBytes=%d outFNV=%016x",
		e.sample, e.phase1, e.phase2, e.end,
		e.store.ClassAOps, e.store.ClassBOps, e.store.DeleteOps, e.store.BytesIn, e.store.BytesOut,
		e.cache.SetOps, e.cache.GetOps, e.cache.DeleteOps, e.cache.BytesIn, e.cache.BytesOut,
		e.activations, e.cold, e.fallback, e.restarts, e.rework,
		e.outBytes, e.outHash)
}

// outputDigest sums and hashes the output parts (sized parts count
// their size only).
func outputDigest(t *testing.T, store *objectstore.Service, p *des.Proc, keys []string) (int64, uint64) {
	t.Helper()
	c := objectstore.NewClient(store)
	h := fnv.New64a()
	var n int64
	for _, k := range keys {
		pl, err := c.Get(p, "out", k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		n += pl.Size()
		if raw, ok := pl.Bytes(); ok {
			h.Write(raw)
		}
	}
	return n, h.Sum64()
}

// finishTiming fills the meter-derived fields once the sim has drained.
func finishTiming(e *exchangeTiming, rig *testRig, cluster *memcache.Cluster) {
	e.end = rig.sim.Now()
	e.store = rig.store.Metrics()
	m := rig.pf.Meter()
	e.activations, e.cold = m.Invocations, m.ColdStarts
	if cluster != nil {
		e.cache = cluster.Metrics()
	}
}

// loadSized stores a timing-only input object of n bytes.
func (rig *testRig) loadSized(t *testing.T, p *des.Proc, n int64) {
	t.Helper()
	c := objectstore.NewClient(rig.store)
	_ = c.CreateBucket(p, "in")
	_ = c.CreateBucket(p, "out")
	if err := c.Put(p, "in", "data.bed", payload.Sized(n)); err != nil {
		t.Fatalf("put input: %v", err)
	}
}

// TestExchangeTimingGolden pins the simulated cost of every exchange
// path — virtual phase times, store and cache op counts and bytes,
// activations and cold starts, recovery counters, and output bytes —
// at fixed sim seeds. The byte goldens prove the data plane sorts
// correctly; this one proves a refactor of the exchange moves no
// request, byte, or event. The golden was generated once and is never
// regenerated to absorb a change: a diff here is a behaviour change.
func TestExchangeTimingGolden(t *testing.T) {
	const sizedBytes = 96<<20 + 12345
	sized := func(s Spec) Spec {
		s.PartitionBps, s.MergeBps = 80e6, 120e6
		return s
	}
	var rows []string
	// run drives one exchange on a fresh rig: load stages the input,
	// sort runs the exchange and reports its result fields.
	run := func(name string, rig *testRig, prov *memcache.Provisioner,
		load func(p *des.Proc), sort func(p *des.Proc, e *exchangeTiming) ([]string, error)) exchangeTiming {
		var e exchangeTiming
		rig.sim.Spawn("driver", func(p *des.Proc) {
			load(p)
			keys, err := sort(p, &e)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			e.outBytes, e.outHash = outputDigest(t, rig.store, p, keys)
		})
		if err := rig.sim.Run(); err != nil {
			t.Fatalf("%s: sim: %v", name, err)
		}
		var cluster *memcache.Cluster
		if prov != nil {
			cluster = prov.Clusters()[0]
		}
		finishTiming(&e, rig, cluster)
		rows = append(rows, name+": "+e.String())
		return e
	}
	records := func(rig *testRig, seed int64, n int) func(p *des.Proc) {
		recs := bed.Generate(bed.GenConfig{Records: n, Seed: seed, Sorted: false})
		return func(p *des.Proc) { rig.loadInput(t, p, recs) }
	}
	sortWith := func(rig *testRig, spec Spec) func(p *des.Proc, e *exchangeTiming) ([]string, error) {
		return func(p *des.Proc, e *exchangeTiming) ([]string, error) {
			res, err := rig.op.Sort(p, spec)
			e.sample, e.phase1, e.phase2 = res.Sample, res.Phase1, res.Phase2
			return res.OutputKeys, err
		}
	}
	hierWith := func(rig *testRig, spec HierSpec) func(p *des.Proc, e *exchangeTiming) ([]string, error) {
		return func(p *des.Proc, e *exchangeTiming) ([]string, error) {
			res, err := rig.op.SortHierarchical(p, spec)
			e.sample, e.phase1, e.phase2 = res.Sample, res.Phase1, res.Phase2
			return res.OutputKeys, err
		}
	}
	cacheWith := func(op *CacheOperator, spec CacheSpec) func(p *des.Proc, e *exchangeTiming) ([]string, error) {
		return func(p *des.Proc, e *exchangeTiming) ([]string, error) {
			res, err := op.Sort(p, spec)
			e.sample, e.phase1, e.phase2 = res.Sample, res.Phase1, res.Phase2
			e.fallback, e.restarts, e.rework = res.FallbackSlabs, res.Restarts, res.ReworkBytes
			return res.OutputKeys, err
		}
	}

	{
		rig := newRig(t)
		run("sort-real-w6", rig, nil, records(rig, 81, 5000), sortWith(rig, sortSpec(6)))
	}
	{
		rig := newRig(t)
		spec := sortSpec(6)
		spec.CleanupScratch, spec.MaxRetries = true, 2
		run("sort-real-w6-cleanup", rig, nil, records(rig, 81, 5000), sortWith(rig, spec))
	}
	{
		rig := newRig(t)
		run("sort-sized-w8", rig, nil, func(p *des.Proc) { rig.loadSized(t, p, sizedBytes) },
			sortWith(rig, sized(sortSpec(8))))
	}
	{
		rig := newHierRig(t)
		run("hier-real-w8-g4", rig, nil, records(rig, 82, 4800), hierWith(rig, hierSpec(8, 4)))
	}
	{
		rig := newHierRig(t)
		spec := hierSpec(8, 4)
		spec.CleanupScratch = true
		run("hier-real-w8-g4-cleanup", rig, nil, records(rig, 82, 4800), hierWith(rig, spec))
	}
	{
		rig := newHierRig(t)
		spec := hierSpec(8, 4)
		spec.Spec = sized(spec.Spec)
		run("hier-sized-w8-g4", rig, nil, func(p *des.Proc) { rig.loadSized(t, p, sizedBytes) },
			hierWith(rig, spec))
	}
	{
		rig, prov, op := newCacheRig(t)
		run("cache-cold-w5", rig, prov, records(rig, 83, 4000), cacheWith(op, cacheSpec(5)))
	}
	{
		rig, prov, op := newCacheRig(t)
		spec := cacheSpec(8)
		spec.Spec = sized(spec.Spec)
		spec.Nodes = 4
		run("cache-sized-w8", rig, prov, func(p *des.Proc) { rig.loadSized(t, p, 48<<20+777) },
			cacheWith(op, spec))
	}

	// Cache exchange losing node 0 mid-map (write-time reroutes plus
	// regeneration of slabs that died unread) and node 1 as the reduce
	// wave starts (a failed reduce wave, a second regeneration, and
	// reducer re-runs).
	{
		rig, prov, op := newCacheRig(t)
		const workers = 8
		rig.sim.Spawn("chaos", func(p *des.Proc) {
			killedMap := false
			for {
				if cls := prov.Clusters(); len(cls) > 0 {
					c := cls[0]
					if !killedMap && c.UsedBytes() > 0 {
						c.KillNode(0)
						killedMap = true
					}
					// The reduce function has no warm containers: a cold
					// start past the map wave's is the reduce wave starting.
					if killedMap && rig.pf.Meter().ColdStarts > workers {
						c.KillNode(1)
						return
					}
					if c.Stopped() {
						return
					}
				}
				p.Sleep(time.Millisecond)
			}
		})
		spec := cacheSpec(workers)
		spec.Nodes = 4
		e := run("cache-nodeloss-w8", rig, prov, records(rig, 86, 6000), cacheWith(op, spec))
		if e.fallback == 0 || e.restarts < 2 || e.rework == 0 {
			t.Errorf("node-loss run exercised too little: fallback=%d restarts=%d rework=%d",
				e.fallback, e.restarts, e.rework)
		}
		if want := int64(len(bed.Marshal(bed.Generate(bed.GenConfig{Records: 6000, Seed: 86, Sorted: false})))); e.outBytes != want {
			t.Errorf("node-loss output = %d bytes, want %d", e.outBytes, want)
		}
	}

	got := strings.Join(rows, "\n") + "\n"
	golden := filepath.Join("testdata", "exchange_timing.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("exchange timing drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
