package shuffle

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/faas"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// feedChunks drives a lineFeeder over raw cut into the given chunk
// sizes (cycled), returning the finished partitions.
func feedChunks(t *testing.T, raw []byte, readOff int64, prefixByte bool, offset, length int64,
	workers int, bounds []Boundary, chunkSizes []int) [][]byte {
	t.Helper()
	builder := newRunBuilder(workers, bounds)
	builder.sizeHint(len(raw))
	f := &lineFeeder{fn: builder.Add, pos: readOff, limit: offset + length, skipFirst: prefixByte}
	pos, ci := 0, 0
	for pos < len(raw) && !f.done {
		n := chunkSizes[ci%len(chunkSizes)]
		ci++
		if pos+n > len(raw) {
			n = len(raw) - pos
		}
		if err := f.feed(raw[pos : pos+n]); err != nil {
			t.Fatalf("feed: %v", err)
		}
		pos += n
	}
	if err := f.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return builder.Finish()
}

// TestPropertyLineFeederMatchesPartitionRaw: for random slice
// geometries and adversarial chunkings — including chunks of 1 byte,
// chunks splitting every TSV record mid-line, and chunks larger than
// the input — the streamed partitions must be byte-identical to
// partitionRaw over the same buffered range.
func TestPropertyLineFeederMatchesPartitionRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1721))
	recs := bed.Generate(bed.GenConfig{Records: 3000, Seed: 77, Sorted: false})
	object := bed.Marshal(recs)
	bounds := benchBounds(recs, 5)
	const workers = 5
	total := int64(len(object))

	for trial := 0; trial < 60; trial++ {
		// A random slice of the object, like one mapper's range.
		offset := rng.Int63n(total)
		length := 1 + rng.Int63n(total-offset)
		readOff := offset
		prefix := false
		if readOff > 0 {
			readOff--
			prefix = true
		}
		readLen := offset + length + overscan - readOff
		if readOff+readLen > total {
			readLen = total - readOff
		}
		raw := object[readOff : readOff+readLen]

		want, err := partitionRaw(raw, prefix, offset, length, workers, bounds)
		if err != nil {
			t.Fatalf("trial %d: partitionRaw: %v", trial, err)
		}
		var chunks []int
		switch trial % 4 {
		case 0:
			chunks = []int{1} // every record split at every byte
		case 1:
			chunks = []int{7, 13, 48, 3} // odd sizes straddling lines
		case 2:
			chunks = []int{1 << 20} // one chunk (degenerate to buffered)
		default:
			for i := 0; i < 8; i++ {
				chunks = append(chunks, 1+rng.Intn(200))
			}
		}
		got := feedChunks(t, raw, readOff, prefix, offset, length, workers, bounds, chunks)
		if len(got) != len(want) {
			t.Fatalf("trial %d: partition count %d vs %d", trial, len(got), len(want))
		}
		for r := range want {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("trial %d (chunks %v): partition %d differs (%d vs %d bytes)",
					trial, chunks, r, len(got[r]), len(want[r]))
			}
		}
	}
}

// TestGoldenStreamingMatchesBuffered: all three operators, streamed
// with a chunk size guaranteed to split records mid-line, must produce
// output byte-identical to the seed oracle — the bytes the buffered
// read path this streaming path replaced produced.
func TestGoldenStreamingMatchesBuffered(t *testing.T) {
	const chunk = 1009 // prime, ~21 bedMethyl lines: every chunk ends mid-line
	recs := bed.Generate(bed.GenConfig{Records: 5000, Seed: 84, Sorted: false})
	want := seedSortedBytes(recs)

	rig := newHierRig(t)
	var oneLevel, hier []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		spec := sortSpec(6)
		spec.StreamChunkBytes = chunk
		res, err := rig.op.Sort(p, spec)
		if err != nil {
			t.Errorf("Sort: %v", err)
			return
		}
		oneLevel = fetchRawParts(t, rig, p, res.OutputKeys)
		hs := hierSpec(8, 4)
		hs.StreamChunkBytes = chunk
		hs.OutputPrefix = "sorted/h/"
		hres, err := rig.op.SortHierarchical(p, hs)
		if err != nil {
			t.Errorf("SortHierarchical: %v", err)
			return
		}
		hier = fetchRawParts(t, rig, p, hres.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	crig, _, cop := newCacheRig(t)
	var cache []byte
	crig.sim.Spawn("driver", func(p *des.Proc) {
		crig.loadInput(t, p, recs)
		cs := cacheSpec(5)
		cs.StreamChunkBytes = chunk
		res, err := cop.Sort(p, cs)
		if err != nil {
			t.Errorf("cache Sort: %v", err)
			return
		}
		cache = fetchRawParts(t, crig, p, res.OutputKeys)
	})
	if err := crig.sim.Run(); err != nil {
		t.Fatalf("cache sim: %v", err)
	}

	for _, c := range []struct {
		name string
		got  []byte
	}{
		{"one-level", oneLevel},
		{"hierarchical", hier},
		{"cache", cache},
	} {
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s: streamed output differs from seed oracle (%d vs %d bytes)",
				c.name, len(c.got), len(want))
		}
	}
}

// TestStreamingMapUnderStoreFailures: injected object-store failures
// hit both the streams' open admissions and their chunk continuations;
// the client's chunk-level resume (bounded by MaxRetries) must keep
// the output byte-identical, with retries actually exercised.
func TestStreamingMapUnderStoreFailures(t *testing.T) {
	sim := des.New(17)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   time.Millisecond,
		PerConnBandwidth: 1e9,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
		FailureRate:      0.1,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          50 * time.Millisecond,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	rig := &testRig{sim: sim, store: store, pf: pf, op: op}
	recs := bed.Generate(bed.GenConfig{Records: 4000, Seed: 85, Sorted: false})
	want := seedSortedBytes(recs)
	spec := sortSpec(4)
	spec.StreamChunkBytes = 4096 // many continuations per stream: plenty of failure draws
	spec.MaxRetries = 4          // platform-level re-invocations on top of client retries
	var got []byte
	rig.sim.Spawn("driver", func(p *des.Proc) {
		rig.loadInput(t, p, recs)
		res, err := rig.op.Sort(p, spec)
		if err != nil {
			t.Errorf("Sort under failures: %v", err)
			return
		}
		got = fetchRawParts(t, rig, p, res.OutputKeys)
	})
	if err := rig.sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output corrupt under injected failures: %d bytes, want %d", len(got), len(want))
	}
	if store.Metrics().Throttled == 0 {
		t.Fatal("no throttles metered at 10% failure rate; test exercised nothing")
	}
}

// TestStreamingMapOverlapsTransfer is the acceptance criterion: on the
// 256k-record workload the streamed map stage's wall time must beat
// the serial transfer + partition sum, because partition CPU now hides
// inside the remaining transfer.
func TestStreamingMapOverlapsTransfer(t *testing.T) {
	recs := bed.Generate(bed.GenConfig{Records: 1 << 18, Seed: 19, Sorted: false})

	const (
		lat  = time.Millisecond
		bw   = 4e6 // slow enough that transfer rivals CPU
		cold = 50 * time.Millisecond
		cpu  = 4e6 // transfer-bound ≈ CPU-bound: maximal overlap win
	)
	sim := des.New(5)
	store, err := objectstore.New(sim, objectstore.Config{
		RequestLatency:   lat,
		PerConnBandwidth: bw,
		ReadOpsPerSec:    1e6,
		WriteOpsPerSec:   1e6,
		OpsBurst:         1e6,
	})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	pf, err := faas.New(sim, store, faas.Config{
		ColdStart:          cold,
		WarmStart:          5 * time.Millisecond,
		KeepAlive:          10 * time.Minute,
		MemoryMB:           2048,
		BaselineMemoryMB:   2048,
		ConcurrencyLimit:   500,
		BillingGranularity: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	op, err := NewOperator(pf, store)
	if err != nil {
		t.Fatalf("operator: %v", err)
	}
	rig := &testRig{sim: sim, store: store, pf: pf, op: op}
	spec := sortSpec(4)
	spec.PartitionBps = cpu
	spec.MergeBps = 50e6
	spec.StreamChunkBytes = 256 << 10
	res, sorted := runSort(t, rig, recs, spec)
	if len(sorted) != len(recs) || !bed.IsSorted(sorted) {
		t.Fatal("overlap rig sorted incorrectly")
	}

	// A serial map pays read transfer + partition CPU one after the
	// other; streaming should hide the smaller of the two inside the
	// other. Both share the partition-write leg and startup, so the win
	// must be ~min(readTransfer, streamCPU) of wall time.
	serial := serialMapPhase(lat, bw, cold, res.TotalBytes, 4, cpu)
	perWorker := float64(res.TotalBytes) / 4
	readLeg := time.Duration(perWorker / bw * float64(time.Second))
	streamBps, _ := MapStreamRates(cpu)
	streamCPU := time.Duration(perWorker / streamBps * float64(time.Second))
	hidden := min(readLeg, streamCPU)
	if res.Phase1 >= serial {
		t.Fatalf("streamed Phase1 %v not faster than the serial legs %v", res.Phase1, serial)
	}
	if bound := serial - hidden*7/10; res.Phase1 > bound {
		t.Fatalf("streamed Phase1 %v hides too little of the %v overlappable leg (serial %v, want <= %v)",
			res.Phase1, hidden, serial, bound)
	}
	t.Logf("map phase1: streamed %v vs serial legs %v (saved %v of %v overlappable)",
		res.Phase1, serial, serial-res.Phase1, hidden)
}

// serialMapPhase is the map phase with no overlap — the sum of its
// legs, derived from the rig's configured rates: a cold start, one
// ranged GET of the widest slice (one byte before it plus the
// overscan), the whole slice's partition CPU, then one PUT per reducer
// whose payloads add up to the slice. It matched the measured phase of
// the buffered read path it stands in for to within 10 µs of 2.86 s.
func serialMapPhase(lat time.Duration, bw float64, cold time.Duration, size int64, workers int, partitionBps float64) time.Duration {
	slice := float64((size + int64(workers) - 1) / int64(workers))
	secs := (slice+1+overscan)/bw + slice/partitionBps + slice/bw
	return cold + time.Duration(1+workers)*lat + time.Duration(secs*float64(time.Second))
}
