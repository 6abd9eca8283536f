package main

import (
	"fmt"
	"time"

	"github.com/faaspipe/faaspipe/internal/bed"
	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/cloud/payload"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/genomics"
	"github.com/faaspipe/faaspipe/internal/methcomp"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// methcompLimitVS is methcomp-real's per-pipeline latency limit, well
// above what either exchange takes today on the small-scale profile.
const methcompLimitVS = 60

// Exchanges the methcomp-real pipelines run, in order.
var methcompExchanges = []string{"object-storage", "vm"}

// runMethcomp is the methcomp-real workload: synthetic bedMethyl
// records, generated from the seed, moved as real bytes through the
// sort -> encode -> decode -> verify pipeline under each exchange. The
// benchmark then decodes the compressed parts itself and compares them
// with the sorted input.
func runMethcomp(sz sizes, seed int64, tr *tracer) *iteration {
	it := newIteration(tr)
	prof := calib.Local()
	prof.Seed = seed

	var (
		recs []bed.Record
		raw  []byte
	)
	_ = it.timeSetup(func() error {
		id := tr.begin("bed.Generate+Marshal", "input", 0)
		recs = bed.Generate(bed.GenConfig{Records: sz.records, Seed: seed})
		raw = bed.Marshal(recs)
		tr.end(id)
		return nil
	})

	var (
		lat   []float64
		usd   float64
		parts = make(map[string][][]byte)
	)
	for _, kind := range methcompExchanges {
		job := "roundtrip-" + kind
		it.attempted++
		rep, compressed, err := roundtrip(it, prof, raw, kind, job)
		if err != nil {
			it.fail(job, err)
			continue
		}
		lat = append(lat, rep.Latency().Seconds())
		usd += rep.Cost.Total()
		parts[kind] = compressed
	}

	// The benchmark's own check: every exchange's compressed parts
	// decode, in order, to exactly the sorted input.
	want := append([]bed.Record(nil), recs...)
	bed.Sort(want)
	var compressedBytes, decodeWall float64
	for _, kind := range methcompExchanges {
		compressed, ok := parts[kind]
		if !ok {
			continue
		}
		var got []bed.Record
		var derr error
		id := tr.begin("methcomp.Decompress", "roundtrip-"+kind, 0)
		start := time.Now()
		for _, part := range compressed {
			var recs []bed.Record
			if recs, derr = methcomp.Decompress(part); derr != nil {
				break
			}
			got = append(got, recs...)
			compressedBytes += float64(len(part))
		}
		decodeWall += time.Since(start).Seconds()
		tr.end(id)
		if derr == nil {
			derr = sameRecords(got, want)
		}
		if derr != nil {
			// The pipeline itself succeeded; its output is wrong.
			it.fail("roundtrip-"+kind+" decode", derr)
		}
	}
	if compressedBytes > 0 {
		it.virtual["methcomp.ratio"] = float64(len(raw)*len(parts)) / compressedBytes
	}
	it.hostLayer["methcomp.decompress_host_s"] = decodeWall
	it.opLatencies(lat, usd, methcompLimitVS)
	return it
}

// roundtrip runs the roundtrip pipeline once under one exchange at
// w=8 and returns the compressed parts it stored, in part order.
func roundtrip(it *iteration, prof calib.Profile, raw []byte, kind, job string) (*core.RunReport, [][]byte, error) {
	build := func(rig *calib.Rig) (*core.Workflow, payload.Payload, error) {
		var strategy core.ExchangeStrategy = core.ObjectStorageExchange{}
		if kind == "vm" {
			strategy = rig.VMStrategy()
		}
		w, err := genomics.BuildRoundtripPipeline(genomics.PipelineConfig{
			Name:        job,
			InputBucket: "data", InputKey: "sample.bed",
			WorkBucket:  "work",
			Strategy:    strategy,
			Sort:        rig.SortParams("data", "sample.bed", "work", "sorted/", 8),
			EncodeBps:   prof.EncodeBps,
			EncodeRatio: prof.EncodeRatio,
		})
		// A private copy: the store keeps what it is given, and each
		// exchange must start from the same bytes.
		return w, payload.Real(raw), err
	}
	var compressed [][]byte
	check := func(p *des.Proc, c *objectstore.Client) error {
		if _, err := checkParts(p, c, "work", "sorted/", int64(len(raw))); err != nil {
			return err
		}
		keys, err := c.ListAll(p, "work", "compressed/")
		if err != nil {
			return err
		}
		for _, k := range keys {
			pl, err := c.Get(p, "work", k)
			if err != nil {
				return err
			}
			b, ok := pl.Bytes()
			if !ok {
				return fmt.Errorf("compressed part %s holds no bytes", k)
			}
			compressed = append(compressed, b)
		}
		return nil
	}
	rep, err := pipelineOnce(it, prof, job, build, check)
	return rep, compressed, err
}

// sameRecords reports the first difference between decoded records and
// the sorted input.
func sameRecords(got, want []bed.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("decoded %d records, input has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("record %d decoded as %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
