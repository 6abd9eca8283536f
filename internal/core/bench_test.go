package core

import (
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

// BenchmarkExecutorRunOneStage measures the executor's per-run
// bookkeeping: one Run of a one-stage, sleep-only workflow per op, on
// a rig with a cache provisioner and a standing cluster, the shape of
// every gateway ticket. allocs/op is the number to watch.
func BenchmarkExecutorRunOneStage(b *testing.B) {
	r := newRig(b)
	prov := withCache(b, r)
	w := NewWorkflow("one-stage")
	if err := w.Add(&FuncStage{StageName: "work", Fn: func(ctx *StageContext) error {
		ctx.Proc.Sleep(time.Millisecond)
		return nil
	}}); err != nil {
		b.Fatal(err)
	}
	r.sim.Spawn("bench", func(p *des.Proc) {
		standing, err := prov.Provision(p, 1)
		if err != nil {
			b.Errorf("Provision: %v", err)
			return
		}
		r.exec.StandingCache = standing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.exec.Run(p, w); err != nil {
				b.Errorf("run %d: %v", i, err)
				return
			}
		}
		b.StopTimer()
		standing.Stop()
	})
	if err := r.sim.Run(); err != nil {
		b.Fatalf("sim: %v", err)
	}
}
