package des

import (
	"fmt"
	"testing"
	"time"
)

// The BenchmarkDES* family tracks the simulation kernel's own
// throughput (simulated events per wall-clock second) the same way the
// data-plane benchmarks track shuffle latency: every scenario on the
// million-user roadmap bottoms out in Schedule/fire, Park/Wake, and the
// token-bucket hot paths, so kernel regressions are data-plane
// regressions one PR later. Reported metric is events/s (or the
// op-specific equivalent); allocs/op must stay 0 in steady state for
// the schedule/fire path.

// benchHeapDepth keeps a realistic number of concurrent pending events
// on the heap while the benchmark turns it over — a depth-1 heap would
// flatter any implementation.
const benchHeapDepth = 1024

// BenchmarkDESScheduleFire measures raw Schedule->fire turnover with
// benchHeapDepth self-rescheduling timers at staggered offsets: the
// steady-state shape of a large simulation (many pending timers, one
// fired and one scheduled per step).
func BenchmarkDESScheduleFire(b *testing.B) {
	s := New(1)
	fired := 0
	for i := 0; i < benchHeapDepth; i++ {
		// Stagger the periods so the heap order churns instead of
		// degenerating into FIFO rotation.
		period := time.Duration(i%97+1) * time.Microsecond
		var fn func()
		fn = func() {
			fired++
			if fired < b.N {
				s.After(period, fn)
			}
		}
		s.After(period, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDESCancel measures the cancel-heavy regime — timeouts armed
// and disarmed without ever firing, the token-bucket/link pattern —
// where lazy deletion must not let dead events accumulate.
func BenchmarkDESCancel(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(time.Hour+time.Duration(i), func() {})
		ev.Cancel()
	}
	b.StopTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cancels/s")
}

// BenchmarkDESParkWake measures the process handoff path: a ring of
// parked processes each woken in turn, parking again after waking —
// the shape of every Resource/stream/WaitGroup interaction.
func BenchmarkDESParkWake(b *testing.B) {
	const procs = 256
	s := New(1)
	woken := 0
	ring := make([]*Proc, procs)
	for i := 0; i < procs; i++ {
		i := i
		ring[i] = s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for woken < b.N {
				woken++
				next := ring[(i+1)%procs]
				next.Wake()
				if woken >= b.N {
					// Release the ring: wake everyone so no proc is left
					// parked when the heap drains.
					for _, q := range ring {
						q.Wake()
					}
					return
				}
				p.Park()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(woken)/b.Elapsed().Seconds(), "wakes/s")
}

// BenchmarkDESSpawn measures process churn: a generator spawns one
// short-lived process per op, each sleeping once and exiting — the
// shape of an open-loop gateway arrival stream, where every ticket is
// a process. About a thousand are alive at any instant.
func BenchmarkDESSpawn(b *testing.B) {
	s := New(1)
	body := func(p *Proc) { p.Sleep(time.Millisecond) }
	s.Spawn("gen", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Spawn("w", body)
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "spawns/s")
}

// BenchmarkDESTokenBucket measures a contended token bucket: many
// processes drawing from one rate limit, the gateway-admission and
// store-throttle hot path.
func BenchmarkDESTokenBucket(b *testing.B) {
	const procs = 64
	s := New(1)
	tb := NewTokenBucket(s, 1e6, 64)
	taken := 0
	for i := 0; i < procs; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			for taken < b.N {
				taken++
				tb.Take(p, 1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(taken)/b.Elapsed().Seconds(), "takes/s")
}

// BenchmarkLinkChurn measures the link model under flow churn: linkChurnProcs
// processes loop over transfers of staggered sizes, so every op is one
// arrival and one departure, each a reshare over ~linkChurnProcs
// flows — the shape of a shuffle wave on a NIC or the store fabric.
// One op is one Transfer. In the undersubscribed case every flow runs
// at its cap (the common regime); in the saturated case uncapped flows
// split the capacity and every reshare water-fills. The
// undersubscribed case allocates only the flow record per op.
func BenchmarkLinkChurn(b *testing.B) {
	const linkChurnProcs = 16
	for _, bc := range []struct {
		name     string
		capacity float64
		flowCap  float64
	}{
		{"undersubscribed", 1e9, 1e6},
		{"saturated", 1e7, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(1)
			l := NewLink(s, bc.capacity)
			started := 0
			for i := 0; i < linkChurnProcs; i++ {
				size := int64(1000 * (i + 1))
				s.Spawn(fmt.Sprintf("c%02d", i), func(p *Proc) {
					for started < b.N {
						started++
						l.Transfer(p, size, bc.flowCap)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := l.Transfers(); got < int64(b.N) {
				b.Fatalf("%d transfers of %d", got, b.N)
			}
			b.ReportMetric(float64(l.Transfers())/b.Elapsed().Seconds(), "transfers/s")
		})
	}
}
