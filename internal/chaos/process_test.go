package chaos

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/des"
)

func soakProcess(seed int64) Process {
	return Process{
		Seed:              seed,
		Horizon:           2 * time.Hour,
		PreemptPerHour:    6,
		CacheKillPerHour:  4,
		BrownoutPerHour:   3,
		ZoneOutagePerHour: 1,
		CacheNodes:        5,
		Zones:             []string{"zone-a", "zone-b"},
	}
}

// TestProcessDeterminism: the same seed and rates generate an
// identical Plan across runs, and arming the two plans over identical
// workloads yields byte-identical fired logs; a different seed
// diverges.
func TestProcessDeterminism(t *testing.T) {
	a, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed generated different plans:\n%v\nvs\n%v", a.Events, b.Events)
	}
	if len(a.Events) == 0 {
		t.Fatal("soak process generated no events over a 2h horizon")
	}

	// Full-run determinism: arm each plan against its own fresh rig and
	// run the clock out; the fired logs must render identically.
	logs := make([]string, 2)
	for i, plan := range []*Plan{a, b} {
		sim := des.New(99)
		tg := testTargets(t, sim)
		tg.VMs.SetZones("zone-a", "zone-b")
		tg.Cache.SetZones("zone-a", "zone-b")
		armed, err := plan.Arm(sim, tg)
		if err != nil {
			t.Fatalf("Arm: %v", err)
		}
		sim.Spawn("workload", func(p *des.Proc) {
			if _, err := tg.VMs.ProvisionSpot(p, "bx2-2x8"); err != nil {
				t.Errorf("ProvisionSpot: %v", err)
			}
			if _, err := tg.Cache.ProvisionWarm(p, 3); err != nil {
				t.Errorf("ProvisionWarm: %v", err)
			}
			p.Sleep(2 * time.Hour)
		})
		if err := sim.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		logs[i] = armed.String()
	}
	if logs[0] != logs[1] {
		t.Errorf("same seed produced different fired logs:\n%s\nvs\n%s", logs[0], logs[1])
	}
	if !strings.Contains(logs[0], "zone-outage") {
		t.Errorf("soak log never fired a zone outage:\n%s", logs[0])
	}

	c, err := soakProcess(8).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds generated identical plans")
	}
}

// TestProcessClassIndependence: disabling one class must not reshuffle
// another class's arrival times — each class draws from its own
// seed-derived stream.
func TestProcessClassIndependence(t *testing.T) {
	full, err := soakProcess(7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	only := soakProcess(7)
	only.PreemptPerHour = 0
	only.BrownoutPerHour = 0
	only.ZoneOutagePerHour = 0
	kills, err := only.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var fromFull []Event
	for _, ev := range full.Events {
		if ev.Kind == KillCacheNode {
			fromFull = append(fromFull, ev)
		}
	}
	if !reflect.DeepEqual(fromFull, kills.Events) {
		t.Errorf("cache-kill arrivals changed when other classes were disabled:\n%v\nvs\n%v",
			fromFull, kills.Events)
	}
}

// TestProcessRateScaling: a sanity bound that generated arrival counts
// track the configured Poisson rates over a long horizon.
func TestProcessRateScaling(t *testing.T) {
	pr := Process{Seed: 3, Horizon: 100 * time.Hour, PreemptPerHour: 2}
	plan, err := pr.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n := len(plan.Events)
	// Poisson(200): ±5 sigma is ~±71.
	if n < 130 || n > 270 {
		t.Errorf("got %d arrivals for rate 2/h over 100h, want ~200", n)
	}
	for i := 1; i < n; i++ {
		if plan.Events[i].At < plan.Events[i-1].At {
			t.Fatal("generated plan not time-sorted")
		}
	}
}

func TestProcessRejectsNoHorizon(t *testing.T) {
	if _, err := (Process{PreemptPerHour: 1}).Generate(); err == nil {
		t.Error("Generate with no horizon should fail")
	}
}

// generateWithin runs Generate under a wall-clock watchdog: the
// failure mode under test is an expansion that never returns.
func generateWithin(t *testing.T, pr Process) (*Plan, error) {
	t.Helper()
	type result struct {
		plan *Plan
		err  error
	}
	done := make(chan result, 1)
	go func() {
		plan, err := pr.Generate()
		done <- result{plan, err}
	}()
	select {
	case r := <-done:
		return r.plan, r.err
	case <-time.After(2 * time.Second):
		t.Fatalf("Generate(%+v) did not return", pr)
		return nil, nil
	}
}

// TestProcessRejectsUnboundedRates: rates that cannot expand into a
// bounded plan are rejected with ErrBadProcess before any arrival is
// drawn. An infinite, NaN or huge per-hour rate used to draw gaps that
// round to 0 ns, so the clock never passed the horizon and the plan
// grew until memory ran out.
func TestProcessRejectsUnboundedRates(t *testing.T) {
	base := Process{Seed: 1, Horizon: time.Hour}
	for _, tc := range []struct {
		name string
		set  func(pr *Process)
	}{
		{"infinite rate", func(pr *Process) { pr.PreemptPerHour = math.Inf(1) }},
		{"NaN rate", func(pr *Process) { pr.CacheKillPerHour = math.NaN() }},
		{"huge rate", func(pr *Process) { pr.BrownoutPerHour = 1e12 }},
		{"negative rate", func(pr *Process) { pr.ZoneOutagePerHour = -1 }},
		{"sub-nanosecond gaps", func(pr *Process) {
			pr.Horizon = time.Nanosecond
			pr.PreemptPerHour = 1e13
		}},
		{"NaN brownout severity", func(pr *Process) {
			pr.BrownoutPerHour = 1
			pr.BrownoutRate = math.NaN()
		}},
		{"NaN outage severity", func(pr *Process) {
			pr.ZoneOutagePerHour = 1
			pr.OutageRate = math.NaN()
		}},
		{"no horizon", func(pr *Process) {
			pr.Horizon = 0
			pr.PreemptPerHour = 1
		}},
	} {
		pr := base
		tc.set(&pr)
		if _, err := generateWithin(t, pr); !errors.Is(err, ErrBadProcess) {
			t.Errorf("%s: Generate = %v, want ErrBadProcess", tc.name, err)
		}
	}
}

// TestProcessTinyRateAndHugeHorizon: extreme but bounded parameters
// still expand. A tiny rate draws gaps past the Duration range, which
// must end the class rather than wrap the clock; a long horizon with
// long windows must not overflow the windows' ends.
func TestProcessTinyRateAndHugeHorizon(t *testing.T) {
	plan, err := generateWithin(t, Process{Seed: 1, Horizon: math.MaxInt64, PreemptPerHour: 1e-300})
	if err != nil || len(plan.Events) != 0 {
		t.Fatalf("tiny rate: Generate = %v, %v; want an empty plan", plan, err)
	}
	_, err = generateWithin(t, Process{Seed: 1, Horizon: math.MaxInt64 / 2, BrownoutPerHour: 1e-3,
		BrownoutDuration: math.MaxInt64 / 2})
	if err != nil && !errors.Is(err, ErrBadDuration) {
		t.Fatalf("long windows: Generate = %v, want a plan or ErrBadDuration", err)
	}
}

// FuzzProcessGenerate: for any parameters, Generate returns, and a
// plan it returns is sorted, within the horizon, bounded in size and
// valid.
func FuzzProcessGenerate(f *testing.F) {
	f.Add(int64(7), int64(2*time.Hour), 6.0, 4.0, 3.0, 1.0, 5, 0.5, int64(5*time.Second), 0.25, int64(time.Minute))
	f.Add(int64(1), int64(time.Hour), math.Inf(1), 0.0, 0.0, 0.0, 1, 0.0, int64(0), 0.0, int64(0))
	f.Add(int64(1), int64(time.Hour), math.NaN(), 0.0, 0.0, 0.0, 1, 0.0, int64(0), 0.0, int64(0))
	f.Add(int64(1), int64(time.Hour), 1e12, 0.0, 0.0, 0.0, 1, 0.0, int64(0), 0.0, int64(0))
	f.Add(int64(1), int64(math.MaxInt64), 1e-300, 0.0, 1e-3, 0.0, 1, 0.5, int64(math.MaxInt64), math.NaN(), int64(-1))
	f.Fuzz(func(t *testing.T, seed, horizon int64, preempt, kill, brownout, outage float64,
		nodes int, brownoutRate float64, brownoutDur int64, outageRate float64, outageDur int64) {
		pr := Process{
			Seed:              seed,
			Horizon:           time.Duration(horizon),
			PreemptPerHour:    preempt,
			CacheKillPerHour:  kill,
			BrownoutPerHour:   brownout,
			ZoneOutagePerHour: outage,
			CacheNodes:        nodes,
			BrownoutRate:      brownoutRate,
			BrownoutDuration:  time.Duration(brownoutDur),
			OutageRate:        outageRate,
			OutageDuration:    time.Duration(outageDur),
			Zones:             []string{"zone-a", "zone-b"},
		}
		plan, err := pr.Generate()
		if err != nil {
			return
		}
		// Rounding gaps down to whole nanoseconds at most about doubles
		// a class's count (mean gap at least 1 ns).
		if n := len(plan.Events); n > 4*3*maxArrivals {
			t.Fatalf("%d events, over the arrival bound", n)
		}
		for i, ev := range plan.Events {
			if ev.At < 0 || ev.At > pr.Horizon {
				t.Fatalf("event %d at %s outside [0, %s]", i, ev.At, pr.Horizon)
			}
			if i > 0 && ev.At < plan.Events[i-1].At {
				t.Fatalf("event %d at %s before event %d at %s", i, ev.At, i-1, plan.Events[i-1].At)
			}
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
	})
}

// TestProcessSeedSweep: a quick property pass — any seed yields a
// valid, sorted plan whose every event survives Validate.
func TestProcessSeedSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		plan, err := soakProcess(seed).Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("seed %d: generated plan invalid: %v", seed, err)
		}
		_ = fmt.Sprintf("%v", plan.Events)
	}
}
