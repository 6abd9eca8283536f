package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// ErrBadProcess rejects Process parameters that Generate cannot expand
// into a bounded plan: a non-positive Horizon, a per-hour rate that is
// negative or not finite, a NaN BrownoutRate or OutageRate, or a rate
// that expects more than maxArrivals arrivals over the Horizon or more
// than one per nanosecond.
var ErrBadProcess = errors.New("chaos: bad fault process")

// maxArrivals caps one fault class's expected arrival count over the
// horizon (rate × horizon). A soak schedule holds tens to hundreds of
// faults; a rate that expands into millions is a mistake, and an
// unbounded one would never finish expanding.
const maxArrivals = 100_000

// Process is a seeded stochastic fault-arrival model: each fault class
// arrives as an independent Poisson process at its configured rate
// over the deterministic DES clock. Generate expands the process into
// a concrete Plan, so a soak run gets realistic arrival statistics
// while staying exactly reproducible — the same seed and rates always
// yield the same Plan, and therefore (over the same workload) the same
// Fired() log, byte for byte.
type Process struct {
	// Seed drives every draw; two Processes differing only in Seed
	// generate diverging schedules.
	Seed int64
	// Horizon bounds the generated schedule: arrivals past it are
	// dropped. Callers typically set it to a multiple of the fault-free
	// makespan.
	Horizon time.Duration

	// Per-class Poisson arrival rates, events per hour of simulated
	// time. A rate of 0 disables the class; negative, NaN and unboundedly
	// large rates are rejected (see ErrBadProcess). Classes draw from
	// independent seed-derived streams, so enabling one class does not
	// reshuffle another's arrivals.
	PreemptPerHour    float64
	CacheKillPerHour  float64
	BrownoutPerHour   float64
	ZoneOutagePerHour float64

	// CacheNodes bounds the node index drawn for each KillCacheNode
	// arrival (uniform over [0, CacheNodes); default 1: always node 0).
	CacheNodes int
	// BrownoutRate and BrownoutDuration parameterize each StoreBrownout
	// arrival (defaults 0.5 and 5s).
	BrownoutRate     float64
	BrownoutDuration time.Duration
	// Zones are the outage victims, drawn uniformly per ZoneOutage
	// arrival (default: the single DefaultZone-style pool "zone-a").
	Zones []string
	// OutageRate and OutageDuration parameterize each ZoneOutage
	// arrival: the correlated store brownout severity (default 0.25;
	// negative: outages leave the store alone) and the window the zone
	// stays down (default 1m).
	OutageRate     float64
	OutageDuration time.Duration
}

// classStream derives an independent RNG for one fault class from the
// process seed. The multiplier is the 64-bit golden-ratio constant
// (reinterpreted as a signed value), a standard seed-spreading mix.
func (pr Process) classStream(class int64) *rand.Rand {
	const mix = int64(-7046029254386353131) // 0x9e3779b97f4a7c15 as int64
	return rand.New(rand.NewSource(pr.Seed + class*mix))
}

// checkPerHour rejects a class rate Generate could not expand into a
// bounded number of arrivals.
func checkPerHour(name string, perHour float64, horizon time.Duration) error {
	switch {
	case !(perHour >= 0):
		return fmt.Errorf("%w: %s = %v, want a rate >= 0", ErrBadProcess, name, perHour)
	case perHour*horizon.Hours() > maxArrivals: // +Inf included
		return fmt.Errorf("%w: %s = %v/h over %s expects more than %d arrivals",
			ErrBadProcess, name, perHour, horizon, maxArrivals)
	case perHour > float64(time.Hour):
		return fmt.Errorf("%w: %s = %v/h is more than one arrival per nanosecond", ErrBadProcess, name, perHour)
	}
	return nil
}

// Generate expands the process into a validated Plan. The schedule is
// sorted by fire time with ties broken by a fixed class order, so the
// output is a pure function of the process parameters. Parameters that
// would not expand into a bounded plan return an error wrapping
// ErrBadProcess.
func (pr Process) Generate() (*Plan, error) {
	if pr.Horizon <= 0 {
		return nil, fmt.Errorf("%w: needs a positive Horizon, got %s", ErrBadProcess, pr.Horizon)
	}
	for _, c := range []struct {
		name    string
		perHour float64
	}{
		{"PreemptPerHour", pr.PreemptPerHour},
		{"CacheKillPerHour", pr.CacheKillPerHour},
		{"BrownoutPerHour", pr.BrownoutPerHour},
		{"ZoneOutagePerHour", pr.ZoneOutagePerHour},
	} {
		if err := checkPerHour(c.name, c.perHour, pr.Horizon); err != nil {
			return nil, err
		}
	}
	if math.IsNaN(pr.BrownoutRate) || math.IsNaN(pr.OutageRate) {
		return nil, fmt.Errorf("%w: NaN BrownoutRate or OutageRate", ErrBadProcess)
	}
	if pr.CacheNodes < 1 {
		pr.CacheNodes = 1
	}
	if pr.BrownoutRate <= 0 {
		pr.BrownoutRate = 0.5
	}
	if pr.BrownoutDuration <= 0 {
		pr.BrownoutDuration = 5 * time.Second
	}
	if len(pr.Zones) == 0 {
		pr.Zones = []string{"zone-a"}
	}
	if pr.OutageRate < 0 {
		pr.OutageRate = 0
	} else if pr.OutageRate == 0 {
		pr.OutageRate = 0.25
	}
	if pr.OutageDuration <= 0 {
		pr.OutageDuration = time.Minute
	}

	plan := &Plan{}
	arrivals := func(class int64, perHour float64, mk func(at time.Duration, rng *rand.Rand) Event) {
		if perHour <= 0 {
			return
		}
		rng := pr.classStream(class)
		var t time.Duration
		for {
			gap := rng.ExpFloat64() / perHour * float64(time.Hour)
			// A gap past the Duration range (a tiny rate) is past the
			// horizon; the comparison below is t+gap > Horizon without
			// the wrap.
			if gap >= 1<<63 || time.Duration(gap) > pr.Horizon-t {
				return
			}
			t += time.Duration(gap)
			plan.Events = append(plan.Events, mk(t, rng))
		}
	}
	arrivals(1, pr.PreemptPerHour, func(at time.Duration, _ *rand.Rand) Event {
		return Event{At: at, Kind: PreemptVM}
	})
	arrivals(2, pr.CacheKillPerHour, func(at time.Duration, rng *rand.Rand) Event {
		return Event{At: at, Kind: KillCacheNode, Node: rng.Intn(pr.CacheNodes)}
	})
	arrivals(3, pr.BrownoutPerHour, func(at time.Duration, _ *rand.Rand) Event {
		return Event{At: at, Kind: StoreBrownout, Rate: pr.BrownoutRate, Duration: pr.BrownoutDuration}
	})
	arrivals(4, pr.ZoneOutagePerHour, func(at time.Duration, rng *rand.Rand) Event {
		return Event{At: at, Kind: ZoneOutage, Zone: pr.Zones[rng.Intn(len(pr.Zones))],
			Rate: pr.OutageRate, Duration: pr.OutageDuration}
	})
	// Stable sort: classes were appended in fixed order, so ties at the
	// same instant resolve identically run to run.
	sort.SliceStable(plan.Events, func(i, j int) bool {
		return plan.Events[i].At < plan.Events[j].At
	})
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}
