package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/session"
)

// The gateway-10k traffic mix: an open loop of independent tenants.
const (
	gwArrivalPerSec = 2000.0                // aggregate Poisson arrival rate, per virtual s
	gwServiceMean   = 40 * time.Millisecond // exp-distributed job occupancy
	gwMaxConcurrent = 256                   // gateway-wide jobs in flight
	gwMaxQueueWait  = 10 * time.Second      // standard-class shed deadline
	gwHammerShare   = 0.20                  // share of arrivals from the hammer class
	gwHammerRate    = 0.5                   // hammer tenants' token-bucket rate, per virtual s
	// gwSojournLimit is the latency limit goodput counts against:
	// five mean service times, which an unqueued job misses with
	// probability e^-5.
	gwSojournLimit = 5 * gwServiceMean
)

// Tenant classes, by registration index: every tenth is premium, and
// one in twenty (offset so the classes do not overlap) is a hammer.
func gwPremium(i int) bool { return i%10 == 0 }
func gwHammer(i int) bool  { return i%20 == 5 }

// arrival is one scheduled submission of the open loop.
type arrival struct {
	due    time.Duration
	tenant int
	occupy time.Duration
}

// gwArrivals draws the open-loop schedule from the seed: exponential
// gaps at the aggregate rate, a hammer-class tenant for gwHammerShare
// of arrivals and a regular one otherwise, and each job's occupancy.
func gwArrivals(seed int64, tenants, n int) []arrival {
	var hammer, regular []int
	for i := 0; i < tenants; i++ {
		if gwHammer(i) {
			hammer = append(hammer, i)
		} else {
			regular = append(regular, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += rng.ExpFloat64() / gwArrivalPerSec
		pool := regular
		if len(hammer) > 0 && rng.Float64() < gwHammerShare {
			pool = hammer
		}
		out[i] = arrival{
			due:    time.Duration(at * float64(time.Second)),
			tenant: pool[rng.Intn(len(pool))],
			occupy: time.Duration(rng.ExpFloat64() * float64(gwServiceMean)),
		}
	}
	return out
}

// gwJob is one sleep-only workflow: it occupies a gateway slot for its
// drawn service time and touches no store. Each gets its own workflow
// name so the trace can tell tickets' stage events apart.
func gwJob(name string, occupy time.Duration) session.Job {
	w := core.NewWorkflow(name)
	if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
		ctx.Proc.Sleep(occupy)
		return nil
	}}); err != nil {
		panic(err) // a one-stage workflow with a fixed name cannot fail to build
	}
	return session.WorkflowJob(w, nil)
}

// runGateway is the gateway-10k workload: a registered tenant
// population behind the admission gateway on one session, driven by a
// seeded open-loop arrival stream of sleep-only jobs.
func runGateway(sz sizes, seed int64, tr *tracer) *iteration {
	it := newIteration(tr)
	prof := calib.Paper()
	prof.Seed = seed
	const op = "gateway"

	var (
		arrivals []arrival
		g        *gateway.Gateway
		creds    []gateway.Credential
		register time.Duration
	)
	err := it.timeSetup(func() error {
		arrivals = gwArrivals(seed, sz.tenants, sz.arrivals)
		opts := session.Options{WarmCacheNodes: 1}
		if tr != nil {
			opts.Listeners = []core.Listener{tr}
		}
		id := tr.begin("session.Open", op, 0)
		sess, err := session.Open(prof, opts)
		tr.end(id)
		if err != nil {
			return err
		}
		auth := gateway.HMACAuth{Secret: []byte("perfbench")}
		g = gateway.New(sess, auth, gateway.Options{MaxConcurrent: gwMaxConcurrent})
		start := time.Now()
		creds = make([]gateway.Credential, sz.tenants)
		for i := range creds {
			tid := fmt.Sprintf("t%06d", i)
			creds[i] = gateway.Credential{TenantID: tid, MAC: auth.Tag(tid)}
			cfg := gateway.TenantConfig{Weight: 1, MaxConcurrent: 4, MaxQueued: 64, MaxQueueWait: gwMaxQueueWait}
			switch {
			case gwPremium(i):
				cfg = gateway.TenantConfig{Weight: 4, MaxConcurrent: 8, MaxQueued: 64}
			case gwHammer(i):
				cfg.RatePerSec, cfg.Burst = gwHammerRate, 1
			}
			rid := tr.begin("gateway.RegisterTenant", tid, 0)
			err := g.RegisterTenant(tid, cfg)
			tr.end(rid)
			if err != nil {
				return err
			}
		}
		register = time.Since(start)
		return nil
	})
	it.hostLayer["gateway.register_host_s"] = register.Seconds()
	if err != nil {
		it.attempted++
		it.fail(op+" setup", err)
		return it
	}

	var (
		tickets  = make([]*gateway.Ticket, len(arrivals))
		submitUS []float64
		maxLag   time.Duration
		refused  int64
		driveErr error
	)
	rig := g.Session().Rig()
	// The schedule starts once Open has brought the standing cache up.
	opened := rig.Sim.Now()
	for i := range arrivals {
		arrivals[i].due += opened
	}
	rig.Sim.Spawn("perfbench/open-loop", func(p *des.Proc) {
		for i, a := range arrivals {
			if d := a.due - p.Now(); d > 0 {
				p.Sleep(d)
			}
			if lag := p.Now() - a.due; lag > maxLag {
				maxLag = lag
			}
			job := gwJob(fmt.Sprintf("ticket-%d", i), a.occupy)
			var start time.Time
			id := tr.begin("gateway.Submit", job.Name, 0)
			if tr != nil {
				start = time.Now()
			}
			tk, err := g.Submit(p, creds[a.tenant], job)
			if tr != nil {
				submitUS = append(submitUS, float64(time.Since(start).Nanoseconds())/1e3)
			}
			tr.end(id)
			tr.virt(id, a.due, p.Now())
			switch {
			case err == nil:
				tickets[i] = tk
			case errors.Is(err, gateway.ErrRateLimited), errors.Is(err, gateway.ErrQueueFull):
				refused++ // admission control doing its job
			default:
				driveErr = err
				return
			}
		}
		id := tr.begin("gateway.Drain", op, 0)
		start := p.Now()
		g.Drain(p)
		tr.end(id)
		tr.virt(id, start, p.Now())
	})
	runErr := it.run(rig, op)
	if runErr == nil {
		runErr = driveErr
	}
	it.attempted += len(arrivals)
	if runErr != nil {
		it.fail(op, runErr)
		return it
	}

	// Ticket outcomes. Refused and shed tickets are misses, not
	// failures; a ticket that ran and errored is a failure.
	var (
		sojourn, queued, running []float64
		first, last              time.Duration = math.MaxInt64, 0
		within, shed             int
	)
	for i, tk := range tickets {
		a := arrivals[i]
		if a.due < first {
			first = a.due
		}
		if tk == nil {
			continue
		}
		if !tk.Done() {
			it.fail(tk.Tenant, errors.New("admitted ticket not done after drain"))
			continue
		}
		if tk.Finished > last {
			last = tk.Finished
		}
		if _, err := tk.Report(); err != nil {
			if errors.Is(err, gateway.ErrDeadlineExceeded) {
				shed++
				continue
			}
			it.fail(tk.Tenant, err)
			continue
		}
		s := tk.Finished - a.due
		sojourn = append(sojourn, s.Seconds())
		queued = append(queued, tk.Queued().Seconds())
		running = append(running, (tk.Finished - tk.Started).Seconds())
		if s <= gwSojournLimit {
			within++
		}
	}

	rep, err := g.Close()
	if err != nil {
		it.fail(op+" close", err)
		return it
	}
	var submitted, admitted, rejRate, rejQueue, completed, tenantShed int64
	for _, ts := range rep.Tenants {
		submitted += ts.Submitted
		admitted += ts.Admitted
		rejRate += ts.RejectedRate
		rejQueue += ts.RejectedQueue
		completed += ts.Completed
		tenantShed += ts.Shed
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			it.fail(op+" check", fmt.Errorf(format, args...))
		}
	}
	check(rep.Starved == 0, "%d starved tenant-rounds", rep.Starved)
	check(math.Abs(rep.AttributedUSD-rep.Session.TotalUSD) <= 1e-9,
		"tenant ledgers $%.12f != session bill $%.12f", rep.AttributedUSD, rep.Session.TotalUSD)
	check(submitted == int64(len(arrivals)), "gateway counted %d submissions, %d were made", submitted, len(arrivals))
	check(submitted == admitted+rejRate+rejQueue, "submitted %d != admitted %d + rejected %d + %d",
		submitted, admitted, rejRate, rejQueue)
	check(refused == rejRate+rejQueue, "%d refusals seen, gateway counted %d", refused, rejRate+rejQueue)
	check(admitted == completed+tenantShed, "admitted %d != completed %d + shed %d", admitted, completed, tenantShed)
	check(int64(shed) == tenantShed, "%d shed tickets seen, gateway counted %d", shed, tenantShed)
	check(maxLag == 0, "open-loop generator ran %v late", maxLag)

	v := it.virtual
	span := (last - first).Seconds()
	v["virtual_s"] = span
	v["usd"] = rep.Session.TotalUSD
	sort.Float64s(sojourn)
	sort.Float64s(queued)
	sort.Float64s(running)
	it.sojourns(sojourn)
	if span > 0 {
		v["goodput_per_vs"] = float64(within) / span
	}
	v["accepted_ratio"] = 1 - float64(rejRate+rejQueue+tenantShed)/float64(submitted)
	v["gateway.rounds"] = float64(rep.Rounds)
	v["gateway.starved"] = float64(rep.Starved)
	v["gateway.rejected_rate"] = float64(rejRate)
	v["gateway.rejected_queue"] = float64(rejQueue)
	v["gateway.shed"] = float64(tenantShed)
	v["gateway.queued_p50_vs"] = median(queued)
	v["gateway.queued_tail_vs"], _ = tail(queued)
	v["gateway.generator_lag_vs"] = maxLag.Seconds()
	v["session.run_p50_vs"] = median(running)
	v["session.standing_usd"] = rep.Session.StandingUSD
	if len(submitUS) > 0 {
		sort.Float64s(submitUS)
		it.hostLayer["gateway.submit_host_us_p50"] = median(submitUS)
		it.hostLayer["gateway.submit_host_us_tail"], _ = tail(submitUS)
	}
	return it
}
