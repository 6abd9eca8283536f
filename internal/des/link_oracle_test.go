package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// refLink is the reference link model the production Link must match
// bit for bit: every membership change re-sorts all flows by (remaining
// bytes, proc name), water-fills their rates and cancels and
// re-schedules one completion event per flow. It is the straightforward
// reading of max-min sharing and is kept only as a differential oracle.
type refLink struct {
	sim      *Sim
	capacity float64
	flows    map[*refFlow]struct{}

	bytesMoved   float64
	transfersRun int64
}

type refFlow struct {
	remaining float64
	cap       float64
	rate      float64
	last      time.Duration
	proc      *Proc
	doneEv    Event
	finished  bool
}

func newRefLink(s *Sim, capacity float64) *refLink {
	return &refLink{sim: s, capacity: capacity, flows: make(map[*refFlow]struct{})}
}

func (l *refLink) BytesMoved() float64 { return l.bytesMoved }
func (l *refLink) Transfers() int64    { return l.transfersRun }

func (l *refLink) Transfer(p *Proc, bytes int64, flowCap float64) {
	if bytes <= 0 {
		return
	}
	f := &refFlow{
		remaining: float64(bytes),
		cap:       flowCap,
		last:      l.sim.Now(),
		proc:      p,
	}
	l.flows[f] = struct{}{}
	l.reshare()
	for !f.finished {
		p.Park()
	}
	l.bytesMoved += float64(bytes)
	l.transfersRun++
}

func (l *refLink) advance() {
	now := l.sim.Now()
	for f := range l.flows {
		if math.IsInf(f.rate, 1) {
			f.remaining = 0
			f.last = now
			continue
		}
		elapsed := (now - f.last).Seconds()
		if elapsed > 0 && f.rate > 0 {
			f.remaining -= elapsed * f.rate
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.last = now
	}
}

func (l *refLink) reshare() {
	l.advance()
	if len(l.flows) == 0 {
		return
	}
	ordered := make([]*refFlow, 0, len(l.flows))
	for f := range l.flows {
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].remaining != ordered[j].remaining {
			return ordered[i].remaining < ordered[j].remaining
		}
		return ordered[i].proc.Name() < ordered[j].proc.Name()
	})
	caps := make([]float64, len(ordered))
	for i, f := range ordered {
		if f.cap > 0 {
			caps[i] = f.cap
		} else {
			caps[i] = math.Inf(1)
		}
	}
	rates := Waterfill(l.capacity, caps)
	for i, f := range ordered {
		f.rate = rates[i]
		f.doneEv.Cancel()
		f.doneEv = Event{}
		if f.remaining <= 0.5 || math.IsInf(f.rate, 1) {
			ff := f
			f.doneEv = l.sim.Schedule(l.sim.Now(), func() { l.finish(ff) })
			continue
		}
		if f.rate <= 0 {
			continue
		}
		d := time.Duration(math.Ceil(f.remaining / f.rate * float64(time.Second)))
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
		ff := f
		f.doneEv = l.sim.After(d, func() { l.finish(ff) })
	}
}

func (l *refLink) finish(f *refFlow) {
	if f.finished {
		return
	}
	l.advance()
	if f.remaining > 0.5 {
		l.reshare()
		return
	}
	f.finished = true
	f.doneEv = Event{}
	delete(l.flows, f)
	f.proc.Wake()
	l.reshare()
}

// transferer is the surface both link models share.
type transferer interface {
	Transfer(p *Proc, bytes int64, flowCap float64)
	BytesMoved() float64
	Transfers() int64
}

// linkStep is one action of a scenario process: a transfer when bytes
// is positive, otherwise a sleep.
type linkStep struct {
	bytes int64
	cap   float64
	sleep time.Duration
}

type linkScenario struct {
	capacity float64
	procs    [][]linkStep
}

// requested sums the bytes every transfer of the scenario asks for.
func (sc linkScenario) requested() float64 {
	var sum float64
	for _, steps := range sc.procs {
		for _, st := range steps {
			sum += float64(st.bytes)
		}
	}
	return sum
}

var linkRegimes = []string{"unlimited", "undersubscribed", "exact", "oversubscribed", "mixed"}

// genLinkScenario draws a scenario for one capacity regime. Sizes,
// caps and sleeps sit on coarse grids so completions, arrivals and
// sleeper wake-ups often land on the same nanosecond.
func genLinkScenario(rng *rand.Rand, regime string) linkScenario {
	const unit = 1000 // bytes; capacity and caps are multiples of it per second
	var sc linkScenario
	n := 2 + rng.Intn(24)
	capOf := func() float64 { return float64(unit * (1 + rng.Intn(8))) }
	switch regime {
	case "unlimited":
		sc.capacity = 0
	case "undersubscribed":
		sc.capacity = float64(unit * 8 * n * 4)
	case "exact":
		// Every flow is capped at one unit, and the capacity equals the
		// sum of the caps when all n transfers are in flight at once.
		sc.capacity = float64(unit * n)
		capOf = func() float64 { return unit }
	case "oversubscribed":
		sc.capacity = float64(unit * (1 + rng.Intn(4)))
	case "mixed":
		sc.capacity = float64(unit * (2 + rng.Intn(16)))
		base := capOf
		capOf = func() float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return base()
		}
	}
	sizes := []int64{1, 499, 500, 1000, 2000, 4096, 5000}
	for i := 0; i < n; i++ {
		var steps []linkStep
		if regime != "exact" && rng.Intn(2) == 0 {
			steps = append(steps, linkStep{sleep: time.Duration(rng.Intn(5)) * 250 * time.Millisecond})
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			bytes := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				bytes = 1 + rng.Int63n(20000)
			}
			steps = append(steps, linkStep{bytes: bytes, cap: capOf()})
			if regime == "exact" {
				break
			}
			if rng.Intn(3) == 0 {
				steps = append(steps, linkStep{sleep: time.Duration(rng.Intn(4)) * 500 * time.Millisecond})
			}
		}
		sc.procs = append(sc.procs, steps)
	}
	// Sleepers wake on the half-second grid most transfers complete on.
	for i := rng.Intn(4); i > 0; i-- {
		var steps []linkStep
		for k := 1 + rng.Intn(6); k > 0; k-- {
			steps = append(steps, linkStep{sleep: time.Duration(rng.Intn(4)) * 500 * time.Millisecond})
		}
		sc.procs = append(sc.procs, steps)
	}
	return sc
}

type linkRun struct {
	log       []string
	fired     int64
	moved     float64
	transfers int64
}

// runLinkScenario plays sc on a fresh simulation over the link mk
// builds. check, when non-nil, runs around every step in process
// context.
func runLinkScenario(sc linkScenario, mk func(*Sim) transferer, check func()) (linkRun, error) {
	s := New(1)
	l := mk(s)
	var run linkRun
	for i, steps := range sc.procs {
		steps := steps
		s.Spawn(fmt.Sprintf("p%02d", i), func(p *Proc) {
			for k, st := range steps {
				if check != nil {
					check()
				}
				if st.bytes > 0 {
					l.Transfer(p, st.bytes, st.cap)
					run.log = append(run.log, fmt.Sprintf("%s/%d done %d", p.Name(), k, p.Now()))
				} else {
					p.Sleep(st.sleep)
					run.log = append(run.log, fmt.Sprintf("%s/%d woke %d", p.Name(), k, p.Now()))
				}
			}
			if check != nil {
				check()
			}
		})
	}
	err := s.Run()
	run.fired, run.moved, run.transfers = s.Fired(), l.BytesMoved(), l.Transfers()
	return run, err
}

// checkLinkRates verifies the link's conservation laws on its current
// rates: no flow above its cap and, on a finite link, the rates sum to
// at most the capacity (up to float rounding of the water-fill).
func checkLinkRates(l *Link) error {
	var sum float64
	for _, f := range l.flows {
		if f.rate < 0 || math.IsNaN(f.rate) {
			return fmt.Errorf("flow %s rate %v", f.proc.Name(), f.rate)
		}
		if f.cap > 0 && f.rate > f.cap {
			return fmt.Errorf("flow %s rate %v above its cap %v", f.proc.Name(), f.rate, f.cap)
		}
		sum += f.rate
	}
	if l.capacity > 0 && sum > l.capacity*(1+1e-9) {
		return fmt.Errorf("rates sum to %v over capacity %v", sum, l.capacity)
	}
	return nil
}

// TestLinkMatchesReference drives the production link and the
// reshare-everything reference through identical randomized scenarios
// in every capacity regime and requires the same completion times to
// the nanosecond, the same wake order and the same number of fired
// events. Along the way it checks the conservation laws after every
// reshare: each completion event is wrapped, and every process step
// checks too, so the state each arrival leaves behind is seen before
// anything changes it.
func TestLinkMatchesReference(t *testing.T) {
	const seeds = 200
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		regime := linkRegimes[int(seed)%len(linkRegimes)]
		sc := genLinkScenario(rng, regime)

		want, err := runLinkScenario(sc, func(s *Sim) transferer { return newRefLink(s, sc.capacity) }, nil)
		if err != nil {
			t.Fatalf("seed %d (%s): reference run: %v", seed, regime, err)
		}
		var link *Link
		var lawErr error
		check := func() {
			if err := checkLinkRates(link); err != nil && lawErr == nil {
				lawErr = fmt.Errorf("at %v: %w", link.sim.Now(), err)
			}
		}
		got, err := runLinkScenario(sc, func(s *Sim) transferer {
			link = NewLink(s, sc.capacity)
			fire := link.fireFn
			link.fireFn = func() { check(); fire(); check() }
			return link
		}, check)
		if err != nil {
			t.Fatalf("seed %d (%s): run: %v", seed, regime, err)
		}
		if lawErr != nil {
			t.Fatalf("seed %d (%s): %v", seed, regime, lawErr)
		}
		if g, w := strings.Join(got.log, "\n"), strings.Join(want.log, "\n"); g != w {
			t.Fatalf("seed %d (%s): completion log differs\n got:\n%s\nwant:\n%s", seed, regime, g, w)
		}
		if got.fired != want.fired {
			t.Fatalf("seed %d (%s): fired %d events, reference %d", seed, regime, got.fired, want.fired)
		}
		if got.transfers != want.transfers {
			t.Fatalf("seed %d (%s): %d transfers, reference %d", seed, regime, got.transfers, want.transfers)
		}
		if req := sc.requested(); got.moved != req || want.moved != req {
			t.Fatalf("seed %d (%s): moved %v (reference %v), requested %v", seed, regime, got.moved, want.moved, req)
		}
	}
}
