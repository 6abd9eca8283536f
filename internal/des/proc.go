package des

import (
	"errors"
	"math/rand"
	"time"
)

// errKilled is the sentinel panic value used to unwind a process
// goroutine when the simulation shuts down with the process still
// suspended. It never escapes the process wrapper.
var errKilled = errors.New("des: process killed")

// Proc is a simulated process: a Go function running on its own
// goroutine under cooperative scheduling. A Proc must only call its
// methods from its own goroutine; passing a Proc across goroutines is
// a bug.
//
// The goroutine starts at the process's first activation, not at
// Spawn. While suspended, a process runs the event loop itself (see
// the package comment); it blocks on resume only once it has handed
// control to another process or back to Run's caller.
type Proc struct {
	sim  *Sim
	name string
	body func(p *Proc)

	resume chan struct{}
	// wake is the handle of the pending activation event, if any; the
	// zero Event means none. activateFn is the activate method value,
	// bound once at Spawn so the Sleep/Wake hot path does not allocate
	// a fresh closure per suspension.
	wake       Event
	activateFn func()
	suspended  bool
	started    bool
	killed     bool
	done       bool
}

// Spawn creates a process that begins executing fn at the current
// virtual time (after already-scheduled events at the same instant).
// It may be called before Run or from any process context. No
// goroutine starts until that activation fires.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:       s,
		name:      name,
		body:      fn,
		resume:    make(chan struct{}),
		suspended: true,
	}
	p.activateFn = p.activate
	s.live[p] = struct{}{}
	p.wake = s.Schedule(s.now, p.activateFn)
	return p
}

// run is the body of a process goroutine, started by its first
// handoff.
func (p *Proc) run() {
	defer p.exit()
	p.body(p)
}

// exit ends a process goroutine. A panic other than the kill sentinel
// is recorded against the process. A killed process hands control
// straight back to killLive; otherwise the finished process runs the
// event loop one last time and hands control on before its goroutine
// exits.
func (p *Proc) exit() {
	s := p.sim
	if r := recover(); r != nil && !errors.Is(asErr(r), errKilled) {
		s.recordPanic(p.name, r)
	}
	p.done = true
	delete(s.live, p)
	if p.killed {
		s.caller <- struct{}{}
		return
	}
	s.handoff(s.dispatch())
}

func asErr(v any) error {
	if err, ok := v.(error); ok {
		return err
	}
	return nil
}

// activate is the event that gives a process control: it records the
// process for the dispatch loop to hand off to. The done/killed guard
// drops activations of dead processes: killLive cancels a victim's
// wake event, but deferred code that sleeps while the victim unwinds
// schedules a new one, and handing control to an exited goroutine
// would hang the run.
func (p *Proc) activate() {
	if p.done || p.killed {
		return
	}
	p.wake = Event{}
	p.suspended = false
	p.sim.next = p
}

// handoff passes control to next: the go statement on its first
// activation, a send on resume after that, or back to Run's caller
// when the run is over (next is nil). The caller must block (or exit)
// right after, touching no simulation state.
func (s *Sim) handoff(next *Proc) {
	switch {
	case next == nil:
		s.caller <- struct{}{}
	case !next.started:
		next.started = true
		go next.run()
	default:
		next.resume <- struct{}{}
	}
}

// suspend gives up control until the process is activated again. The
// suspending goroutine runs the event loop itself: if the next
// activation is its own it carries on without a switch; otherwise it
// hands control on and blocks. A killed process (unwinding, with
// deferred code that tries to suspend again) only keeps unwinding.
func (p *Proc) suspend() {
	if p.killed {
		panic(errKilled)
	}
	s := p.sim
	p.suspended = true
	next := s.dispatch()
	if next == p {
		return
	}
	s.handoff(next)
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Rand returns the simulation's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.sim.rng }

// Spawn starts a child process; sugar for p.Sim().Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.sim.Spawn(name, fn)
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (the process still yields, so same-instant events
// already on the heap run first).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.wake = p.sim.After(d, p.activateFn)
	p.suspend()
}

// Park suspends the process indefinitely; some other party must call
// Wake to resume it. Parking with no one holding a reference that will
// eventually Wake the process deadlocks the simulation (Run reports
// it).
func (p *Proc) Park() {
	p.suspend()
}

// Wake schedules a parked process to resume at the current virtual
// time. Waking a process that is running, already scheduled to wake,
// or finished is a no-op, so callers may wake defensively.
func (p *Proc) Wake() {
	if p.done || !p.suspended || p.wake.pending() {
		return
	}
	p.wake = p.sim.Schedule(p.sim.now, p.activateFn)
}

// WaitGroup synchronizes processes on a counter, like sync.WaitGroup
// but in virtual time. The zero value is unusable; create with
// NewWaitGroup.
type WaitGroup struct {
	sim     *Sim
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group bound to s.
func NewWaitGroup(s *Sim) *WaitGroup {
	return &WaitGroup{sim: s}
}

// Add adjusts the counter by delta. Decrementing the counter to zero
// wakes all waiters; decrementing below zero panics (a counting bug).
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("des: negative WaitGroup counter")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count reports the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.Park()
	}
}
