package des

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The tests in this file pin the kernel's slot-recycling and
// resumption semantics: the properties that make value Event handles
// safe to hold forever and RunUntil safe to call repeatedly.

// TestCancelAfterSlotRecycle holds a handle across its slot's reuse:
// once the first event fires, its slot goes back on the free list and
// the next Schedule takes it over. The stale handle's generation no
// longer matches, so Cancel must be a no-op against the new tenant.
func TestCancelAfterSlotRecycle(t *testing.T) {
	s := New(1)
	var second bool
	e1 := s.Schedule(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e2 := s.Schedule(2*time.Second, func() { second = true })
	if e2.slot != e1.slot {
		t.Fatalf("second event took slot %d, want recycled slot %d", e2.slot, e1.slot)
	}
	e1.Cancel() // stale: must not touch e2
	if at := e1.At(); at != 0 {
		t.Fatalf("stale handle At() = %v, want 0", at)
	}
	if at := e2.At(); at != 2*time.Second {
		t.Fatalf("live handle At() = %v, want 2s", at)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !second {
		t.Fatal("event sharing a recycled slot was killed by a stale Cancel")
	}
}

// TestZeroEventIsInert exercises the documented zero-value contract.
func TestZeroEventIsInert(t *testing.T) {
	var e Event
	e.Cancel()
	if at := e.At(); at != 0 {
		t.Fatalf("zero Event At() = %v, want 0", at)
	}
}

// TestRunUntilResumes drives the horizon forward in steps: an event
// beyond one horizon must survive on the heap and fire under the next.
// (A pop-then-check loop would silently drop the first event past each
// horizon; the kernel peeks before popping.)
func TestRunUntilResumes(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, time.Minute, time.Hour} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(2 * time.Second); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(2s) = %v, want ErrSimLimit", err)
	}
	if len(fired) != 1 || fired[0] != time.Second {
		t.Fatalf("after first horizon fired = %v, want [1s]", fired)
	}
	if err := s.RunUntil(30 * time.Minute); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(30m) = %v, want ErrSimLimit", err)
	}
	if len(fired) != 2 || fired[1] != time.Minute {
		t.Fatalf("after second horizon fired = %v, want [1s 1m]", fired)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	if len(fired) != 3 || fired[2] != time.Hour {
		t.Fatalf("after final run fired = %v, want [1s 1m 1h]", fired)
	}
	if s.Now() != time.Hour {
		t.Fatalf("Now = %v, want 1h", s.Now())
	}
}

// runWithWatchdog runs fn, failing the test after a wall-clock timeout
// instead of hanging the whole suite — the failure mode under test is
// a kernel that blocks forever.
func runWithWatchdog(t *testing.T, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not complete: kernel hung (orphaned wake event?)")
		return nil
	}
}

// TestRunUntilResumesPastKilledSleeper pins the interaction between the
// two shutdown contracts: RunUntil leaves past-horizon events on the
// heap for resumption, while killLive unwinds every suspended process.
// A killed sleeper's wake event must not survive to a later run — if it
// did, its activate() would block forever sending to a goroutine that
// no longer exists. Bare events past the horizon must still resume.
func TestRunUntilResumesPastKilledSleeper(t *testing.T) {
	s := New(1)
	var awoke, lateFired bool
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Second)
		awoke = true
	})
	s.Schedule(8*time.Second, func() { lateFired = true })
	if err := s.RunUntil(5 * time.Second); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("RunUntil(5s) = %v, want ErrSimLimit", err)
	}
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if awoke {
		t.Fatal("killed sleeper's body ran after resumption")
	}
	if !lateFired {
		t.Fatal("bare event past the horizon was dropped")
	}
}

// TestMaxEventsKillsSleeperWake is the same orphaned-wake hazard via
// the MaxEvents limit path: the limit trips with a process asleep, and
// a later Run must drain cleanly rather than activating the corpse.
func TestMaxEventsKillsSleeperWake(t *testing.T) {
	s := New(1)
	var awoke bool
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Second) // spawn activation counts as event #1
		awoke = true
	})
	s.Schedule(0, func() {})
	s.MaxEvents = 2
	if err := s.Run(); !errors.Is(err, ErrSimLimit) {
		t.Fatalf("Run with MaxEvents=2 = %v, want ErrSimLimit", err)
	}
	s.MaxEvents = 0
	if err := runWithWatchdog(t, s.Run); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if awoke {
		t.Fatal("killed sleeper's body ran after resumption")
	}
}

// TestMassCancelCompaction cancels most of a large heap and checks the
// survivors still fire in exact (at, seq) order afterward — the
// compaction sweep must rebuild a valid heap and drop only dead slots.
func TestMassCancelCompaction(t *testing.T) {
	s := New(1)
	const n = 4096
	handles := make([]Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		handles[i] = s.Schedule(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	for i := 0; i < n; i++ {
		if i%8 != 3 { // keep every 8th
			handles[i].Cancel()
		}
	}
	if p := s.Pending(); p != n/8 {
		t.Fatalf("Pending = %d after mass cancel, want %d", p, n/8)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != n/8 {
		t.Fatalf("fired %d events, want %d", len(fired), n/8)
	}
	for j, i := range fired {
		if want := j*8 + 3; i != want {
			t.Fatalf("fired[%d] = %d, want %d (order broken after compaction)", j, i, want)
		}
	}
}

// TestDeadlockManyParkedProcs parks ten thousand processes with no
// waker: the drained kernel must report every one of them, at a scale
// where per-proc bookkeeping mistakes (lost entries, quadratic
// collection) would surface.
func TestDeadlockManyParkedProcs(t *testing.T) {
	s := New(1)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("parked-%05d", i), func(p *Proc) { p.Park() })
	}
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != n {
		t.Fatalf("DeadlockError lists %d parked procs, want %d", len(dl.Parked), n)
	}
	seen := make(map[string]bool, n)
	for _, name := range dl.Parked {
		if seen[name] {
			t.Fatalf("proc %q reported twice", name)
		}
		seen[name] = true
	}
}

// goroutineBaseline returns the goroutine count once it has held steady
// for a few milliseconds, so the goroutines of earlier tests that are
// still exiting do not inflate the baseline.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for steady := 0; steady < 5; steady++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, steady = m, 0
		}
	}
	return n
}

// settleGoroutines polls runtime.NumGoroutine until it is back at base
// or a short deadline passes, and returns the last count: a goroutine
// that has handed control back may still be exiting.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNoGoroutinesSurviveRun pins the kernel's goroutine contract on
// every exit path of Run: whatever the outcome, no process goroutine
// outlives it. Goroutines start lazily, at a process's first
// activation, so a Sim whose processes never run starts none.
func TestNoGoroutinesSurviveRun(t *testing.T) {
	base := goroutineBaseline()
	sleepers := func(s *Sim, n int, d time.Duration) {
		for i := 0; i < n; i++ {
			s.Spawn(fmt.Sprintf("sleeper-%d", i), func(p *Proc) { p.Sleep(d) })
		}
	}

	idle := New(1)
	sleepers(idle, 5, time.Second)
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("5 spawns on a Sim never run: %d goroutines, want %d", n, base)
	}

	for _, tc := range []struct {
		name string
		run  func(s *Sim)
	}{
		{"clean drain", func(s *Sim) {
			sleepers(s, 5, time.Second)
			if err := s.Run(); err != nil {
				t.Errorf("Run = %v, want nil", err)
			}
		}},
		{"deadlock", func(s *Sim) {
			for i := 0; i < 5; i++ {
				s.Spawn(fmt.Sprintf("parked-%d", i), func(p *Proc) { p.Park() })
			}
			var dl *DeadlockError
			if err := s.Run(); !errors.As(err, &dl) {
				t.Errorf("Run = %v, want DeadlockError", err)
			}
		}},
		{"process panic", func(s *Sim) {
			sleepers(s, 4, time.Hour)
			s.Spawn("bomber", func(p *Proc) {
				p.Sleep(time.Second)
				panic("boom")
			})
			var pe *PanicError
			if err := s.Run(); !errors.As(err, &pe) || pe.Proc != "bomber" {
				t.Errorf("Run = %v, want PanicError from bomber", err)
			}
		}},
		{"horizon then resume", func(s *Sim) {
			sleepers(s, 5, time.Hour)
			if err := s.RunUntil(time.Minute); !errors.Is(err, ErrSimLimit) {
				t.Errorf("RunUntil = %v, want ErrSimLimit", err)
			}
			if n := settleGoroutines(base); n != base {
				t.Errorf("after horizon: %d goroutines, want %d", n, base)
			}
			sleepers(s, 5, time.Second)
			if err := s.Run(); err != nil {
				t.Errorf("resumed Run = %v, want nil", err)
			}
		}},
		{"killed process suspends while unwinding", func(s *Sim) {
			// The deferred Sleep runs during the kill: it must keep
			// unwinding, not run the event loop behind killLive's back.
			s.Spawn("stubborn", func(p *Proc) {
				defer p.Sleep(time.Second)
				p.Sleep(time.Hour)
			})
			if err := s.RunUntil(time.Minute); !errors.Is(err, ErrSimLimit) {
				t.Errorf("RunUntil with a stubborn sleeper = %v, want ErrSimLimit", err)
			}
			// That Sleep left a wake event behind; resuming must drop it.
			if err := runWithWatchdog(t, s.Run); err != nil {
				t.Errorf("resumed Run after a stubborn sleeper = %v, want nil", err)
			}
		}},
		{"max events", func(s *Sim) {
			sleepers(s, 5, time.Second)
			s.MaxEvents = 7
			if err := s.Run(); !errors.Is(err, ErrSimLimit) {
				t.Errorf("Run = %v, want ErrSimLimit", err)
			}
		}},
	} {
		// The cases run on the test goroutine itself: a subtest's own
		// goroutine would count against the baseline.
		tc.run(New(1))
		if n := settleGoroutines(base); n != base {
			t.Errorf("%s: %d goroutines after Run, want %d", tc.name, n, base)
		}
	}
}

// TestEventPanicEscapesRun pins the other panic contract: a panic in a
// plain event callback is not a process's failure. Whichever goroutine
// was running the event loop when the callback fired, Run re-raises
// the panic with the same value on its caller's goroutine, after
// unwinding every process.
func TestEventPanicEscapesRun(t *testing.T) {
	type boom struct{ at time.Duration }
	for _, at := range []time.Duration{0, time.Second} {
		t.Run(fmt.Sprint("at ", at), func(t *testing.T) {
			base := goroutineBaseline()
			s := New(1)
			if at == 0 {
				// Fires before any process has run.
				s.Schedule(0, func() { panic(boom{at}) })
			}
			for i := 0; i < 3; i++ {
				s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { p.Sleep(time.Hour) })
			}
			if at > 0 {
				// Fires while every process sleeps.
				s.Schedule(at, func() { panic(boom{at}) })
			}
			var err error
			got := func() (v any) {
				defer func() { v = recover() }()
				err = s.Run()
				return nil
			}()
			if got != (boom{at}) {
				t.Fatalf("Run panicked with %v and returned %v, want a panic with %v", got, err, boom{at})
			}
			if n := settleGoroutines(base); n != base {
				t.Errorf("%d goroutines after the panic, want %d", n, base)
			}
		})
	}
}
