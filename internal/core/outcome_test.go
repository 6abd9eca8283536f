package core

import (
	"errors"
	"testing"
	"time"
)

// scriptedExchange is a sort strategy that plays back one result per
// call: an error, or an outcome to report.
type scriptedExchange struct {
	calls    int
	attempts []scriptedAttempt
}

type scriptedAttempt struct {
	outcome SortOutcome
	err     error
}

func (s *scriptedExchange) Name() string { return "scripted" }

func (s *scriptedExchange) RunSort(ctx *StageContext, _ SortParams) (SortOutcome, error) {
	a := s.attempts[s.calls]
	s.calls++
	ctx.Proc.Sleep(time.Second)
	return a.outcome, a.err
}

// TestRetriedSortReportsOnlySuccessfulOutcome: a RetryStage-wrapped
// SortStage whose first attempt fails reports exactly the outcome of
// the attempt that finished, with the failed attempt's counters gone.
func TestRetriedSortReportsOnlySuccessfulOutcome(t *testing.T) {
	r := newRig(t)
	strat := &scriptedExchange{attempts: []scriptedAttempt{
		{
			outcome: SortOutcome{StageOutcome: StageOutcome{Detail: "first", Restarts: 5, ReworkBytes: 500, FallbackSlabs: 50}},
			err:     errors.New("first attempt lost"),
		},
		{
			outcome: SortOutcome{
				OutputKeys:   []string{"part-0000"},
				Workers:      1,
				StageOutcome: StageOutcome{Detail: "second", ReworkBytes: 7},
			},
		},
	}}
	w := NewWorkflow("retried-sort")
	if err := w.Add(&RetryStage{Inner: &SortStage{Strategy: strat}, Attempts: 2}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strat.calls != 2 {
		t.Fatalf("strategy ran %d times, want 2", strat.calls)
	}
	sr, _ := rep.Stage("sort")
	if want := (StageOutcome{Detail: "second", ReworkBytes: 7}); sr.StageOutcome != want {
		t.Errorf("outcome = %+v, want %+v", sr.StageOutcome, want)
	}
	if rep.Restarts() != 0 || rep.ReworkBytes() != 7 {
		t.Errorf("run rollup = %d restarts / %d rework, want 0 / 7", rep.Restarts(), rep.ReworkBytes())
	}
}

// partialStage fills its outcome on every run and fails the first
// failures of them.
type partialStage struct {
	failures int
	runs     int
}

func (s *partialStage) Name() string { return "partial" }

func (s *partialStage) Run(ctx *StageContext) error {
	s.runs++
	ctx.Outcome.Restarts++
	if s.runs <= s.failures {
		ctx.Outcome.Detail = "failed attempt"
		return errors.New("transient stage failure")
	}
	return nil
}

// TestRetryStageResetsOutcomeBetweenAttempts: an inner stage that
// fills its outcome before failing does not leak it into the retry.
func TestRetryStageResetsOutcomeBetweenAttempts(t *testing.T) {
	r := newRig(t)
	inner := &partialStage{failures: 2}
	w := NewWorkflow("wf")
	if err := w.Add(&RetryStage{Inner: inner, Attempts: 3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr, _ := rep.Stage("partial")
	if want := (StageOutcome{Restarts: 1}); sr.StageOutcome != want {
		t.Errorf("outcome = %+v, want %+v", sr.StageOutcome, want)
	}
}

// TestFuncStageReportsEmptyOutcome: a stage that reports nothing gets
// an empty detail and zero recovery counters, even when it publishes
// state.
func TestFuncStageReportsEmptyOutcome(t *testing.T) {
	r := newRig(t)
	w := NewWorkflow("func")
	if err := w.Add(&FuncStage{StageName: "work", Fn: func(ctx *StageContext) error {
		ctx.State.Set("work.keys", []string{"a"})
		ctx.Proc.Sleep(time.Second)
		return nil
	}}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr, _ := rep.Stage("work")
	if sr.StageOutcome != (StageOutcome{}) {
		t.Errorf("outcome = %+v, want zero", sr.StageOutcome)
	}
	if rep.Restarts() != 0 || rep.ReworkBytes() != 0 {
		t.Errorf("run rollup = %d restarts / %d rework, want 0 / 0", rep.Restarts(), rep.ReworkBytes())
	}
}

// TestConcurrentStagesKeepTheirOwnOutcome: two stages running at the
// same virtual time each fill their outcome, interleave across a
// sleep, and each report only their own.
func TestConcurrentStagesKeepTheirOwnOutcome(t *testing.T) {
	r := newRig(t)
	stage := func(name string, restarts int, first, second time.Duration) Stage {
		return &FuncStage{StageName: name, Fn: func(ctx *StageContext) error {
			ctx.Proc.Sleep(first)
			if ctx.Outcome != (StageOutcome{}) {
				t.Errorf("%s: outcome %+v before it reported", name, ctx.Outcome)
			}
			ctx.Outcome = StageOutcome{Detail: name, Restarts: restarts, ReworkBytes: int64(restarts) * 10}
			ctx.Proc.Sleep(second)
			if ctx.Outcome.Detail != name {
				t.Errorf("%s: outcome detail became %q", name, ctx.Outcome.Detail)
			}
			return nil
		}}
	}
	w := NewWorkflow("concurrent")
	// a reports at 1s and returns at 3s; b reports at 2s and returns
	// at 2.5s, inside a's window.
	if err := w.Add(stage("a", 1, time.Second, 2*time.Second)); err != nil {
		t.Fatalf("Add a: %v", err)
	}
	if err := w.Add(stage("b", 2, 2*time.Second, time.Second/2)); err != nil {
		t.Fatalf("Add b: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	a, _ := rep.Stage("a")
	b, _ := rep.Stage("b")
	if b.Start != a.Start || b.End >= a.End {
		t.Fatalf("stages did not overlap: a %v–%v, b %v–%v", a.Start, a.End, b.Start, b.End)
	}
	if want := (StageOutcome{Detail: "a", Restarts: 1, ReworkBytes: 10}); a.StageOutcome != want {
		t.Errorf("a outcome = %+v, want %+v", a.StageOutcome, want)
	}
	if want := (StageOutcome{Detail: "b", Restarts: 2, ReworkBytes: 20}); b.StageOutcome != want {
		t.Errorf("b outcome = %+v, want %+v", b.StageOutcome, want)
	}
	if rep.Restarts() != 3 || rep.ReworkBytes() != 30 {
		t.Errorf("run rollup = %d restarts / %d rework, want 3 / 30", rep.Restarts(), rep.ReworkBytes())
	}
}
