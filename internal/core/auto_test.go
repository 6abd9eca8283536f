package core

import (
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/bed"
)

// TestSortStageNilStrategyAutoPlans: a SortStage with no explicit
// strategy and the zero-valued SortParams.Strategy (Auto) must consult
// the planner, dispatch the sort, and report the planner's summary in
// the stage detail.
func TestSortStageNilStrategyAutoPlans(t *testing.T) {
	r := newRig(t)
	if err := r.exec.Shuffle.EnableHierarchical(); err != nil {
		t.Fatalf("EnableHierarchical: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 2000, Seed: 91, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 0 // let the seer sweep

	w := NewWorkflow("auto")
	if err := w.Add(&SortStage{Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sr, ok := rep.Stage("sort")
	if !ok || sr.Err != nil {
		t.Fatalf("sort stage: ok=%v err=%v", ok, sr.Err)
	}
	if !strings.Contains(sr.Detail, "auto-planned") {
		t.Errorf("stage detail %q does not carry the planner summary", sr.Detail)
	}
}

// TestSortStageForcedFamilyStillSized: a forced family code restricts
// the planner to that family but leaves the sizing to it.
func TestSortStageForcedFamilyStillSized(t *testing.T) {
	r := newRig(t)
	if err := r.exec.Shuffle.EnableHierarchical(); err != nil {
		t.Fatalf("EnableHierarchical: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 1000, Seed: 92, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 0
	params.Strategy = UseObjectStorage

	w := NewWorkflow("forced")
	if err := w.Add(&SortStage{Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	rep, err := r.run(t, w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sr, _ := rep.Stage("sort"); sr.Err != nil {
		t.Fatalf("sort err: %v", sr.Err)
	}
}

// TestAutoExchangeCapturesDecision: the explicit AutoExchange strategy
// keeps its full candidate table, the chosen candidate is feasible,
// and a pinned worker count collapses the sweep.
func TestAutoExchangeCapturesDecision(t *testing.T) {
	r := newRig(t)
	if err := r.exec.Shuffle.EnableHierarchical(); err != nil {
		t.Fatalf("EnableHierarchical: %v", err)
	}
	recs := bed.Generate(bed.GenConfig{Records: 1500, Seed: 93, Sorted: false})
	params := stageData(t, r, recs)
	params.Workers = 4

	auto := &AutoExchange{}
	w := NewWorkflow("capture")
	if err := w.Add(&SortStage{Strategy: auto, Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err != nil {
		t.Fatalf("run: %v", err)
	}
	dec := auto.LastDecision
	if dec == nil {
		t.Fatal("no decision captured")
	}
	if !dec.Chosen.Feasible {
		t.Errorf("chosen candidate infeasible: %+v", dec.Chosen)
	}
	for _, c := range dec.Candidates {
		if c.Strategy != autoplan.VMStaged && c.Workers != 4 {
			t.Errorf("%v candidate at w=%d, want pinned 4", c.Strategy, c.Workers)
		}
	}
}

// TestAutoExchangeUnknownCode: an out-of-range strategy code fails the
// stage instead of silently auto-planning.
func TestAutoExchangeUnknownCode(t *testing.T) {
	r := newRig(t)
	recs := bed.Generate(bed.GenConfig{Records: 100, Seed: 94, Sorted: false})
	params := stageData(t, r, recs)
	params.Strategy = StrategyCode(99)
	w := NewWorkflow("bad")
	if err := w.Add(&SortStage{Params: params}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := r.run(t, w); err == nil || !strings.Contains(err.Error(), "unknown strategy code") {
		t.Fatalf("err = %v", err)
	}
}
