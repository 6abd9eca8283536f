package gateway

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/core"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/session"
)

// TestFinishedTicketsDropTheirJob: once a ticket finishes, completed or
// shed, it no longer holds its job (workflow, stages, closures), while
// Report still returns the run's report and error.
func TestFinishedTicketsDropTheirJob(t *testing.T) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	g := New(sess, StaticTokens{"tok": "a"}, Options{MaxConcurrent: 1})
	if err := g.RegisterTenant("a", TenantConfig{MaxQueued: 10, MaxQueueWait: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	job := func(name string, d time.Duration) session.Job {
		w := core.NewWorkflow(name)
		if err := w.Add(&core.FuncStage{StageName: "work", Fn: func(ctx *core.StageContext) error {
			ctx.Proc.Sleep(d)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		return session.WorkflowJob(w, nil)
	}
	cred := Credential{Token: "tok"}
	var done, shed *Ticket
	sim := sess.Rig().Sim
	sim.Spawn("driver", func(p *des.Proc) {
		// done holds the only slot for 1s; shed queues behind it past
		// its 500ms deadline and is shed by the dispatch that follows
		// done's completion.
		if done, err = g.Submit(p, cred, job("done", time.Second)); err != nil {
			t.Errorf("submit done: %v", err)
			return
		}
		if shed, err = g.Submit(p, cred, job("shed", time.Millisecond)); err != nil {
			t.Errorf("submit shed: %v", err)
			return
		}
		if reflect.ValueOf(shed.job).IsZero() {
			t.Error("queued ticket lost its job before running")
		}
		g.Drain(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if done == nil || shed == nil {
		t.Fatal("submissions failed")
	}
	for name, tk := range map[string]*Ticket{"completed": done, "shed": shed} {
		if !tk.Done() {
			t.Fatalf("%s ticket not done", name)
		}
		if !reflect.ValueOf(tk.job).IsZero() {
			t.Errorf("%s ticket still holds its job", name)
		}
	}
	rep, err := done.Report()
	if err != nil || rep == nil || rep.Workflow != "done" {
		t.Errorf("completed ticket Report() = %v, %v; want the run's report", rep, err)
	}
	if rep, err := shed.Report(); rep != nil || !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("shed ticket Report() = %v, %v; want nil, ErrDeadlineExceeded", rep, err)
	}
	if _, err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
