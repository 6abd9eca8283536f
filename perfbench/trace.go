package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/faaspipe/faaspipe/internal/core"
)

// span is one timed call from the benchmark into a layer, or one stage
// of a workflow as core.Listener reports it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Job names the operation the span belongs to: a sort, a pipeline
	// run or a gateway ticket.
	Job string `json:"job,omitempty"`
	// HostStartUS / HostEndUS are microseconds since the tracer began.
	HostStartUS float64 `json:"host_start_us"`
	HostEndUS   float64 `json:"host_end_us"`
	// VirtStartS / VirtEndS are simulated seconds, when the call has a
	// place on the simulated clock.
	VirtStartS *float64 `json:"virt_start_s,omitempty"`
	VirtEndS   *float64 `json:"virt_end_s,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is the untraced run: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	origin time.Time
	spans  []span

	// running is the span of the Sim.Run in progress: calls made from
	// simulated processes nest under it unless given another parent.
	running int

	// jobs maps a workflow name to the span its stage events nest
	// under; stages maps "workflow/stage" to the open stage span.
	jobs   map[string]int
	stages map[string]int

	// stageVS / stageUSD sum each stage's virtual duration and metered
	// cost as the executor reports them.
	stageVS, stageUSD map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		origin:   time.Now(),
		jobs:     make(map[string]int),
		stages:   make(map[string]int),
		stageVS:  make(map[string]float64),
		stageUSD: make(map[string]float64),
	}
}

func (t *tracer) since() float64 {
	return float64(time.Since(t.origin).Nanoseconds()) / 1e3
}

// begin opens a span and returns its id (0 on a nil tracer). A zero
// parent means the Sim.Run in progress, if any.
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	if parent == 0 {
		parent = t.running
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, HostStartUS: t.since()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].HostEndUS = t.since()
}

// virt places span id on the simulated clock.
func (t *tracer) virt(id int, start, end time.Duration) {
	if t == nil || id == 0 {
		return
	}
	s, e := start.Seconds(), end.Seconds()
	t.spans[id-1].VirtStartS, t.spans[id-1].VirtEndS = &s, &e
}

// setRunning marks span id as the Sim.Run in progress (0: none).
func (t *tracer) setRunning(id int) {
	if t != nil {
		t.running = id
	}
}

// job registers span id as the parent of workflow's stage events.
func (t *tracer) job(workflow string, id int) {
	if t == nil {
		return
	}
	t.jobs[workflow] = id
}

var _ core.Listener = (*tracer)(nil)

// StageStarted opens a span for the stage under its workflow's span.
func (t *tracer) StageStarted(workflow, stage string, at time.Duration) {
	id := t.begin("core.stage/"+stage, workflow, t.jobs[workflow])
	t.virt(id, at, at)
	t.stages[workflow+"/"+stage] = id
}

// StageFinished closes the stage's span and adds its metered report.
func (t *tracer) StageFinished(workflow string, rep core.StageReport) {
	key := workflow + "/" + rep.Name
	id := t.stages[key]
	delete(t.stages, key)
	t.end(id)
	t.virt(id, rep.Start, rep.End)
	t.stageVS[rep.Name] += rep.Duration().Seconds()
	t.stageUSD[rep.Name] += rep.Cost.Total()
}

// RunFinished is part of core.Listener; the run's span belongs to the
// caller of Executor.Run.
func (t *tracer) RunFinished(*core.RunReport) {}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes gives, per span name, the host time its spans cover that
// none of their child spans cover. Spans of one name may overlap (the
// stages of concurrent gateway tickets), so coverage is a union of
// intervals, not a sum of durations.
func (t *tracer) selfTimes() []nameTime {
	own := make(map[string][]interval)
	kids := make(map[string][]interval)
	for _, s := range t.spans {
		iv := interval{s.HostStartUS, s.HostEndUS}
		own[s.Name] = append(own[s.Name], iv)
		if s.Parent > 0 {
			p := t.spans[s.Parent-1].Name
			kids[p] = append(kids[p], iv)
		}
	}
	out := make([]nameTime, 0, len(own))
	for n, ivs := range own {
		u := union(ivs)
		self := length(u) - overlap(u, union(kids[n]))
		out = append(out, nameTime{n, self / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// interval is a span's host extent, in microseconds.
type interval struct{ start, end float64 }

// union merges intervals into a sorted list of disjoint ones.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, iv.end)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// length is the total extent of disjoint intervals.
func length(u []interval) float64 {
	var l float64
	for _, iv := range u {
		l += iv.end - iv.start
	}
	return l
}

// overlap is the extent two sorted lists of disjoint intervals share.
func overlap(a, b []interval) float64 {
	var l float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end); hi > lo {
			l += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return l
}

// nameTime is one row of a host-time breakdown.
type nameTime struct {
	Name    string
	Seconds float64
}

func (n nameTime) String() string { return fmt.Sprintf("%-28s %9.4f s", n.Name, n.Seconds) }
