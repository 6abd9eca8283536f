package des

import (
	"math"
	"sort"
	"time"
)

// Link models a shared transmission medium (a NIC, a storage service's
// backend fabric) with max-min fair bandwidth sharing among concurrent
// transfers, each optionally capped (e.g. a per-connection limit).
//
// Whenever a transfer starts or finishes, every active flow's remaining
// bytes are advanced at its old rate and its rate is recomputed by
// water-filling, so a lone transfer gets the full capacity and n equal
// transfers each get capacity/n (or their cap, whichever is lower).
//
// The link keeps one completion event, not one per flow: each reshare
// schedules only the flow that finishes first, ordered by (completion
// time, remaining bytes, proc name). That is exactly the event a
// per-flow model would fire. Such a model schedules its n events back
// to back, so their sequence numbers are contiguous and their fire
// order is that same ordering; the first one to fire reshares, which
// cancels the rest, so none of the others ever fires. Scheduling only
// the first, at the same point, leaves the relative order of every
// fired event, and the fired-event count, unchanged.
type Link struct {
	sim      *Sim
	capacity float64 // bytes/sec; <= 0 means unlimited
	flows    []*linkFlow
	last     time.Duration // when the flows' remaining bytes were last advanced

	// doneEv is the pending completion event, next the flow it
	// finishes. fireFn is the fire method value, bound once in NewLink
	// so a reshare does not allocate a closure.
	doneEv Event
	next   *linkFlow
	fireFn func()

	// stats
	bytesMoved   float64
	transfersRun int64
}

type linkFlow struct {
	remaining float64
	cap       float64 // per-flow cap; <= 0 means none
	rate      float64
	idx       int // position in Link.flows
	proc      *Proc
	finished  bool
}

// NewLink returns a link with the given capacity in bytes/second.
// capacity <= 0 means the link is unlimited and only per-flow caps (if
// any) constrain transfers.
func NewLink(s *Sim, capacity float64) *Link {
	l := &Link{sim: s, capacity: capacity}
	l.fireFn = l.fire
	return l
}

// Capacity reports the configured capacity (<= 0 for unlimited).
func (l *Link) Capacity() float64 { return l.capacity }

// ActiveFlows reports the number of in-flight transfers.
func (l *Link) ActiveFlows() int { return len(l.flows) }

// BytesMoved reports the total bytes completed over the link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Transfers reports the number of completed transfers.
func (l *Link) Transfers() int64 { return l.transfersRun }

// Transfer moves bytes over the link, blocking p for the modeled
// duration. flowCap (> 0) additionally caps this flow's rate, e.g. to
// model a single TCP connection's ceiling. Zero-byte transfers return
// immediately.
func (l *Link) Transfer(p *Proc, bytes int64, flowCap float64) {
	if bytes <= 0 {
		return
	}
	l.advance()
	f := &linkFlow{
		remaining: float64(bytes),
		cap:       flowCap,
		idx:       len(l.flows),
		proc:      p,
	}
	l.flows = append(l.flows, f)
	l.reshare()
	for !f.finished {
		p.Park()
	}
	l.bytesMoved += float64(bytes)
	l.transfersRun++
}

// advance progresses every flow's remaining byte count to the current
// virtual time at its previous rate.
func (l *Link) advance() {
	now := l.sim.Now()
	elapsed := (now - l.last).Seconds()
	l.last = now
	for _, f := range l.flows {
		if math.IsInf(f.rate, 1) {
			// An uncapped flow on an unlimited link completes
			// instantly regardless of elapsed time.
			f.remaining = 0
			continue
		}
		if elapsed > 0 && f.rate > 0 {
			f.remaining -= elapsed * f.rate
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
}

// reshare recomputes fair-share rates and schedules the link's one
// completion event for the flow that finishes first. Callers advance
// first.
func (l *Link) reshare() {
	l.doneEv.Cancel()
	l.next = nil
	if len(l.flows) == 0 {
		return
	}
	l.setRates()
	now := l.sim.Now()
	var nextAt time.Duration
	for _, f := range l.flows {
		at := now
		if f.remaining > 0.5 && !math.IsInf(f.rate, 1) {
			if f.rate <= 0 {
				// No capacity at all: leave the flow parked; a later
				// membership change will reshare. This only happens with
				// capacity so oversubscribed by caps that waterfill
				// assigned zero, which validated configs cannot produce.
				continue
			}
			// Round up so sub-nanosecond residues still make progress;
			// otherwise a tiny transfer at a huge rate reschedules itself
			// at the same instant forever.
			d := time.Duration(math.Ceil(f.remaining / f.rate * float64(time.Second)))
			if d < time.Nanosecond {
				d = time.Nanosecond
			}
			at = now + d
		}
		if l.next == nil || at < nextAt || at == nextAt && l.before(f, l.next) {
			l.next, nextAt = f, at
		}
	}
	if l.next != nil {
		l.doneEv = l.sim.Schedule(nextAt, l.fireFn)
	}
}

// before orders flows completing at the same instant: fewer remaining
// bytes first, then by proc name.
func (l *Link) before(a, b *linkFlow) bool {
	if a.remaining != b.remaining {
		return a.remaining < b.remaining
	}
	return a.proc.Name() < b.proc.Name()
}

// setRates assigns every flow its max-min fair rate. The two common
// regimes are computed directly, with the same values Waterfill would
// return: on an unlimited link each flow runs at its cap, and when
// every flow is capped and the caps fit within the capacity (with a
// margin far above float rounding) Waterfill takes its cap branch at
// every step. Only a saturated link pays for the ordered water-fill.
func (l *Link) setRates() {
	if l.capacity <= 0 {
		for _, f := range l.flows {
			f.rate = capOrInf(f.cap)
		}
		return
	}
	var sum float64
	for _, f := range l.flows {
		if f.cap <= 0 {
			sum = math.Inf(1)
			break
		}
		sum += f.cap
	}
	if sum <= l.capacity*(1-1e-9) {
		for _, f := range l.flows {
			f.rate = f.cap
		}
		return
	}
	// Waterfill's float sums depend on the order of its input, so keep
	// the (remaining, name) order the rates have always been computed in.
	ordered := append([]*linkFlow(nil), l.flows...)
	sort.Slice(ordered, func(i, j int) bool { return l.before(ordered[i], ordered[j]) })
	caps := make([]float64, len(ordered))
	for i, f := range ordered {
		caps[i] = capOrInf(f.cap)
	}
	for i, r := range Waterfill(l.capacity, caps) {
		ordered[i].rate = r
	}
}

func capOrInf(c float64) float64 {
	if c > 0 {
		return c
	}
	return math.Inf(1)
}

// fire runs the link's completion event.
func (l *Link) fire() { l.finish(l.next) }

func (l *Link) finish(f *linkFlow) {
	// Self-correct rounding: if the flow is not actually done, advance
	// and reschedule.
	l.advance()
	if f.remaining > 0.5 {
		l.reshare()
		return
	}
	f.finished = true
	l.remove(f)
	f.proc.Wake()
	l.reshare()
}

// remove swap-deletes f from the flow slice.
func (l *Link) remove(f *linkFlow) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[f.idx] = moved
	moved.idx = f.idx
	l.flows[last] = nil
	l.flows = l.flows[:last]
}

// Waterfill computes max-min fair rates for flows with the given
// per-flow caps sharing total capacity. capacity <= 0 means unlimited
// (each flow simply gets its cap, or +Inf with no cap). The returned
// slice is parallel to caps.
func Waterfill(capacity float64, caps []float64) []float64 {
	rates := make([]float64, len(caps))
	if len(caps) == 0 {
		return rates
	}
	if capacity <= 0 {
		copy(rates, caps)
		return rates
	}
	type idxCap struct {
		idx int
		cap float64
	}
	order := make([]idxCap, len(caps))
	for i, c := range caps {
		order[i] = idxCap{idx: i, cap: c}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].cap < order[j].cap })
	remaining := capacity
	left := len(order)
	for _, oc := range order {
		fair := remaining / float64(left)
		if oc.cap <= fair {
			rates[oc.idx] = oc.cap
			remaining -= oc.cap
		} else {
			rates[oc.idx] = fair
			remaining -= fair
		}
		left--
	}
	return rates
}
