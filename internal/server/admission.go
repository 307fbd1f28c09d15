package server

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/wire"
)

// admission.go replaces the count-only admission semaphore with a
// cost-aware weighted one. Every execute is scored before it runs: the
// compiled artifact's cost estimate (qcache.CompiledQuery.Cost, cache-hot)
// divides by CostPerSlot into a slot weight, so a point lookup weighs 1
// and a large scan-join weighs many. The semaphore's capacity is
// MaxConcurrentQueries slots — the count-only behavior is the special
// case where every query weighs 1.
//
// Three layers of degradation, in order of onset:
//
//  1. Weighted admission — cheap queries keep flowing while an expensive
//     scan holds most of the capacity; an arriving query that does not fit
//     waits in a bounded FIFO queue.
//  2. Deadline-aware queue timeout — a waiter is shed (typed unavailable,
//     Retry-After hint) after AdmissionWait, or sooner when the client's
//     remaining deadline budget is shorter: work that cannot finish inside
//     the caller's deadline is never admitted.
//  3. Brownout — queue overflow and queue timeouts raise a pressure level
//     that halves the admissible weight ceiling per step. Under sustained
//     overload the server progressively refuses the most expensive
//     queries up front (predicted cost, fail-fast, Retry-After = remaining
//     brownout) while weight-1 traffic is never brownout-shed. The level
//     decays one step per BrownoutDecay once pressure events stop.

// admission is the weighted semaphore plus its queue and brownout state.
type admission struct {
	capacity    int64
	costPerSlot int64
	maxWeight   int64
	queueLimit  int
	wait        time.Duration
	decay       time.Duration

	mu        sync.Mutex
	inFlight  int64      // weighted slots held
	queue     *list.List // FIFO of *waiter
	peak      int64
	queuePeak int64

	brownoutLevel int
	maxLevel      int
	lastPressure  time.Time

	shedQueueFull    int64
	shedQueueTimeout int64
	shedBrownout     int64
	brownoutEngaged  int64
}

type waiter struct {
	weight int64
	ready  chan struct{} // closed under admission.mu when granted
}

func newAdmission(cfg Config) *admission {
	a := &admission{
		capacity:    int64(cfg.MaxConcurrentQueries),
		costPerSlot: cfg.CostPerSlot,
		maxWeight:   cfg.MaxQueryWeight,
		queueLimit:  cfg.AdmissionQueue,
		wait:        cfg.AdmissionWait,
		decay:       cfg.BrownoutDecay,
		queue:       list.New(),
	}
	// Brownout bottoms out where the ceiling reaches weight 1: below that
	// there is nothing left to shed by cost.
	for w := a.maxWeight; w > 1; w >>= 1 {
		a.maxLevel++
	}
	return a
}

// weightFor converts a compiled cost estimate into admission slots:
// 1 + (cost-1)/CostPerSlot, clamped to MaxQueryWeight. Cost weighting
// disabled (CostPerSlot < 0) pins every query at weight 1 — the legacy
// count-only behavior.
func (a *admission) weightFor(cost int64) int64 {
	if a.costPerSlot < 0 || cost <= 1 {
		return 1
	}
	w := 1 + (cost-1)/a.costPerSlot
	if w > a.maxWeight {
		w = a.maxWeight
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shedErr builds the typed unavailable a shed query fails fast with.
func shedErr(format string, retryAfter time.Duration, args ...any) error {
	qe := aqerr.Errorf(aqerr.KindUnavailable, "admit", format, args...)
	qe.RetryAfter = retryAfter
	return qe
}

// admit blocks until weight slots are granted, the wait times out, or ctx
// ends. budget is the client's remaining deadline (0 = none): the queue
// wait never exceeds it, so a request that would be admitted only after
// its caller gave up is shed instead.
func (a *admission) admit(ctx context.Context, weight int64, budget time.Duration) error {
	now := time.Now()
	a.mu.Lock()
	a.decayLocked(now)
	if a.brownoutLevel > 0 && weight > a.ceilingLocked() {
		a.shedBrownout++
		retry := a.decay - now.Sub(a.lastPressure)
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		level := a.brownoutLevel
		a.mu.Unlock()
		return shedErr("brownout level %d: predicted cost too high (weight %d > ceiling %d)",
			retry, level, weight, a.ceiling(level))
	}
	if a.queue.Len() == 0 && a.inFlight+weight <= a.capacity {
		a.grantDirectLocked(weight)
		a.mu.Unlock()
		return nil
	}
	if a.queue.Len() >= a.queueLimit {
		a.shedQueueFull++
		a.raisePressureLocked(now)
		a.mu.Unlock()
		return shedErr("admission queue full (%d waiting)", a.wait, a.queueLimit)
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	el := a.queue.PushBack(w)
	if d := int64(a.queue.Len()); d > a.queuePeak {
		a.queuePeak = d
	}
	a.mu.Unlock()

	wait := a.wait
	deadlineShed := false
	if budget > 0 && budget < wait {
		wait = budget
		deadlineShed = true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-w.ready:
		return nil
	case <-t.C:
		if !a.abandonWaiter(el, w, true) {
			return nil // granted while the timer fired
		}
		if deadlineShed {
			// The client's budget ran out first: its deadline is the real
			// failure, not server capacity.
			return aqerr.Wrap("admit", context.DeadlineExceeded)
		}
		return shedErr("admission timed out after %v (server saturated)", a.wait, wait)
	case <-ctx.Done():
		if !a.abandonWaiter(el, w, false) {
			return nil
		}
		return aqerr.Wrap("admit", ctx.Err())
	}
}

// abandonWaiter removes a timed-out or cancelled waiter from the queue.
// Returns false when the grant won the race — the caller holds its slots
// and must proceed. pressure marks the abandonment as an overload signal
// (queue timeout) rather than a caller cancellation.
func (a *admission) abandonWaiter(el *list.Element, w *waiter, pressure bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	select {
	case <-w.ready:
		return false
	default:
	}
	a.queue.Remove(el)
	if pressure {
		a.shedQueueTimeout++
		a.raisePressureLocked(time.Now())
	}
	// Removing a heavy queue head may unblock lighter successors.
	a.grantQueueLocked()
	return true
}

// grantDirectLocked books weight slots for an immediately admitted query.
func (a *admission) grantDirectLocked(weight int64) {
	a.inFlight += weight
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
}

// grantQueueLocked admits queued waiters FIFO while they fit.
func (a *admission) grantQueueLocked() {
	for a.queue.Len() > 0 {
		front := a.queue.Front()
		w := front.Value.(*waiter)
		if a.inFlight+w.weight > a.capacity {
			return
		}
		a.queue.Remove(front)
		a.grantDirectLocked(w.weight)
		close(w.ready)
	}
}

// release returns weight slots and wakes whatever now fits.
func (a *admission) release(weight int64) {
	a.mu.Lock()
	a.inFlight -= weight
	a.grantQueueLocked()
	a.mu.Unlock()
}

// ceilingLocked is the maximum admissible weight at the current brownout
// level; weight-1 queries always pass.
func (a *admission) ceilingLocked() int64 { return a.ceiling(a.brownoutLevel) }

func (a *admission) ceiling(level int) int64 {
	c := a.maxWeight >> level
	if c < 1 {
		c = 1
	}
	return c
}

// raisePressureLocked records one overload event (queue overflow or queue
// timeout): the brownout level steps up, at most once per decay interval
// so a single burst of timeouts counts as one escalation, not fifty.
func (a *admission) raisePressureLocked(now time.Time) {
	if !a.lastPressure.IsZero() && now.Sub(a.lastPressure) < a.decay/4 && a.brownoutLevel > 0 {
		a.lastPressure = now
		return
	}
	if a.brownoutLevel < a.maxLevel {
		a.brownoutLevel++
		a.brownoutEngaged++
	}
	a.lastPressure = now
}

// decayLocked steps the brownout level down once per quiet decay interval.
func (a *admission) decayLocked(now time.Time) {
	if a.brownoutLevel == 0 || a.decay <= 0 {
		return
	}
	for a.brownoutLevel > 0 && now.Sub(a.lastPressure) >= a.decay {
		a.brownoutLevel--
		a.lastPressure = a.lastPressure.Add(a.decay)
	}
	if a.brownoutLevel == 0 {
		a.lastPressure = time.Time{}
	}
}

// stats fills the admission half of the server's counter block.
func (a *admission) stats(st *wire.ServerStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.decayLocked(time.Now())
	st.WeightedInFlight, st.WeightedCapacity, st.WeightedPeak = a.inFlight, a.capacity, a.peak
	st.QueueDepth, st.QueuePeak = int64(a.queue.Len()), a.queuePeak
	st.ShedQueueFull, st.ShedQueueTimeout, st.ShedBrownout = a.shedQueueFull, a.shedQueueTimeout, a.shedBrownout
	st.BrownoutLevel, st.BrownoutEngaged = int64(a.brownoutLevel), a.brownoutEngaged
}
