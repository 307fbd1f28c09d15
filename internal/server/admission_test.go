package server

// White-box tests for the weighted admission semaphore: cost→weight
// conversion, queue overflow and timeout sheds (typed, with Retry-After),
// deadline-budget truncation of the queue wait, and the brownout ladder —
// heavy queries shed under pressure while weight-1 traffic always flows,
// and the level decays once pressure stops.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/wire"
)

// admissionConfig mirrors what server.New hands newAdmission after
// normalization: every field explicit, no zero-default surprises.
func admissionConfig() Config {
	return Config{
		MaxConcurrentQueries: 4,
		CostPerSlot:          1000,
		MaxQueryWeight:       4,
		AdmissionWait:        20 * time.Millisecond,
		AdmissionQueue:       2,
		BrownoutDecay:        50 * time.Millisecond,
	}
}

func TestWeightForConversion(t *testing.T) {
	a := newAdmission(admissionConfig())
	cases := []struct {
		cost, want int64
	}{
		{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2},
		{2500, 3}, {3001, 4},
		{1 << 40, 4}, // clamped at MaxQueryWeight
	}
	for _, c := range cases {
		if got := a.weightFor(c.cost); got != c.want {
			t.Errorf("weightFor(%d) = %d, want %d", c.cost, got, c.want)
		}
	}

	countOnly := admissionConfig()
	countOnly.CostPerSlot = -1
	a = newAdmission(countOnly)
	if got := a.weightFor(1 << 40); got != 1 {
		t.Errorf("count-only weightFor = %d, want 1", got)
	}
}

// shedKind asserts err is a typed unavailable with a positive Retry-After
// hint — the contract every shed must satisfy so clients can back off.
func shedKind(t *testing.T, err error, what string) *aqerr.QueryError {
	t.Helper()
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("%s: %v, want unavailable QueryError", what, err)
	}
	if aqerr.RetryAfterHint(err) <= 0 {
		t.Fatalf("%s: no Retry-After hint on %v", what, err)
	}
	return qe
}

func TestQueueFullShedsTyped(t *testing.T) {
	a := newAdmission(admissionConfig())
	ctx := context.Background()
	// Saturate capacity so later arrivals queue.
	if err := a.admit(ctx, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Fill the queue with parked waiters.
	parked := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { parked <- a.admit(ctx, 1, 0) }()
	}
	waitForQueueDepth(t, a, 2)

	start := time.Now()
	err := a.admit(ctx, 1, 0)
	shedKind(t, err, "queue-full admit")
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("queue-full shed took %v, want immediate", d)
	}

	// The parked waiters shed on timeout, also typed.
	for i := 0; i < 2; i++ {
		shedKind(t, <-parked, "queue-timeout admit")
	}
	st := admissionStats(a)
	full, timeout := st.ShedQueueFull, st.ShedQueueTimeout
	if full != 1 || timeout != 2 {
		t.Fatalf("shed counters full=%d timeout=%d, want 1/2", full, timeout)
	}
	a.release(4)
}

// admissionStats reads the admission half of the server's counter block.
func admissionStats(a *admission) wire.ServerStats {
	var st wire.ServerStats
	a.stats(&st)
	return st
}

func waitForQueueDepth(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		n := a.queue.Len()
		a.mu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetTruncatesWait pins deadline-budget propagation into the
// queue: a caller whose remaining budget is shorter than AdmissionWait
// waits only its budget, and the failure is its deadline (timeout kind,
// errors.Is DeadlineExceeded), not server capacity.
func TestBudgetTruncatesWait(t *testing.T) {
	cfg := admissionConfig()
	cfg.AdmissionWait = 5 * time.Second // queue wait alone would be slow
	a := newAdmission(cfg)
	if err := a.admit(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.admit(context.Background(), 1, 10*time.Millisecond)
	elapsed := time.Since(start)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
		t.Fatalf("budget-bounded admit: %v, want timeout QueryError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget-bounded admit: %v, want errors.Is(DeadlineExceeded)", err)
	}
	if elapsed > time.Second {
		t.Fatalf("budget 10ms waited %v", elapsed)
	}
	a.release(4)
}

// TestBrownoutShedsHeavyKeepsCheap pins the degradation ladder: after a
// pressure event the heavy class sheds immediately with a typed error
// naming the level, weight-1 queries still admit, and a quiet decay
// interval restores full service.
func TestBrownoutShedsHeavyKeepsCheap(t *testing.T) {
	a := newAdmission(admissionConfig())
	a.mu.Lock()
	a.raisePressureLocked(time.Now())
	level := a.brownoutLevel
	a.mu.Unlock()
	if level != 1 {
		t.Fatalf("level after one pressure event = %d, want 1", level)
	}

	// Heavy (weight 3 > ceiling 2 at level 1) sheds instantly.
	start := time.Now()
	err := a.admit(context.Background(), 3, 0)
	shedKind(t, err, "brownout admit")
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("brownout shed took %v, want immediate", d)
	}

	// Weight-1 traffic is never brownout-shed.
	if err := a.admit(context.Background(), 1, 0); err != nil {
		t.Fatalf("weight-1 under brownout: %v", err)
	}
	a.release(1)

	brown := admissionStats(a).ShedBrownout
	if brown != 1 {
		t.Fatalf("shedBrownout = %d, want 1", brown)
	}

	// After a full quiet decay interval the heavy class admits again.
	a.mu.Lock()
	a.lastPressure = time.Now().Add(-time.Second)
	a.mu.Unlock()
	if err := a.admit(context.Background(), 3, 0); err != nil {
		t.Fatalf("heavy after decay: %v", err)
	}
	a.release(3)
	lvl := admissionStats(a).BrownoutLevel
	if lvl != 0 {
		t.Fatalf("level after decay = %d, want 0", lvl)
	}
}

// TestBrownoutCeilingFloor pins the ladder bottom: the level never rises
// past the point where the ceiling reaches weight 1 — below that there is
// nothing left to shed by cost.
func TestBrownoutCeilingFloor(t *testing.T) {
	a := newAdmission(admissionConfig()) // maxWeight 4 → maxLevel 2
	if a.maxLevel != 2 {
		t.Fatalf("maxLevel = %d, want 2", a.maxLevel)
	}
	now := time.Now()
	a.mu.Lock()
	for i := 0; i < 10; i++ {
		// Space the events out past decay/4 so each one escalates.
		a.raisePressureLocked(now.Add(time.Duration(i) * time.Hour))
	}
	level := a.brownoutLevel
	ceiling := a.ceilingLocked()
	a.mu.Unlock()
	if level != 2 || ceiling != 1 {
		t.Fatalf("saturated ladder: level=%d ceiling=%d, want 2/1", level, ceiling)
	}
}

// TestWeightedReleaseWakesQueue pins FIFO hand-off: releasing a heavy
// grant admits the parked waiters in order, and the weighted gauge
// returns to zero when everything releases.
func TestWeightedReleaseWakesQueue(t *testing.T) {
	a := newAdmission(admissionConfig())
	ctx := context.Background()
	if err := a.admit(ctx, 4, 0); err != nil {
		t.Fatal(err)
	}
	granted := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if err := a.admit(ctx, 2, 0); err == nil {
				granted <- i
			} else {
				granted <- -1
			}
		}()
		waitForQueueDepth(t, a, i+1)
	}
	a.release(4) // both weight-2 waiters fit at once
	for i := 0; i < 2; i++ {
		if got := <-granted; got == -1 {
			t.Fatal("queued waiter shed instead of granted after release")
		}
	}
	a.release(2)
	a.release(2)
	st := admissionStats(a)
	inFlight, peak := st.WeightedInFlight, st.WeightedPeak
	if inFlight != 0 || peak != 4 {
		t.Fatalf("after full release: inFlight=%d peak=%d, want 0/4", inFlight, peak)
	}
}
