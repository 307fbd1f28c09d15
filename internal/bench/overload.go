// overload.go is the P12 experiment: end-to-end overload resilience.
// A fleet of closed-loop clients offers the server twice its weighted
// admission capacity, sustained. The contract under that abuse has
// three clauses, each measured here: queries the server accepts keep a
// bounded tail (p99 within a small multiple of the uncontended p99 —
// overload slows admitted work, it does not collapse it), queries the
// server sheds fail fast with a typed unavailable inside the admission
// deadline (never a hang, never an untyped error), and when the fleet
// drains, not one goroutine survives.
//
// The sweep runs two phases against separately configured servers. The
// uncontended phase measures the workload's natural p99 at half
// capacity; the overload phase then sets the admission deadline to 2×
// that figure — the deadline-aware queue bounds every accepted query's
// wait, so accepted p99 ≤ uncontended p99 + deadline ≈ 3× uncontended
// by construction, and everything that cannot start inside the
// deadline is shed instead of served late.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/qfront"
	"repro/internal/remoteclient"
	"repro/internal/server"
	"repro/internal/translator"
	"repro/internal/wire"
)

// Default shape of the P12 sweep. Capacity is deliberately small: the
// point of admission control is to pin in-flight work at what the box
// can actually serve, and the benchmark box may have a single core —
// both phases then run the same admitted concurrency and the comparison
// isolates queueing + shedding overhead, not CPU sharing.
const (
	DefaultOverloadCapacity = 2
	DefaultOverloadOps      = 40
)

// The overload mix: an aggregate join interleaved with point lookups.
// Which one the server's cost model scores heavier is decided at run
// time (lazy scan observation re-costs statements as the warm-up phase
// executes them), so the sweep calibrates CostPerSlot after phase 1
// from the settled estimates rather than assuming a ranking.
const (
	overloadReportSQL = serveReportSQL
	overloadPointSQL  = servePointSQL
)

// OverloadPhase is one phase's measured outcome.
type OverloadPhase struct {
	Name    string `json:"name"`
	Clients int    `json:"clients"`
	Ops     int    `json:"ops"`
	// Accepted ops completed normally; Shed ops failed fast with a typed
	// unavailable (or deadline) error. Untyped counts everything else —
	// the acceptance number is zero.
	Accepted     int    `json:"accepted"`
	Shed         int    `json:"shed"`
	Untyped      int    `json:"untyped"`
	FirstUntyped string `json:"first_untyped,omitempty"`
	DurationNS   int64  `json:"duration_ns"`

	AcceptedP50NS int64 `json:"accepted_p50_ns"`
	AcceptedP99NS int64 `json:"accepted_p99_ns"`
	AcceptedMaxNS int64 `json:"accepted_max_ns"`
	// Shed latency is time-to-typed-failure: how long a rejected caller
	// waited to learn it was rejected.
	ShedP50NS int64 `json:"shed_p50_ns"`
	ShedP99NS int64 `json:"shed_p99_ns"`
	ShedMaxNS int64 `json:"shed_max_ns"`
}

// OverloadReport is the whole P12 run.
type OverloadReport struct {
	Experiment string `json:"experiment"`
	// Capacity is the weighted admission capacity (slots); the overload
	// phase offers 2× that in closed-loop clients.
	Capacity        int   `json:"capacity"`
	AdmissionWaitNS int64 `json:"admission_wait_ns"`

	// Calibration read back from the server's own settled cost estimates
	// after the warm-up phase: the heavier statement's compiled cost and
	// admission weight versus the cheaper statement's (always weight 1).
	CostPerSlot int64 `json:"cost_per_slot"`
	HeavyCost   int64 `json:"heavy_cost"`
	CheapCost   int64 `json:"cheap_cost"`
	HeavyWeight int64 `json:"heavy_weight"`
	HeavyIsJoin bool  `json:"heavy_is_join"`

	Uncontended OverloadPhase `json:"uncontended"`
	Overload    OverloadPhase `json:"overload"`

	// AcceptedP99Ratio is overload accepted p99 over uncontended p99 —
	// the bounded-tail clause; the recorded acceptance bound is 3.
	AcceptedP99Ratio float64 `json:"accepted_p99_ratio"`

	GoroutineBaseline int `json:"goroutine_baseline"`
	GoroutinePeak     int `json:"goroutine_peak"`
	GoroutinesLeaked  int `json:"goroutines_leaked"`
	// Overload-phase server counters: the shed split by reason and the
	// brownout level live here.
	Server wire.ServerStats `json:"server"`
}

// runOverloadPhase drives clients closed-loop clients (each its own wire
// session, retries disabled so every shed is observed raw) for
// opsPerClient ops of the report/point mix.
func runOverloadPhase(h http.Handler, name string, clients, opsPerClient int) (OverloadPhase, error) {
	type sample struct {
		accepted []int64
		shed     []int64
		untyped  int
		first    string
	}
	all := make([]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			s := &all[ci]
			c, err := remoteclient.LoopbackOptions(h, remoteclient.Options{MaxRetries: -1})
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d: handshake: %w", ci, err)
				}
				errMu.Unlock()
				return
			}
			defer c.Close()
			for i := 0; i < opsPerClient; i++ {
				sql, args := overloadPointSQL, []any{1000 + (ci+i)%50}
				if (ci+i)%3 == 0 {
					sql, args = overloadReportSQL, nil
				}
				t0 := time.Now()
				err := serveDrain(c.Query(context.Background(), sql, args...))
				lat := time.Since(t0).Nanoseconds()
				switch {
				case err == nil:
					s.accepted = append(s.accepted, lat)
				case isTypedShed(err):
					s.shed = append(s.shed, lat)
				default:
					s.untyped++
					if s.first == "" {
						s.first = err.Error()
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return OverloadPhase{}, firstErr
	}

	var accepted, shed []int64
	untyped := 0
	first := ""
	for i := range all {
		accepted = append(accepted, all[i].accepted...)
		shed = append(shed, all[i].shed...)
		untyped += all[i].untyped
		if first == "" {
			first = all[i].first
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	sort.Slice(shed, func(i, j int) bool { return shed[i] < shed[j] })
	p := OverloadPhase{
		Name: name, Clients: clients, Ops: clients * opsPerClient,
		Accepted: len(accepted), Shed: len(shed), Untyped: untyped, FirstUntyped: first,
		DurationNS:    elapsed.Nanoseconds(),
		AcceptedP50NS: quantileNS(accepted, 0.50),
		AcceptedP99NS: quantileNS(accepted, 0.99),
		ShedP50NS:     quantileNS(shed, 0.50),
		ShedP99NS:     quantileNS(shed, 0.99),
	}
	if n := len(accepted); n > 0 {
		p.AcceptedMaxNS = accepted[n-1]
	}
	if n := len(shed); n > 0 {
		p.ShedMaxNS = shed[n-1]
	}
	return p, nil
}

// isTypedShed reports whether err is an acceptable overload outcome: a
// typed unavailable (admission shed, brownout) or a typed deadline
// failure. Anything else under pure overload — no fault injection here —
// is a defense gap.
func isTypedShed(err error) bool {
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) {
		return false
	}
	return qe.Kind == aqerr.KindUnavailable || qe.Kind == aqerr.KindTimeout
}

// RunOverloadSweep runs the P12 overload study against b with the given
// weighted admission capacity.
func RunOverloadSweep(b server.Backend, capacity, opsPerClient int) (*OverloadReport, error) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	var peakGoroutines int
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > peakGoroutines {
					peakGoroutines = n
				}
			}
		}
	}()
	stopSampler := func() {
		close(samplerStop)
		<-samplerDone
	}

	// Phase 1 — uncontended: as many clients as the server will admit at
	// once, generous admission deadline, no sheds expected. This
	// calibrates the workload's p99 at exactly the concurrency the
	// overload phase is allowed to run (so the ratio isolates
	// queueing + shedding overhead), and warms the engine's lazy scan
	// statistics so phase 2 sees settled cost estimates.
	uncontendedSrv := server.New(b, server.Config{
		MaxConcurrentQueries: capacity,
		CostPerSlot:          -1, // count-only: phase 1 measures the workload, not the policy
		AdmissionWait:        10 * time.Second,
		SessionIdleTimeout:   time.Minute,
		FetchRows:            64,
	})
	uncontended, err := runOverloadPhase(uncontendedSrv.Handler(), "uncontended", capacity, opsPerClient)
	uncontendedSrv.Close()
	if err != nil {
		stopSampler()
		return nil, err
	}

	// Cost calibration, from the same compile cache phase 2's server will
	// hit: one admission slot per cheapest-statement cost, so the cheap
	// class weighs 1 and the heavy class ≥2 — the discrimination
	// cost-aware admission and brownout act on. Which statement is heavy
	// is the cost model's call, read back here, not assumed.
	costOf := func(sql string) int64 {
		cq, cerr := b.CompileDialect(context.Background(), qfront.DialectSQL, sql, translator.ModeText)
		if cerr != nil {
			return 1
		}
		return cq.Cost()
	}
	reportCost, pointCost := costOf(overloadReportSQL), costOf(overloadPointSQL)
	heavyCost, cheapCost := reportCost, pointCost
	if pointCost > reportCost {
		heavyCost, cheapCost = pointCost, reportCost
	}
	costPerSlot := cheapCost + 1
	heavyWeight := 1 + (heavyCost-1)/costPerSlot
	if heavyWeight > int64(capacity) {
		heavyWeight = int64(capacity)
	}

	// Phase 2 — sustained 2× overload. The admission deadline is 2× the
	// uncontended p99 (floored so tiny workloads don't round it to
	// nothing): every accepted query waited at most that long before
	// starting, bounding accepted p99 at ~3× uncontended, and everything
	// that could not start inside it is shed instead of served late.
	wait := 2 * time.Duration(uncontended.AcceptedP99NS)
	if wait < 5*time.Millisecond {
		wait = 5 * time.Millisecond
	}
	// The queue holds half the capacity: at 2× closed-loop load the line
	// is always longer than that, so the excess is genuinely shed
	// (queue-full, then brownout once pressure registers) rather than
	// parked — a queue sized to absorb the whole overload would just
	// relabel the latency.
	queue := capacity / 2
	if queue < 1 {
		queue = 1
	}
	overloadSrv := server.New(b, server.Config{
		MaxConcurrentQueries: capacity,
		CostPerSlot:          costPerSlot,
		MaxQueryWeight:       int64(capacity),
		AdmissionWait:        wait,
		AdmissionQueue:       queue,
		BrownoutDecay:        100 * time.Millisecond,
		SessionIdleTimeout:   time.Minute,
		FetchRows:            64,
	})
	overload, err := runOverloadPhase(overloadSrv.Handler(), "overload 2x", capacity*2, opsPerClient)
	stats := overloadSrv.Stats()
	overloadSrv.Close()
	stopSampler()
	if err != nil {
		return nil, err
	}

	// Drain check: the acceptance number is zero goroutines leaked.
	leaked := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		leaked = runtime.NumGoroutine() - baseline
		if leaked <= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leaked < 0 {
		leaked = 0
	}

	ratio := 0.0
	if uncontended.AcceptedP99NS > 0 {
		ratio = float64(overload.AcceptedP99NS) / float64(uncontended.AcceptedP99NS)
	}
	return &OverloadReport{
		Experiment:        "P12 overload resilience: sustained 2x load vs cost-aware admission, deadline queue, brownout",
		Capacity:          capacity,
		AdmissionWaitNS:   wait.Nanoseconds(),
		CostPerSlot:       costPerSlot,
		HeavyCost:         heavyCost,
		CheapCost:         cheapCost,
		HeavyWeight:       heavyWeight,
		HeavyIsJoin:       reportCost >= pointCost,
		Uncontended:       uncontended,
		Overload:          overload,
		AcceptedP99Ratio:  ratio,
		GoroutineBaseline: baseline,
		GoroutinePeak:     peakGoroutines,
		GoroutinesLeaked:  leaked,
		Server:            stats,
	}, nil
}

// ReportOverload prints the P12 table.
func ReportOverload(w io.Writer, r *OverloadReport) {
	fmt.Fprintf(w, "\nP12 — overload resilience (capacity %d slots, admission deadline %s)\n",
		r.Capacity, time.Duration(r.AdmissionWaitNS))
	heavy := "point lookup"
	if r.HeavyIsJoin {
		heavy = "aggregate join"
	}
	fmt.Fprintf(w, "cost calibration: heavy class = %s (cost %d, weight %d); cheap cost %d, %d cost units/slot\n",
		heavy, r.HeavyCost, r.HeavyWeight, r.CheapCost, r.CostPerSlot)
	fmt.Fprintf(w, "%-12s %7s %7s %7s %7s %12s %12s %12s %12s\n",
		"phase", "clients", "accept", "shed", "untyped", "acc p50", "acc p99", "shed p50", "shed p99")
	for _, p := range []OverloadPhase{r.Uncontended, r.Overload} {
		fmt.Fprintf(w, "%-12s %7d %7d %7d %7d %12s %12s %12s %12s\n",
			p.Name, p.Clients, p.Accepted, p.Shed, p.Untyped,
			time.Duration(p.AcceptedP50NS), time.Duration(p.AcceptedP99NS),
			time.Duration(p.ShedP50NS), time.Duration(p.ShedP99NS))
		if p.FirstUntyped != "" {
			fmt.Fprintf(w, "             first untyped: %s\n", p.FirstUntyped)
		}
	}
	fmt.Fprintf(w, "accepted p99 under 2x overload = %.2fx uncontended (acceptance bound 3x)\n", r.AcceptedP99Ratio)
	fmt.Fprintf(w, "sheds by reason: queue-full=%d queue-timeout=%d brownout=%d (brownout level at end: %d)\n",
		r.Server.ShedQueueFull, r.Server.ShedQueueTimeout, r.Server.ShedBrownout, r.Server.BrownoutLevel)
	fmt.Fprintf(w, "goroutines: baseline %d, peak %d, leaked after drain %d\n",
		r.GoroutineBaseline, r.GoroutinePeak, r.GoroutinesLeaked)
}

// WriteOverloadJSON runs the P12 sweep and writes it as machine-readable
// JSON (conventionally BENCH_overload.json).
func WriteOverloadJSON(path string, b server.Backend, capacity, opsPerClient int) error {
	r, err := RunOverloadSweep(b, capacity, opsPerClient)
	if err != nil {
		return err
	}
	ReportOverload(os.Stdout, r)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
