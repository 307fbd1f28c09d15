package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/faultnet"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/resilient"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
)

// FaultSweepSQL is the P7 workload: the same canonical equi-join as P6,
// executed end to end (translate + evaluate + decode) so injected faults
// hit both the metadata path and the data service calls.
const FaultSweepSQL = EvalJoinSQL

// DefaultFaultRates is the per-call fault-probability sweep recorded in
// EXPERIMENTS.md.
var DefaultFaultRates = []float64{0, 0.01, 0.05, 0.1, 0.2}

// DefaultFaultRuns is queries per arm per rate.
const DefaultFaultRuns = 60

// faultSweepSizes keeps the demo dataset small enough that the sweep
// measures fault handling, not join throughput.
var faultSweepSizes = demo.Sizes{Customers: 30, PaymentsPerCustomer: 2, Orders: 20, ItemsPerOrder: 2}

// faultSweepKinds excludes stalls and panics so the undefended arm — no
// recovery boundary, no deadline — survives to be measured; the remaining
// kinds (transient, permanent, latency, truncation) exercise every
// defense the sweep quantifies.
var faultSweepKinds = []faultnet.Kind{
	faultnet.KindTransient, faultnet.KindPermanent,
	faultnet.KindLatency, faultnet.KindTruncate,
}

// FaultArm is one defended-or-not measurement at a fault rate.
type FaultArm struct {
	OK     int     `json:"ok"`
	Errors int     `json:"errors"`
	Nanos  int64   `json:"ns_per_query"`
	QPS    float64 `json:"qps"`
}

// FaultPoint is one row of the P7 table: identical workload and fault
// schedule, with and without the resilience layer armed.
type FaultPoint struct {
	Rate       float64  `json:"rate"`
	Runs       int      `json:"runs"`
	Undefended FaultArm `json:"undefended"`
	Defended   FaultArm `json:"defended"`
	// Retries is the retry count the defended arm spent at this rate.
	Retries int64 `json:"defended_retries"`
}

// runFaultArm assembles the chaos-wrapped pipeline the facade's
// EnableFaults + EnableResilience would build (this package sits below
// the facade, so it wires the same stack from the parts): demo app →
// fault injection (→ retries) → metadata cache, and the engine
// middlewares in the same inside-out order — then times `runs` queries.
func runFaultArm(rate float64, defended bool, runs int) (FaultArm, error) {
	app, _, engine := demo.Setup(faultSweepSizes)
	inj := faultnet.New(faultnet.Config{
		Seed: 97, Rate: rate,
		Latency: 200 * time.Microsecond,
		Kinds:   faultSweepKinds,
	})
	engine.Use(inj.Middleware())
	var src catalog.Source = inj.Source(app)
	cfg := resilient.Config{
		MaxRetries:       4,
		BaseBackoff:      200 * time.Microsecond,
		BreakerThreshold: 50,
		BreakerCooldown:  5 * time.Millisecond,
	}.WithDefaults()
	if defended {
		engine.Use(resilient.NewEngineGuard(cfg).Middleware())
		src = resilient.NewSource(src, cfg)
	}
	cache := catalog.NewCache(src)
	if defended {
		cache.FreshFor = time.Hour // stale-while-revalidate armed
	}
	trans := translator.New(cache)
	trans.Options.Mode = translator.ModeText
	trans.Options.DefaultCatalog = app.Name

	// Warm the metadata cache outside the timed window, as P3 does.
	if _, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, FaultSweepSQL, nil); err != nil && rate == 0 {
		return FaultArm{}, fmt.Errorf("fault sweep warmup: %w", err)
	}

	query := func() error {
		res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, FaultSweepSQL, nil)
		if err != nil {
			return err
		}
		out, err := engine.EvalWith(res.Query, nil)
		if err != nil {
			return err
		}
		it, err := out.Singleton()
		if err != nil {
			return err
		}
		_, err = resultset.FromText(xdm.StringValue(it), qcache.ResultColumns(res))
		return err
	}

	var arm FaultArm
	start := time.Now()
	for i := 0; i < runs; i++ {
		if err := query(); err != nil {
			arm.Errors++
		} else {
			arm.OK++
		}
	}
	elapsed := time.Since(start)
	arm.Nanos = elapsed.Nanoseconds() / int64(runs)
	if elapsed > 0 {
		arm.QPS = float64(runs) / elapsed.Seconds()
	}
	return arm, nil
}

// RunFaultSweep measures query success rate and throughput across fault
// rates, with the resilience layer disarmed and armed, over the same
// deterministic fault schedule (fixed seed).
func RunFaultSweep(rates []float64, runs int) ([]FaultPoint, error) {
	var out []FaultPoint
	for _, rate := range rates {
		retriesBefore := obsv.Global.Retries.Load()
		undefended, err := runFaultArm(rate, false, runs)
		if err != nil {
			return nil, err
		}
		defended, err := runFaultArm(rate, true, runs)
		if err != nil {
			return nil, err
		}
		out = append(out, FaultPoint{
			Rate: rate, Runs: runs,
			Undefended: undefended,
			Defended:   defended,
			Retries:    obsv.Global.Retries.Load() - retriesBefore,
		})
	}
	return out, nil
}

// ReportFaultSweep prints the P7 table.
func ReportFaultSweep(w io.Writer, rates []float64, runs int) error {
	fmt.Fprintln(w, "P7  Fault sweep: query survival with and without the resilience layer")
	fmt.Fprintln(w, "rate   undefended-ok  defended-ok  undefended   defended     retries")
	points, err := RunFaultSweep(rates, runs)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-6.2f %-14s %-12s %-12s %-12s %d\n",
			p.Rate,
			fmt.Sprintf("%d/%d", p.Undefended.OK, p.Runs),
			fmt.Sprintf("%d/%d", p.Defended.OK, p.Runs),
			time.Duration(p.Undefended.Nanos).Round(10*time.Microsecond),
			time.Duration(p.Defended.Nanos).Round(10*time.Microsecond),
			p.Retries)
	}
	return nil
}

// FaultSweepReport is the JSON document WriteFaultSweepJSON produces
// (BENCH_faults.json).
type FaultSweepReport struct {
	Experiment string       `json:"experiment"`
	SQL        string       `json:"sql"`
	FaultKinds string       `json:"fault_kinds"`
	Points     []FaultPoint `json:"points"`
}

// WriteFaultSweepJSON runs the fault-rate sweep and writes it as JSON to
// path (conventionally BENCH_faults.json) — the machine-readable record
// behind the resilience layer's graceful-degradation claim.
func WriteFaultSweepJSON(path string, rates []float64, runs int) error {
	points, err := RunFaultSweep(rates, runs)
	if err != nil {
		return err
	}
	names := make([]string, len(faultSweepKinds))
	for i, k := range faultSweepKinds {
		names[i] = k.String()
	}
	doc := FaultSweepReport{
		Experiment: "P7 fault sweep: query survival and throughput vs fault rate, defended and undefended",
		SQL:        FaultSweepSQL,
		FaultKinds: strings.Join(names, ","),
		Points:     points,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
