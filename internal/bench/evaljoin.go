package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// EvalJoinSQL is the P6 workload: the paper's canonical two-table equi-join
// (Example 5's shape), which the translator renders as a nested double-for
// FLWOR and the evaluator's planner turns into a hash join.
const EvalJoinSQL = "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"

// DefaultEvalJoinSizes is the per-side cardinality sweep recorded in
// EXPERIMENTS.md (each point joins N customers against N payments).
var DefaultEvalJoinSizes = []int{100, 500, 1000, 2000}

// EvalJoinPoint is one row of the P6 table: the same translated query
// executed by the naive nested-loop pipeline and by the planned pipeline
// over identical data, with the results checked equal.
type EvalJoinPoint struct {
	Left         int     `json:"left"`
	Right        int     `json:"right"`
	Rows         int     `json:"rows"`
	NaiveIters   int     `json:"naive_iters"`
	PlannedIters int     `json:"planned_iters"`
	NaiveNanos   int64   `json:"naive_ns"`
	PlannedNanos int64   `json:"planned_ns"`
	Speedup      float64 `json:"speedup"`
}

// evalJoinEngine registers synthetic CUSTOMERS (left rows) and PAYMENTS
// (right rows) with exact cardinalities under the demo namespaces. Every
// payment's CUSTID hits exactly one customer, so the join yields `right`
// rows while the naive pipeline still enumerates left×right pairs.
func evalJoinEngine(left, right int) *xqeval.Engine {
	customers := make([]*xdm.Element, left)
	for i := 0; i < left; i++ {
		row := xdm.NewElement("CUSTOMERS")
		row.AddChild(xdm.NewTextElement("CUSTOMERID", fmt.Sprintf("%d", 1000+i)))
		row.AddChild(xdm.NewTextElement("CUSTOMERNAME", fmt.Sprintf("Customer %d", i)))
		customers[i] = row
	}
	payments := make([]*xdm.Element, right)
	for j := 0; j < right; j++ {
		row := xdm.NewElement("PAYMENTS")
		row.AddChild(xdm.NewTextElement("PAYMENTID", fmt.Sprintf("%d", j+1)))
		row.AddChild(xdm.NewTextElement("CUSTID", fmt.Sprintf("%d", 1000+j%left)))
		row.AddChild(xdm.NewTextElement("PAYMENT", fmt.Sprintf("%d.%02d", j%900+5, j%100)))
		payments[j] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", customers)
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", payments)
	return e
}

// RunEvalJoin sweeps join cardinality, timing the translated join query
// naive vs planned on identical engines and verifying both pipelines
// produce byte-identical results at every point.
func RunEvalJoin(sizes []int) ([]EvalJoinPoint, error) {
	trans := translator.New(catalog.NewCache(catalog.Demo()))
	trans.Options.Mode = translator.ModeXML
	res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, EvalJoinSQL, nil)
	if err != nil {
		return nil, fmt.Errorf("eval join workload: %w", err)
	}
	plan := xqeval.NewPlan(res.Query)
	ctx := context.Background()

	var out []EvalJoinPoint
	for _, n := range sizes {
		e := evalJoinEngine(n, n)
		// The naive pipeline materializes the full cross product, so large
		// points get a single timed iteration; the planned pipeline is
		// cheap enough to average over several.
		naiveIters := 3
		if n*n >= 250_000 {
			naiveIters = 1
		}
		plannedIters := 10

		var naiveOut xdm.Sequence
		start := time.Now()
		for i := 0; i < naiveIters; i++ {
			naiveOut, err = e.EvalNaiveWithTrace(ctx, res.Query, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("naive eval %dx%d: %w", n, n, err)
			}
		}
		naive := time.Since(start) / time.Duration(naiveIters)

		var plannedOut xdm.Sequence
		start = time.Now()
		for i := 0; i < plannedIters; i++ {
			plannedOut, err = e.EvalPlanWithTrace(ctx, plan, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("planned eval %dx%d: %w", n, n, err)
			}
		}
		planned := time.Since(start) / time.Duration(plannedIters)

		if got, want := xdm.MarshalSequence(plannedOut), xdm.MarshalSequence(naiveOut); got != want {
			return nil, fmt.Errorf("eval join %dx%d: planned and naive results diverge", n, n)
		}
		rows := 0
		if it, err := naiveOut.Singleton(); err == nil {
			if el, ok := it.(*xdm.Element); ok {
				rows = len(el.ChildElements("RECORD"))
			}
		}
		pt := EvalJoinPoint{
			Left: n, Right: n, Rows: rows,
			NaiveIters: naiveIters, PlannedIters: plannedIters,
			NaiveNanos: naive.Nanoseconds(), PlannedNanos: planned.Nanoseconds(),
		}
		if planned > 0 {
			pt.Speedup = float64(naive) / float64(planned)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ReportEvalJoin prints the P6 table.
func ReportEvalJoin(w io.Writer, sizes []int) error {
	fmt.Fprintln(w, "P6  Evaluator join planning: naive nested loop vs hash join")
	fmt.Fprintln(w, "left   right  rows   naive        planned      speedup")
	points, err := RunEvalJoin(sizes)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-6d %-6d %-6d %-12s %-12s %.1fx\n",
			p.Left, p.Right, p.Rows,
			time.Duration(p.NaiveNanos).Round(10*time.Microsecond),
			time.Duration(p.PlannedNanos).Round(10*time.Microsecond),
			p.Speedup)
	}
	return nil
}

// EvalJoinReport is the JSON document WriteEvalJoinJSON produces
// (BENCH_eval.json). It carries two sweeps: the P6 naive-vs-planned join
// table, and the P11 workers axis (morsel-parallel execution of a
// remote-call scan, every point byte-compared against the serial run).
type EvalJoinReport struct {
	Experiment         string              `json:"experiment"`
	SQL                string              `json:"sql"`
	Points             []EvalJoinPoint     `json:"points"`
	ParallelExperiment string              `json:"parallel_experiment,omitempty"`
	ParallelQuery      string              `json:"parallel_query,omitempty"`
	ParallelPoints     []EvalParallelPoint `json:"parallel_points,omitempty"`
}

// WriteEvalJoinJSON runs the join-cardinality sweep and the parallel
// workers sweep and writes both as JSON to path (conventionally
// BENCH_eval.json) — the machine-readable record the planner's
// ≥5×-at-1k×1k and the parallel executor's ≥3×-at-8-workers acceptance
// bars are checked against.
func WriteEvalJoinJSON(path string, sizes []int) error {
	points, err := RunEvalJoin(sizes)
	if err != nil {
		return err
	}
	parPoints, err := RunEvalParallel(DefaultEvalParallelRows, DefaultEvalParallelWorkers)
	if err != nil {
		return err
	}
	doc := EvalJoinReport{
		Experiment:         "P6 evaluator join planning: naive nested loop vs hash join",
		SQL:                EvalJoinSQL,
		Points:             points,
		ParallelExperiment: "P11 morsel-parallel execution: workers sweep over a remote-call scan (byte-identical to serial)",
		ParallelQuery:      EvalParallelQuery,
		ParallelPoints:     parPoints,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
