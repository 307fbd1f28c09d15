package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/sqlparser"
	"repro/internal/translator"
)

// StageClassPoint is one row of the P5 experiment: cumulative per-stage
// wall time for one workload class, recorded through the observability
// layer's stage hooks rather than end-to-end timers — the breakdown that
// shows where a query class actually spends its time.
type StageClassPoint struct {
	Name  string `json:"class"`
	Iters int    `json:"iters"`
	// StageNanos maps stage name → cumulative nanoseconds across all
	// iterations (translation stages plus evaluate).
	StageNanos map[string]int64 `json:"stage_nanos"`
	// Detail carries one representative translation's stage detail
	// (contexts, tables, wildcards, variables, evaluator steps).
	Detail map[string]int64 `json:"detail"`
}

// TotalNanos sums the point's stages.
func (p StageClassPoint) TotalNanos() int64 {
	var n int64
	for _, v := range p.StageNanos {
		n += v
	}
	return n
}

// RunStageBreakdown translates and evaluates every workload class iters
// times with a stage trace attached, accumulating per-stage wall time.
func RunStageBreakdown(iters int) ([]StageClassPoint, error) {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	trans := translator.New(catalog.NewCache(app))
	var out []StageClassPoint
	for _, q := range TranslationWorkload {
		// Warm up metadata and surface errors before measuring.
		if _, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		pt := StageClassPoint{
			Name:       q.Name,
			Iters:      iters,
			StageNanos: map[string]int64{},
			Detail:     map[string]int64{},
		}
		for i := 0; i < iters; i++ {
			tr := obsv.NewTrace(q.SQL)
			res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, q.SQL, tr)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Name, err)
			}
			if _, err := engine.EvalWithTrace(context.Background(), res.Query, nil, tr); err != nil {
				return nil, fmt.Errorf("%s: evaluate: %w", q.Name, err)
			}
			tr.MergeStageNanos(pt.StageNanos)
			if i == 0 {
				for _, ev := range tr.Stages() {
					for _, d := range ev.Detail {
						pt.Detail[d.Key] += d.Value
					}
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// ReportStageBreakdown prints the P5 table: mean per-stage time per class.
func ReportStageBreakdown(w io.Writer) error {
	const iters = 50
	fmt.Fprintln(w, "P5  Per-stage pipeline breakdown (obsv stage traces)")
	points, err := RunStageBreakdown(iters)
	if err != nil {
		return err
	}
	stages := []string{}
	for st := obsv.Stage(0); st < obsv.NumStages; st++ {
		stages = append(stages, st.String())
	}
	fmt.Fprintf(w, "%-10s", "class")
	for _, s := range stages {
		fmt.Fprintf(w, " %-12s", s)
	}
	fmt.Fprintf(w, " %s\n", "total")
	for _, p := range points {
		fmt.Fprintf(w, "%-10s", p.Name)
		for _, s := range stages {
			mean := time.Duration(p.StageNanos[s] / int64(p.Iters))
			fmt.Fprintf(w, " %-12s", mean.Round(100*time.Nanosecond))
		}
		fmt.Fprintf(w, " %s\n", time.Duration(p.TotalNanos()/int64(p.Iters)).Round(100*time.Nanosecond))
	}
	return nil
}

// StageReport is the JSON document WriteStageJSON produces (BENCH_stages.json).
type StageReport struct {
	Experiment string            `json:"experiment"`
	Iters      int               `json:"iters"`
	Classes    []StageClassPoint `json:"classes"`
}

// WriteStageJSON runs the stage breakdown and writes it as JSON to path
// (conventionally BENCH_stages.json) — the machine-readable form later
// perf PRs diff against.
func WriteStageJSON(path string, iters int) error {
	points, err := RunStageBreakdown(iters)
	if err != nil {
		return err
	}
	doc := StageReport{Experiment: "P5 per-stage pipeline breakdown", Iters: iters, Classes: points}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
