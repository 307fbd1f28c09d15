package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// StreamSweepSQL is the P9 workload: a projection scan whose result grows
// linearly with the table, §4 text mode — the shape where time-to-first-row
// and result-set footprint separate the two delivery disciplines most
// cleanly (no join or sort stage to mask the pipeline itself).
const StreamSweepSQL = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"

// DefaultStreamRows is the row-count sweep recorded in EXPERIMENTS.md.
var DefaultStreamRows = []int{1, 10000, 100000}

// StreamPoint is one row of the P9 experiment, comparing the pull-cursor
// delivery path against the materialize-then-decode path on the same
// compiled plan.
type StreamPoint struct {
	Rows int `json:"rows"`
	// Time to first row: query start until the first decoded row is in the
	// caller's hands.
	StreamTTFRNS       int64 `json:"stream_ttfr_ns"`
	MaterializedTTFRNS int64 `json:"materialized_ttfr_ns"`
	// Total latency: query start until the last row has been consumed.
	StreamTotalNS       int64 `json:"stream_total_ns"`
	MaterializedTotalNS int64 `json:"materialized_total_ns"`
	// Live-heap high-water mark of result delivery: bytes pinned with the
	// full materialized result held versus bytes in flight halfway through
	// a streamed consumption (both GC-settled deltas over a quiet baseline).
	StreamLiveHeapBytes       int64 `json:"stream_live_heap_bytes"`
	MaterializedLiveHeapBytes int64 `json:"materialized_live_heap_bytes"`
	// TTFRSpeedup is materialized_ttfr_ns / stream_ttfr_ns — how much
	// sooner the first row reaches the client on the cursor path.
	TTFRSpeedup float64 `json:"ttfr_speedup"`
}

// streamBenchEnv is one compiled setup: an engine over a customers-only
// dataset of the requested cardinality plus the compiled artifact.
type streamBenchEnv struct {
	engine *xqeval.Engine
	cq     *qcache.CompiledQuery
	cols   []resultset.Column
}

func newStreamBenchEnv(rows int) (*streamBenchEnv, error) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: rows, PaymentsPerCustomer: 0, Orders: 1, ItemsPerOrder: 1})
	trans := translator.New(catalog.NewCache(app))
	trans.Options.DefaultCatalog = app.Name
	trans.Options.Mode = translator.ModeText
	cq, err := qcache.Compile(context.Background(), trans, engine, sqlparser.Front{}, StreamSweepSQL, obsv.NewTrace(StreamSweepSQL))
	if err != nil {
		return nil, err
	}
	if !cq.Streamable() {
		return nil, fmt.Errorf("P9 workload did not plan as streamable")
	}
	return &streamBenchEnv{engine: engine, cq: cq, cols: cq.Columns()}, nil
}

// runMaterialized is the pre-cursor delivery path: evaluate the plan to
// completion, decode the whole §4 text payload, then iterate. Returns the
// result set (for heap pinning), time to first row, and total time.
func (env *streamBenchEnv) runMaterialized() (*resultset.Rows, time.Duration, time.Duration, error) {
	start := time.Now()
	out, err := env.engine.EvalPlanWithTrace(context.Background(), env.cq.Plan, nil, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	it, err := out.Singleton()
	if err != nil {
		return nil, 0, 0, err
	}
	r, err := resultset.FromText(xdm.StringValue(it), env.cols)
	if err != nil {
		return nil, 0, 0, err
	}
	if !r.Next() {
		return nil, 0, 0, fmt.Errorf("materialized result is empty")
	}
	ttfr := time.Since(start)
	for r.Next() {
	}
	return r, ttfr, time.Since(start), nil
}

// runStreamed is the cursor path: rows decode one pull at a time out of a
// still-running evaluation. consume is called once per decoded row (with
// the 1-based row index) so callers can sample mid-stream state.
func (env *streamBenchEnv) runStreamed(consume func(i int)) (time.Duration, time.Duration, error) {
	start := time.Now()
	cur := env.engine.EvalStream(context.Background(), env.cq.Plan, nil, nil)
	rc := resultset.StreamText(cur, env.cols)
	defer rc.Close()
	var ttfr time.Duration
	n := 0
	for {
		_, err := rc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		n++
		if n == 1 {
			ttfr = time.Since(start)
		}
		if consume != nil {
			consume(n)
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("streamed result is empty")
	}
	return ttfr, time.Since(start), nil
}

// liveHeap returns the GC-settled heap in use right now.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// RunStreamSweep measures the P9 points across a row-count sweep.
func RunStreamSweep(rowCounts []int) ([]StreamPoint, error) {
	var out []StreamPoint
	for _, rows := range rowCounts {
		env, err := newStreamBenchEnv(rows)
		if err != nil {
			return nil, fmt.Errorf("rows=%d: %w", rows, err)
		}

		// Warm both paths once so neither timing pays first-touch costs.
		if r, _, _, err := env.runMaterialized(); err != nil {
			return nil, fmt.Errorf("rows=%d: materialized warmup: %w", rows, err)
		} else {
			r.Close()
		}
		if _, _, err := env.runStreamed(nil); err != nil {
			return nil, fmt.Errorf("rows=%d: streamed warmup: %w", rows, err)
		}

		pt := StreamPoint{Rows: rows}

		// Latency passes (no GC sampling in the timed region).
		r, mttfr, mtotal, err := env.runMaterialized()
		if err != nil {
			return nil, fmt.Errorf("rows=%d: materialized: %w", rows, err)
		}
		r.Close()
		pt.MaterializedTTFRNS = mttfr.Nanoseconds()
		pt.MaterializedTotalNS = mtotal.Nanoseconds()

		sttfr, stotal, err := env.runStreamed(nil)
		if err != nil {
			return nil, fmt.Errorf("rows=%d: streamed: %w", rows, err)
		}
		pt.StreamTTFRNS = sttfr.Nanoseconds()
		pt.StreamTotalNS = stotal.Nanoseconds()
		if pt.StreamTTFRNS > 0 {
			pt.TTFRSpeedup = float64(pt.MaterializedTTFRNS) / float64(pt.StreamTTFRNS)
		}

		// Footprint passes: live heap with the whole result pinned versus
		// live heap sampled halfway through a streamed read.
		base := liveHeap()
		r, _, _, err = env.runMaterialized()
		if err != nil {
			return nil, fmt.Errorf("rows=%d: materialized heap pass: %w", rows, err)
		}
		pt.MaterializedLiveHeapBytes = max64(0, liveHeap()-base)
		r.Close()

		base = liveHeap()
		var streamed int64
		half := rows / 2
		_, _, err = env.runStreamed(func(i int) {
			if i == half || (half == 0 && i == 1) {
				streamed = max64(0, liveHeap()-base)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("rows=%d: streamed heap pass: %w", rows, err)
		}
		pt.StreamLiveHeapBytes = streamed

		out = append(out, pt)
	}
	return out, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ReportStream prints the P9 table.
func ReportStream(w io.Writer, rowCounts []int) error {
	fmt.Fprintln(w, "P9  Streaming delivery: pull cursor vs materialize-then-decode (text mode)")
	fmt.Fprintln(w, "rows     ttfr(stream) ttfr(mat)    total(stream) total(mat)   heap(stream) heap(mat)")
	points, err := RunStreamSweep(rowCounts)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %-12s %-12s %-13s %-12s %-12s %s\n",
			p.Rows,
			time.Duration(p.StreamTTFRNS).Round(time.Microsecond),
			time.Duration(p.MaterializedTTFRNS).Round(time.Microsecond),
			time.Duration(p.StreamTotalNS).Round(time.Microsecond),
			time.Duration(p.MaterializedTotalNS).Round(time.Microsecond),
			fmtBytes(p.StreamLiveHeapBytes),
			fmtBytes(p.MaterializedLiveHeapBytes))
	}
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// StreamReport is the JSON document WriteStreamJSON produces
// (BENCH_stream.json).
type StreamReport struct {
	Experiment string        `json:"experiment"`
	SQL        string        `json:"sql"`
	Points     []StreamPoint `json:"points"`
}

// WriteStreamJSON runs the stream sweep and writes it as JSON to path
// (conventionally BENCH_stream.json).
func WriteStreamJSON(path string, rowCounts []int) error {
	points, err := RunStreamSweep(rowCounts)
	if err != nil {
		return err
	}
	doc := StreamReport{
		Experiment: "P9 streaming delivery: pull cursor vs materialize-then-decode",
		SQL:        StreamSweepSQL,
		Points:     points,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
