// Differential and safety nets for the morsel-parallel executor: every
// query the translator generates for the corpus must evaluate to a
// byte-identical sequence at every degree of parallelism, materialized and
// streamed; resource limits must hold exactly under speculation; FETCH
// FIRST, mid-stream Close, cancellation, and worker errors must all
// terminate promptly and surface the same way the serial path does.
//
// Like the planner differential, it lives outside package xqeval because
// it needs internal/demo and internal/translator.
package xqeval_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// parallelExec is the test configuration: tiny morsels and threshold so
// even the demo dataset's scans fan out.
func parallelExec(workers int) xqeval.ExecConfig {
	return xqeval.ExecConfig{Workers: workers, MorselSize: 8, MinParallelItems: 2}
}

// externalNames lists $p1…$pN for CompileAST's static check.
func externalNames(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "p" + strconv.Itoa(i+1)
	}
	return out
}

// drainCursor pulls a cursor dry, returning the concatenated items.
func drainCursor(cur *xqeval.Cursor) (xdm.Sequence, error) {
	defer cur.Close()
	var out xdm.Sequence
	for {
		chunk, err := cur.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
}

// TestParallelMatchesSerialOnCorpus is the parallel executor's core
// contract: across the whole generated-query corpus, both result modes,
// materialized and streamed, workers∈{2,8} produce byte-identical output
// to workers=1 (the plain serial path).
func TestParallelMatchesSerialOnCorpus(t *testing.T) {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	defer engine.SetExec(xqeval.ExecConfig{})
	ctx := context.Background()
	checked := 0
	for _, mode := range []translator.ResultMode{translator.ModeXML, translator.ModeText} {
		trans := translator.New(catalog.NewCache(app))
		trans.Options.Mode = mode
		for _, sql := range differentialCorpus() {
			res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
			if err != nil {
				t.Fatalf("mode %v: %q must translate: %v", mode, sql, err)
			}
			plan, err := engine.CompileAST(res.Query, externalNames(res.ParamCount))
			if err != nil {
				t.Fatalf("mode %v: %q must compile: %v", mode, sql, err)
			}
			ext := bindParams(res)

			engine.SetExec(parallelExec(1))
			serial, err := engine.EvalPlanWithTrace(ctx, plan, ext, nil)
			if err != nil {
				t.Fatalf("mode %v: %q must evaluate serially: %v", mode, sql, err)
			}
			want := xdm.MarshalSequence(serial)
			serialStream, err := drainCursor(engine.EvalStream(ctx, plan, ext, nil))
			if err != nil {
				t.Fatalf("mode %v: %q must stream serially: %v", mode, sql, err)
			}
			wantStream := xdm.MarshalSequence(serialStream)

			for _, workers := range []int{2, 8} {
				engine.SetExec(parallelExec(workers))
				got, err := engine.EvalPlanWithTrace(ctx, plan, ext, nil)
				if err != nil {
					t.Fatalf("mode %v, workers %d: %q must evaluate: %v", mode, workers, sql, err)
				}
				if g := xdm.MarshalSequence(got); g != want {
					t.Fatalf("mode %v, workers %d: %q diverges from serial\ngot:  %s\nwant: %s", mode, workers, sql, g, want)
				}
				streamed, err := drainCursor(engine.EvalStream(ctx, plan, ext, nil))
				if err != nil {
					t.Fatalf("mode %v, workers %d: %q must stream: %v", mode, workers, sql, err)
				}
				if g := xdm.MarshalSequence(streamed); g != wantStream {
					t.Fatalf("mode %v, workers %d: %q streamed diverges from serial\ngot:  %s\nwant: %s", mode, workers, sql, g, wantStream)
				}
				checked++
			}
		}
	}
	if checked < 76 { // 19 distinct statements × 2 modes × 2 worker counts
		t.Fatalf("corpus shrank: only %d checks ran", checked)
	}
}

// parallelScanSetup builds an engine with one n-row source and a compiled
// single-scan query over it, configured for aggressive fan-out.
func parallelScanSetup(t testing.TB, n int) (*xqeval.Engine, *xqeval.Plan) {
	t.Helper()
	rows := make([]*xdm.Element, n)
	for i := 0; i < n; i++ {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		row.AddChild(xdm.NewTextElement("VAL", fmt.Sprintf("v%d", i%7)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return <ROW>{$r/ID}</ROW>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetExec(parallelExec(8))
	return e, plan
}

// TestParallelLimits proves MaxRows/MaxTuples hold exactly under
// speculation: the shared atomic budget makes the limit trip with a typed
// error and never lets more than the cap be delivered.
func TestParallelLimits(t *testing.T) {
	ctx := context.Background()

	e, plan := parallelScanSetup(t, 200)
	e.SetLimits(xqeval.Limits{MaxRows: 17})
	if _, err := e.EvalPlanWithTrace(ctx, plan, nil, nil); err == nil {
		t.Fatal("MaxRows=17 over 200 rows must error")
	} else {
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("limit error not typed KindResourceLimit: %v", err)
		}
	}
	delivered, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err == nil {
		t.Fatal("streamed MaxRows=17 over 200 rows must error")
	}
	if len(delivered) > 17 {
		t.Fatalf("stream delivered %d rows past MaxRows=17", len(delivered))
	}

	e2, plan2 := parallelScanSetup(t, 200)
	e2.SetLimits(xqeval.Limits{MaxTuples: 50})
	if _, err := e2.EvalPlanWithTrace(ctx, plan2, nil, nil); err == nil {
		t.Fatal("MaxTuples=50 over 200 tuples must error")
	} else {
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("tuple-limit error not typed KindResourceLimit: %v", err)
		}
	}
}

// TestParallelFetchFirstShortCircuit streams a FETCH FIRST-shaped query
// (fn:subsequence, the translator's spelling) under parallel execution:
// exactly the first k rows come back, identical to serial, and the
// limiter's short-circuit tears the pool down rather than scanning out
// the source.
func TestParallelFetchFirstShortCircuit(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 5000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
fn:subsequence(for $r in p:T() return <ROW>{$r/ID}</ROW>, 1, 5)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	e.SetExec(parallelExec(1))
	serial, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	e.SetExec(parallelExec(8))
	par, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != 5 {
		t.Fatalf("FETCH FIRST 5 delivered %d rows", len(par))
	}
	if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
		t.Fatalf("parallel FETCH FIRST diverges from serial\ngot:  %s\nwant: %s", got, want)
	}
}

// parallelStreamSetup builds an engine whose compiled query streams rows
// through the translator's RECORDSET shape (so the cursor pulls the
// parallel executor through the real row-stream path), with the FLWOR body
// wrapped by extra XQuery supplied via wrap (e.g. a FETCH FIRST
// fn:subsequence).
func parallelStreamSetup(t testing.TB, n int, wrapOpen, wrapClose string) (*xqeval.Engine, *xqeval.Plan) {
	t.Helper()
	rows := make([]*xdm.Element, n)
	for i := 0; i < n; i++ {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{` + wrapOpen + `for $r in p:T() return <ROW>{$r/ID}</ROW>` + wrapClose + `}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetExec(parallelExec(8))
	return e, plan
}

// TestParallelFetchFirstUnderRowLimit pins the limits × FETCH FIRST
// interaction: with MaxRows strictly between the fetch limit and the
// speculation ceiling, workers overrun the shared budget while the merge
// point never reaches it. Serial execution succeeds (the limiter stops the
// pipeline before MaxRows), so parallel execution must too — the
// speculative trip is refuted at the merge point, never surfaced.
func TestParallelFetchFirstUnderRowLimit(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 5000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	// Per-row latency lets the speculating workers charge well past MaxRows
	// before the merge point has flushed the fetch limit's 20 rows.
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		time.Sleep(20 * time.Microsecond)
		return args[0], nil
	})
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{fn:subsequence(for $r in p:T() return <ROW>{p:SLOW($r/ID)}</ROW>, 1, 20)}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLimits(xqeval.Limits{MaxRows: 40})

	e.SetExec(parallelExec(1))
	serial, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if err != nil {
		t.Fatalf("serial FETCH FIRST under MaxRows must succeed: %v", err)
	}
	for i := 0; i < 20; i++ { // the race is scheduling-dependent; iterate
		e.SetExec(parallelExec(8))
		par, err := drainCursor(e.EvalStream(ctx, plan, nil, nil))
		if err != nil {
			t.Fatalf("iter %d: parallel FETCH FIRST under MaxRows must succeed like serial: %v", i, err)
		}
		if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
			t.Fatalf("iter %d: parallel diverges from serial\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestParallelRowLimitPrefixMatchesSerial trips MaxRows for real and
// checks full serial fidelity: the streamed prefix delivered before the
// error and the typed error itself must both match the serial run —
// morsels whose charges straddle the limit are re-run against the
// authoritative serial counters, so the trip lands on the exact serial
// row.
func TestParallelRowLimitPrefixMatchesSerial(t *testing.T) {
	ctx := context.Background()
	e, plan := parallelStreamSetup(t, 200, "", "")
	e.SetLimits(xqeval.Limits{MaxRows: 17})

	e.SetExec(parallelExec(1))
	serialPrefix, serr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if serr == nil {
		t.Fatal("serial MaxRows=17 over 200 rows must error")
	}
	for i := 0; i < 20; i++ {
		e.SetExec(parallelExec(8))
		parPrefix, perr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
		if perr == nil {
			t.Fatalf("iter %d: parallel MaxRows=17 must error like serial", i)
		}
		var qe *aqerr.QueryError
		if !errors.As(perr, &qe) || qe.Kind != aqerr.KindResourceLimit {
			t.Fatalf("iter %d: limit error not typed KindResourceLimit: %v", i, perr)
		}
		if got, want := xdm.MarshalSequence(parPrefix), xdm.MarshalSequence(serialPrefix); got != want {
			t.Fatalf("iter %d: pre-error prefix diverges from serial\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestParallelErrorPrefixMatchesSerial streams a query whose source
// rejects one row deep in the scan: the rows delivered before the error,
// and the error itself, must be byte-identical to the serial run even
// though the failing worker cancels its siblings mid-morsel (the merge
// point re-runs poisoned morsels serially instead of discarding them).
func TestParallelErrorPrefixMatchesSerial(t *testing.T) {
	ctx := context.Background()
	rows := make([]*xdm.Element, 500)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "CHECKED", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 1 && len(args[0]) == 1 {
			if el, ok := args[0][0].(*xdm.Element); ok && el.StringValue() == "137" {
				return nil, errors.New("checked source rejected row 137")
			}
		}
		return args[0], nil
	})
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
<RECORDSET>{for $r in p:T() return <ROW>{p:CHECKED($r/ID)}</ROW>}</RECORDSET>`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	e.SetExec(parallelExec(1))
	serialPrefix, serr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
	if serr == nil {
		t.Fatal("serial run must surface the source error")
	}
	for i := 0; i < 10; i++ {
		e.SetExec(parallelExec(8))
		parPrefix, perr := drainCursor(e.EvalStream(ctx, plan, nil, nil))
		if perr == nil || !strings.Contains(perr.Error(), "rejected row 137") {
			t.Fatalf("iter %d: parallel surfaced the wrong error: %v (serial: %v)", i, perr, serr)
		}
		if got, want := xdm.MarshalSequence(parPrefix), xdm.MarshalSequence(serialPrefix); got != want {
			t.Fatalf("iter %d: pre-error prefix diverges from serial\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestParallelTupleAccountingMatchesSerial checks the merge point refunds
// speculative charges: after a FETCH FIRST short-circuit, the evaluation's
// folded-back tuple counter (surfaced via Cursor.Stats) must equal the
// serial run's exactly, not include the window of morsels workers
// processed past the stop.
func TestParallelTupleAccountingMatchesSerial(t *testing.T) {
	ctx := context.Background()
	e, plan := parallelStreamSetup(t, 5000, "fn:subsequence(", ", 1, 20)")

	e.SetExec(parallelExec(1))
	cur := e.EvalStream(ctx, plan, nil, nil)
	if _, err := drainCursor(cur); err != nil {
		t.Fatal(err)
	}
	_, serialTuples := cur.Stats()

	e.SetExec(parallelExec(8))
	pcur := e.EvalStream(ctx, plan, nil, nil)
	if _, err := drainCursor(pcur); err != nil {
		t.Fatal(err)
	}
	if _, parTuples := pcur.Stats(); parTuples != serialTuples {
		t.Fatalf("parallel tuple accounting diverges after FETCH FIRST: parallel=%d serial=%d (speculative charges not refunded)", parTuples, serialTuples)
	}
}

// TestParallelCancellationNoHang is the deadlock regression for external
// cancellation: when the context dies while some workers sit between
// morsels, they can exit with later morsels never claimed, and a merge
// loop blocking solely on those morsels' done channels would hang forever.
// Cancellation is raced against the scan repeatedly; every evaluation must
// return within the watchdog.
func TestParallelCancellationNoHang(t *testing.T) {
	rows := make([]*xdm.Element, 2000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Microsecond):
		}
		return args[0], nil
	})
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:SLOW($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetExec(xqeval.ExecConfig{Workers: 8, MorselSize: 4, MinParallelItems: 2})

	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Vary the cancellation point across the scan so some iterations
		// catch workers idle between morsels.
		timer := time.AfterFunc(time.Duration(i)*200*time.Microsecond, cancel)
		ret := make(chan error, 1)
		go func() {
			_, err := e.EvalPlanWithTrace(ctx, plan, nil, nil)
			ret <- err
		}()
		select {
		case err := <-ret:
			if err == nil {
				t.Fatalf("iter %d: cancelled evaluation must error", i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: cancelled parallel evaluation hung", i)
		}
		timer.Stop()
		cancel()
	}
}

// TestParallelMidStreamClose closes a parallel streaming cursor with most
// of the scan still pending: Close must cancel the workers, wait for the
// producer, and return with no goroutine left running (the race detector
// and -count=1 goroutine accounting in CI catch leaks).
func TestParallelMidStreamClose(t *testing.T) {
	e, plan := parallelScanSetup(t, 2000)
	cur := e.EvalStream(context.Background(), plan, nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cur.Next(); err == nil {
		t.Fatal("Next after Close must not yield rows")
	}
}

// TestParallelCancellation cancels the evaluation context mid-flight: the
// pool must stop promptly (well before the serial cost of the remaining
// rows) and surface an error.
func TestParallelCancellation(t *testing.T) {
	rows := make([]*xdm.Element, 1000)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "SLOW", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		return args[0], nil
	})
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:SLOW($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetExec(parallelExec(8))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := e.EvalPlanWithTrace(ctx, plan, nil, nil); err == nil {
		t.Fatal("cancelled evaluation must error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v; workers did not stop promptly", elapsed)
	}
}

// TestParallelWorkerErrorSurfaces injects a per-row failure deep in one
// morsel: the evaluation must surface that error (not a sibling's
// cancellation), exactly as the serial path does.
func TestParallelWorkerErrorSurfaces(t *testing.T) {
	rows := make([]*xdm.Element, 500)
	for i := range rows {
		row := xdm.NewElement("T")
		row.AddChild(xdm.NewTextElement("ID", strconv.Itoa(i)))
		rows[i] = row
	}
	e := xqeval.New()
	e.RegisterRows("ld:ParTest", "T", rows)
	e.RegisterContext("ld:ParTest", "CHECKED", func(ctx context.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args) == 1 && len(args[0]) == 1 {
			if el, ok := args[0][0].(*xdm.Element); ok && el.StringValue() == "137" {
				return nil, errors.New("checked source rejected row 137")
			}
		}
		return args[0], nil
	})
	q, err := xqeval.Compile(`import schema namespace p = "ld:ParTest" at "ParTest.xsd";
for $r in p:T()
return p:CHECKED($r/ID)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.CompileAST(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	e.SetExec(parallelExec(1))
	_, serr := e.EvalPlanWithTrace(context.Background(), plan, nil, nil)
	e.SetExec(parallelExec(8))
	_, perr := e.EvalPlanWithTrace(context.Background(), plan, nil, nil)
	if serr == nil || perr == nil {
		t.Fatalf("both paths must fail: serial=%v parallel=%v", serr, perr)
	}
	if !strings.Contains(perr.Error(), "rejected row 137") {
		t.Fatalf("parallel surfaced the wrong error: %v (serial: %v)", perr, serr)
	}
}

// FuzzParallelDifferential extends the plan fuzzer across the parallelism
// axis: any SQL the translator accepts is evaluated serially and at 8
// workers over the same compiled plan; divergence in values, or in error
// presence, fails. (Parallel execution has no §2.3.4 latitude against its
// own serial run — both execute the identical eager plan.)
func FuzzParallelDifferential(f *testing.F) {
	for _, s := range differentialCorpus() {
		f.Add(s)
	}
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	trans := translator.New(catalog.NewCache(app))
	f.Fuzz(func(t *testing.T, sql string) {
		res, err := trans.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
		if err != nil {
			return
		}
		if strings.Contains(res.XQuery(), "fn:current-") {
			return // nondeterministic between the two evaluations
		}
		plan, err := engine.CompileAST(res.Query, externalNames(res.ParamCount))
		if err != nil {
			return
		}
		ext := bindParams(res)
		engine.SetExec(xqeval.ExecConfig{Workers: 1, MorselSize: 4, MinParallelItems: 2})
		serial, serr := engine.EvalPlanWithTrace(context.Background(), plan, ext, nil)
		engine.SetExec(xqeval.ExecConfig{Workers: 8, MorselSize: 4, MinParallelItems: 2})
		par, perr := engine.EvalPlanWithTrace(context.Background(), plan, ext, nil)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("%q: error-presence divergence\nserial:   %v\nparallel: %v", sql, serr, perr)
		}
		if serr != nil {
			return
		}
		if got, want := xdm.MarshalSequence(par), xdm.MarshalSequence(serial); got != want {
			t.Fatalf("%q: result divergence\nparallel: %s\nserial:   %s", sql, got, want)
		}
	})
}
