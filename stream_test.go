// Differential oracle for the streaming result pipeline: every statement
// in the compiled corpus, in both result modes, must deliver byte-identical
// rows through the pull cursor (rows decoded one Next at a time while the
// evaluation runs) and the materialized path (full evaluation, then
// whole-payload decode). FETCH FIRST short-circuiting is pinned by tuple
// counters: a limit of 10 over a 100 000-row source may evaluate only O(10)
// tuples on every path.
package aqualogic

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/resultset"
	"repro/internal/xdm"
)

// materializedOracle executes a compiled statement the pre-streaming way —
// evaluate to completion, then decode the whole payload — as the byte
// oracle the cursor path must match.
func materializedOracle(p *Platform, mode ResultMode, sql string, args []any) (*Rows, error) {
	cq, err := p.CompileDialect(context.Background(), DialectSQL, sql, mode)
	if err != nil {
		return nil, err
	}
	if len(args) != cq.Res.ParamCount {
		return nil, fmt.Errorf("statement has %d parameter(s), got %d", cq.Res.ParamCount, len(args))
	}
	ext := make(map[string]Sequence, len(args))
	for i, a := range args {
		v, err := ToAtomic(a)
		if err != nil {
			return nil, err
		}
		ext[fmt.Sprintf("p%d", i+1)] = xdm.SequenceOf(v)
	}
	out, err := p.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, ext, nil)
	if err != nil {
		return nil, err
	}
	cols := make([]resultset.Column, len(cq.Res.Columns))
	for i, c := range cq.Res.Columns {
		cols[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable}
	}
	if mode == ModeText {
		it, err := out.Singleton()
		if err != nil {
			return nil, err
		}
		return resultset.FromText(xdm.StringValue(it), cols)
	}
	return resultset.FromXML(out, cols)
}

// marshalStreamed renders a live streaming result row by row — the genuine
// pull path, no Materialize — in marshalRows's canonical format.
func marshalStreamed(r *Rows) (string, error) {
	var b strings.Builder
	for _, c := range r.Columns() {
		fmt.Fprintf(&b, "[%s]", c.Label)
	}
	b.WriteByte('\n')
	for r.Next() {
		for i := range r.Columns() {
			s, ok, err := r.String(i)
			switch {
			case err != nil:
				fmt.Fprintf(&b, "|!%v", err)
			case !ok:
				b.WriteString("|NULL")
			default:
				fmt.Fprintf(&b, "|%s", s)
			}
		}
		b.WriteByte('\n')
	}
	if err := r.Err(); err != nil {
		return "", err
	}
	return b.String(), nil
}

// TestStreamedMatchesMaterialized is the streaming differential: the pull
// cursor and the materialized decode must agree byte-for-byte over the
// whole corpus in both result modes.
func TestStreamedMatchesMaterialized(t *testing.T) {
	p := Demo()
	streamable := 0
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		for _, sql := range compiledCorpus() {
			args := chaosArgs(strings.Count(sql, "?"))
			srows, err := p.QueryDialect(context.Background(), DialectSQL, mode, sql, args...)
			if err != nil {
				t.Fatalf("mode %v: %q: streamed query: %v", mode, sql, err)
			}
			got, err := marshalStreamed(srows)
			if err != nil {
				t.Fatalf("mode %v: %q: streamed iteration: %v", mode, sql, err)
			}
			mrows, err := materializedOracle(p, mode, sql, args)
			if err != nil {
				t.Fatalf("mode %v: %q: materialized oracle: %v", mode, sql, err)
			}
			if want := marshalRows(mrows); got != want {
				t.Fatalf("mode %v: %q: streamed rows diverged from materialized decode\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
			if cq, err := p.CompileDialect(context.Background(), DialectSQL, sql, mode); err == nil && cq.Streamable() {
				streamable++
			}
		}
	}
	// The decomposition must actually engage on the corpus, not fall back to
	// materialized everywhere.
	if streamable < len(compiledCorpus()) {
		t.Fatalf("only %d/%d (statement, mode) pairs streamed", streamable, 2*len(compiledCorpus()))
	}
}

// TestStreamedRowsMaterialize: a streaming result consumed partway can be
// materialized for scrollable use; rows already consumed are not replayed,
// and scroll operations work on the remainder.
func TestStreamedRowsMaterialize(t *testing.T) {
	p := Demo()
	rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row (err=%v)", rows.Err())
	}
	if err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	rest := rows.Len()
	if rest != 49 { // 50 demo customers, one already consumed
		t.Fatalf("materialized remainder = %d rows, want 49", rest)
	}
	rows.Reset()
	n := 0
	for rows.Next() {
		n++
	}
	if n != rest {
		t.Fatalf("re-scan saw %d rows, want %d", n, rest)
	}
	rows.Close()
	rows.Close() // idempotent
	if rows.Next() {
		t.Fatal("Next after Close must report no rows")
	}
}

// TestQueryStreamCancellation: cancelling the caller's context mid-stream
// surfaces a context error from rows.Err, not a silent short read.
func TestQueryStreamCancellation(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 5000, PaymentsPerCustomer: 1, Orders: 1, ItemsPerOrder: 1})
	p := New(app, engine)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := p.QueryDialect(ctx, DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row (err=%v)", rows.Err())
	}
	cancel()
	n := 0
	for rows.Next() {
		n++ // buffered rows may still drain
	}
	if err := rows.Err(); err == nil {
		if n >= 4999 {
			t.Skip("evaluation finished before cancellation landed")
		}
		t.Fatalf("cancelled stream ended silently after %d rows", n)
	}
}

// TestFetchFirstShortCircuit is the acceptance pin: FETCH FIRST 10 ROWS
// ONLY over a 100 000-row source evaluates O(10) tuples — streamed,
// materialized-planned, and naive — and the facade returns exactly 10 rows.
func TestFetchFirstShortCircuit(t *testing.T) {
	app, _, engine := demo.Setup(demo.Sizes{Customers: 100000, PaymentsPerCustomer: 0, Orders: 1, ItemsPerOrder: 1})
	p := New(app, engine)
	const sql = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS FETCH FIRST 10 ROWS ONLY"

	for _, mode := range []ResultMode{ModeXML, ModeText} {
		cq, err := p.CompileDialect(context.Background(), DialectSQL, sql, mode)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}

		// Facade, streamed end to end.
		rows, err := p.QueryDialect(context.Background(), DialectSQL, mode, sql)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if n != 10 {
			t.Fatalf("mode %v: streamed %d rows, want 10", mode, n)
		}

		// Streamed cursor: the evaluator's own tuple counter stays O(10).
		cur := p.Engine.EvalStream(context.Background(), cq.Plan, nil, nil)
		for {
			if _, err := cur.Next(); err != nil {
				break
			}
		}
		cur.Close()
		if _, tuples := cur.Stats(); tuples > 25 { // text mode counts each row twice: build + tokenize
			t.Fatalf("mode %v: streamed FETCH FIRST evaluated %d tuples over a 100000-row source, want O(10)", mode, tuples)
		}

		// Materialized planned and naive paths take the same short circuit;
		// the evaluate stage's tuple detail pins them.
		for _, path := range []struct {
			name string
			run  func(tr *Trace) error
		}{
			{"planned", func(tr *Trace) error {
				_, err := p.Engine.EvalPlanWithTrace(context.Background(), cq.Plan, nil, tr)
				return err
			}},
			{"naive", func(tr *Trace) error {
				_, err := p.Engine.EvalNaiveWithTrace(context.Background(), cq.Res.Query, nil, tr)
				return err
			}},
		} {
			tr := obsv.NewTrace(sql)
			if err := path.run(tr); err != nil {
				t.Fatalf("mode %v: %s: %v", mode, path.name, err)
			}
			ev, ok := tr.Stage(obsv.StageEvaluate)
			if !ok {
				t.Fatalf("mode %v: %s: no evaluate stage recorded", mode, path.name)
			}
			if tuples := ev.DetailValue("tuples"); tuples > 25 { // text mode counts each row twice: build + tokenize
				t.Fatalf("mode %v: %s FETCH FIRST evaluated %d tuples over a 100000-row source, want O(10)", mode, path.name, tuples)
			}
		}
	}
}

// FuzzStreamDifferential extends the differential to arbitrary accepted
// SQL: whatever the statement, a doubly-successful run must produce
// byte-identical rows streamed and materialized.
func FuzzStreamDifferential(f *testing.F) {
	for _, s := range compiledCorpus() {
		f.Add(s)
	}
	app, _, engine := demo.Setup(demo.Sizes{Customers: 8, PaymentsPerCustomer: 2, Orders: 10, ItemsPerOrder: 2})
	p := New(app, engine)
	f.Fuzz(func(t *testing.T, sql string) {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			cq, err := p.CompileDialect(context.Background(), DialectSQL, sql, mode)
			if err != nil || cq.Res.ParamCount > 2 {
				return
			}
			if strings.Contains(cq.XQuery(), "fn:current-") {
				return // nondeterministic between the two evaluations
			}
			args := chaosArgs(cq.Res.ParamCount)
			srows, serr := p.QueryDialect(context.Background(), DialectSQL, mode, sql, args...)
			var got string
			if serr == nil {
				got, serr = marshalStreamed(srows)
			}
			mrows, merr := materializedOracle(p, mode, sql, args)
			if serr != nil || merr != nil {
				// Dynamic error timing is not part of the contract (XQuery
				// §2.3.4); value divergence on double success is the bug.
				return
			}
			if want := marshalRows(mrows); got != want {
				t.Fatalf("mode %v: %q: streamed diverged from materialized\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
		}
	})
}

// TestStreamingMetricsSurface pins the streaming observability through the
// public facade: a streamed query must show up in aqualogic.Stats() as
// RowsStreamed, a TimeToFirstRow observation, and a nonzero in-flight
// high-water mark.
func TestStreamingMetricsSurface(t *testing.T) {
	p := Demo()
	before := Stats()
	rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	after := Stats()
	if got := after.Get("RowsStreamed") - before.Get("RowsStreamed"); got < int64(n) {
		t.Fatalf("RowsStreamed advanced by %d, want >= %d", got, n)
	}
	if after.TimeToFirstRowCount <= before.TimeToFirstRowCount {
		t.Fatalf("TimeToFirstRow not observed: %d -> %d", before.TimeToFirstRowCount, after.TimeToFirstRowCount)
	}
	if after.Get("PeakInFlightRows") <= 0 {
		t.Fatal("PeakInFlightRows never recorded")
	}
}
