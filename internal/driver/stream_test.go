// Streaming behavior at the driver boundary: rows from a still-running
// evaluation, early termination through Close, and statement reuse while
// streams are in flight.
package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"io"
	"sync"
	"testing"

	"repro/internal/demo"
	"repro/internal/obsv"
	"repro/internal/sqlparser"
)

// streamConn builds a private server over a customers-only dataset and
// opens one raw connection on it, bypassing database/sql so the test can
// drive driver.Rows directly.
func streamConn(t *testing.T, customers int) *conn {
	t.Helper()
	app, _, engine := demo.Setup(demo.Sizes{Customers: customers, PaymentsPerCustomer: 0, Orders: 1, ItemsPerOrder: 1})
	return newConn(&Server{App: app, Engine: engine}, "text", sqlparser.Front{})
}

// evalStepsDelta runs fn and reports how many evaluator steps the process
// spent inside it. Driver tests do not run in parallel, so the global
// counter's delta is attributable to fn.
func evalStepsDelta(fn func()) int64 {
	before := obsv.Global.Snapshot().Get("EvalSteps")
	fn()
	return obsv.Global.Snapshot().Get("EvalSteps") - before
}

// TestClosedRowsCancelEvaluation is the early-termination regression: a
// result set abandoned after a few rows must cancel the evaluation, not
// let it run to completion behind the scenes. The pin is self-calibrating:
// the same statement drained fully fixes the full-evaluation step cost,
// and the abandoned run must spend a small fraction of it.
func TestClosedRowsCancelEvaluation(t *testing.T) {
	c := streamConn(t, 700) // cross join: 490 000 tuples if run to completion
	st, err := c.PrepareContext(context.Background(), "SELECT A.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B")
	if err != nil {
		t.Fatal(err)
	}
	s := st.(*stmt)
	dest := make([]sqldriver.Value, 1)

	fullSteps := evalStepsDelta(func() {
		rows, err := s.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if err := rows.Next(dest); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	})

	var rows sqldriver.Rows
	closedSteps := evalStepsDelta(func() {
		var err error
		rows, err = s.Query(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := rows.Next(dest); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		// Close cancels the evaluation context and waits for the producer
		// to exit, so the step counter has folded when it returns.
		if err := rows.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})

	if closedSteps*10 > fullSteps {
		t.Fatalf("abandoned stream spent %d evaluator steps; full evaluation costs %d — Close did not cancel",
			closedSteps, fullSteps)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := rows.Next(dest); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}

// TestRowsCloseReleasesOnce: repeated Close calls on a live stream are
// safe, report each row exactly once through the connection metrics, and
// leave the statement reusable.
func TestRowsCloseReleasesOnce(t *testing.T) {
	c := streamConn(t, 50)
	st, err := c.PrepareContext(context.Background(), "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	s := st.(*stmt)
	for round := 0; round < 3; round++ {
		rows, err := s.Query(nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dest := make([]sqldriver.Value, 1)
		for i := 0; i < 2; i++ {
			if err := rows.Next(dest); err != nil {
				t.Fatalf("round %d row %d: %v", round, i, err)
			}
		}
		before := c.obs.Snapshot().Get("RowsStreamed")
		for i := 0; i < 3; i++ {
			if err := rows.Close(); err != nil {
				t.Fatalf("round %d close %d: %v", round, i, err)
			}
		}
		if got := c.obs.Snapshot().Get("RowsStreamed") - before; got != 2 {
			t.Fatalf("round %d: %d rows counted across 3 Closes, want 2 (exactly once)", round, got)
		}
	}
}

// TestStreamingStatementReuseRace hammers one prepared statement from
// several goroutines, each opening a stream, reading a prefix, and
// abandoning it — the reuse pattern connection pools produce — while
// others drain theirs fully. Run under -race this pins the cursor
// hand-off between statement, rows, and evaluation goroutine.
func TestStreamingStatementReuseRace(t *testing.T) {
	db := openDemo(t, "")
	stmt, err := db.Prepare("SELECT P.PAYMENT, C.CUSTOMERNAME FROM PAYMENTS P, CUSTOMERS C WHERE P.CUSTID = C.CUSTOMERID")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				rows, err := stmt.Query()
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				limit := -1 // drain fully
				if g%2 == 0 {
					limit = g + round // abandon after a prefix
				}
				n := 0
				for rows.Next() {
					var pay float64
					var name string
					if err := rows.Scan(&pay, &name); err != nil {
						t.Errorf("goroutine %d round %d: %v", g, round, err)
						break
					}
					n++
					if limit >= 0 && n > limit {
						break
					}
				}
				if err := rows.Close(); err != nil {
					t.Errorf("goroutine %d round %d close: %v", g, round, err)
				}
				if err := rows.Err(); err != nil {
					t.Errorf("goroutine %d round %d err: %v", g, round, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRowsSurviveStatementClose: database/sql may close the statement
// while its rows are still being read (Close on a pool-owned stmt); the
// in-flight stream must keep delivering.
func TestRowsSurviveStatementClose(t *testing.T) {
	db := openDemo(t, "")
	stmt, err := db.Prepare("SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("streamed %d rows after statement close, want 50", n)
	}
}
