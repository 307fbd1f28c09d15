package translator_test

// SQL-92 row value constructor tests: comparisons expand column-wise,
// orderings expand lexicographically, and multi-column IN membership works
// against both lists and subqueries.

import (
	"context"
	"testing"

	"repro/internal/sqlparser"
)

func TestExecRowValueEquality(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = (1, 'Springfield')")
	if got := joined(t, rows, 0); got != "Joe" {
		t.Fatalf("got %s", got)
	}
	// One component mismatching fails the whole row.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = (1, 'Riverton')")
	if rows.Len() != 0 {
		t.Fatalf("rows = %d", rows.Len())
	}
}

func TestExecRowValueInequality(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CUSTOMERID, CITY) <> (1, 'Springfield') AND CITY IS NOT NULL
		ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Sue,Bob,Eve" {
		t.Fatalf("got %s", got)
	}
}

func TestExecRowValueLexicographicOrdering(t *testing.T) {
	// (CITY, CUSTOMERID) > ('Springfield', 1): Springfield/4 qualifies by
	// the second component; cities sorting after Springfield none exist;
	// Riverton and Lakeside sort before.
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CITY, CUSTOMERID) > ('Springfield', 1) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Bob" {
		t.Fatalf("got %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CITY, CUSTOMERID) < ('Springfield', 4) ORDER BY CUSTOMERID`)
	// Joe (Springfield,1) qualifies via second component; Sue (Riverton)
	// and Eve (Lakeside) via first; Ann's NULL city is unknown.
	if got := joined(t, rows, 0); got != "Joe,Sue,Eve" {
		t.Fatalf("got %s", got)
	}
}

func TestExecRowValueInList(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CUSTOMERID, CITY) IN ((1, 'Springfield'), (2, 'Riverton')) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue" {
		t.Fatalf("got %s", got)
	}
}

func TestExecRowValueInSubquery(t *testing.T) {
	// Customers whose (id, 'OPEN') pair appears among open orders.
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CUSTOMERID, 'OPEN') IN (SELECT CUSTOMERID, STATUS FROM PO_CUSTOMERS)
		ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue" {
		t.Fatalf("got %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE (CUSTOMERID, 'OPEN') NOT IN (SELECT CUSTOMERID, STATUS FROM PO_CUSTOMERS)
		ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Ann,Bob,Eve" {
		t.Fatalf("got %s", got)
	}
}

func TestRowValueErrors(t *testing.T) {
	bad := []struct{ sql, want string }{
		{"SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = 1", "compared with a scalar"},
		{"SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) = (1, 'x', 'y')", "different degrees"},
		{"SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) IN (SELECT CUSTID FROM PAYMENTS)", "degree"},
		{"SELECT 1 FROM CUSTOMERS WHERE (CUSTOMERID, CITY) IN (1, 2)", "must contain row values"},
	}
	for _, c := range bad {
		_, err := newTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, c.sql, nil)
		if err == nil {
			t.Errorf("%q should fail", c.sql)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("%q: error %q missing %q", c.sql, err, c.want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
