package translator_test

// Tests for extension features beyond strict SQL-92: FETCH FIRST n ROWS
// ONLY (SQL:2008 top-N, common in reporting tools) and the LEFT/RIGHT
// string functions.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

func TestExecFetchFirst(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID FETCH FIRST 2 ROWS ONLY")
	if got := joined(t, rows, 0); got != "Joe,Sue" {
		t.Fatalf("got %s", got)
	}
	// FETCH NEXT ROW ONLY defaults to one row.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC FETCH NEXT ROW ONLY")
	if got := joined(t, rows, 0); got != "Eve" {
		t.Fatalf("got %s", got)
	}
	// Limit larger than the result is a no-op.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS FETCH FIRST 100 ROWS ONLY")
	if rows.Len() != 5 {
		t.Fatalf("rows = %d", rows.Len())
	}
	// Zero rows.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS FETCH FIRST 0 ROWS ONLY")
	if rows.Len() != 0 {
		t.Fatalf("rows = %d", rows.Len())
	}
}

func TestExecFetchFirstOverSetOp(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS
		ORDER BY CUSTOMERID DESC FETCH FIRST 2 ROWS ONLY`)
	if got := joined(t, rows, 0); got != "99,5" {
		t.Fatalf("got %s", got)
	}
}

func TestExecFetchFirstTopNAggregates(t *testing.T) {
	// The classic reporting query: top spender.
	rows := run(t, `SELECT CUSTID, SUM(PAYMENT) AS TOTAL FROM PAYMENTS
		GROUP BY CUSTID ORDER BY 2 DESC FETCH FIRST 1 ROWS ONLY`)
	if got := joined(t, rows, 0); got != "1" {
		t.Fatalf("top spender = %s", got)
	}
}

func TestGoldenFetchFirstUsesSubsequence(t *testing.T) {
	tr := newTranslator()
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT CUSTOMERID FROM CUSTOMERS FETCH FIRST 3 ROWS ONLY", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.XQuery(), "fn:subsequence(") {
		t.Fatalf("xquery:\n%s", res.XQuery())
	}
}

func TestExecLeftRightFunctions(t *testing.T) {
	rows := run(t, "SELECT LEFT(CUSTOMERNAME, 2), RIGHT(CUSTOMERNAME, 2) FROM CUSTOMERS WHERE CUSTOMERID = 1")
	rows.Next()
	l, _, _ := rows.String(0)
	r, _, _ := rows.String(1)
	if l != "Jo" || r != "oe" {
		t.Fatalf("left/right = %q %q", l, r)
	}
	// n larger than the string returns the whole string.
	rows = run(t, "SELECT RIGHT(CUSTOMERNAME, 99) FROM CUSTOMERS WHERE CUSTOMERID = 2")
	rows.Next()
	if s, _, _ := rows.String(0); s != "Sue" {
		t.Fatalf("right overlong = %q", s)
	}
}

func TestFetchFirstParseErrors(t *testing.T) {
	bad := []string{
		"SELECT A FROM T FETCH 3 ROWS ONLY",           // missing FIRST/NEXT
		"SELECT A FROM T FETCH FIRST 3 ROWS",          // missing ONLY
		"SELECT A FROM T FETCH FIRST THREE ROWS ONLY", // non-integer
	}
	for _, sql := range bad {
		if _, err := newTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestExecOrderedDerivedTableTopN(t *testing.T) {
	// ORDER BY + FETCH FIRST inside a derived table (a common reporting
	// idiom beyond strict SQL-92): top-2 payments, then aggregated.
	rows := run(t, `SELECT SUM(T.PAYMENT) FROM
		(SELECT PAYMENT FROM PAYMENTS ORDER BY PAYMENT DESC FETCH FIRST 2 ROWS ONLY) AS T`)
	rows.Next()
	f, _, _ := rows.Float64(0)
	if f != 150.75 { // 100.50 + 50.25
		t.Fatalf("sum = %v", f)
	}
}

func TestExecAliasedOuterJoin(t *testing.T) {
	rows := run(t, `SELECT J.CUSTOMERNAME, J.PAYMENT
		FROM (CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID) AS J
		WHERE J.PAYMENT IS NULL ORDER BY J.CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Ann,Eve" {
		t.Fatalf("got %s", got)
	}
}
