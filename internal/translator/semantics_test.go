package translator_test

// Deeper semantic edge cases beyond the conformance matrix: grouped
// expression keys, self-joins, NULL ordering, correlated projections,
// HAVING interactions, and date predicates.

import (
	"context"
	"testing"

	"repro/internal/sqlparser"
)

func TestExecGroupByExpressionKey(t *testing.T) {
	// The group key is a CASE expression; the select item matches it
	// textually (SQL-92's derivability rule, matched canonically).
	rows := run(t, `SELECT CASE WHEN CUSTOMERID < 3 THEN 'lo' ELSE 'hi' END, COUNT(*)
		FROM CUSTOMERS
		GROUP BY CASE WHEN CUSTOMERID < 3 THEN 'lo' ELSE 'hi' END
		ORDER BY 1 DESC`)
	if got := joined(t, rows, 0); got != "lo,hi" {
		t.Fatalf("keys = %s", got)
	}
	if got := joined(t, rows, 1); got != "2,3" {
		t.Fatalf("counts = %s", got)
	}
}

func TestExecGroupByScalarFunctionKey(t *testing.T) {
	rows := run(t, `SELECT UPPER(CITY), COUNT(*) FROM CUSTOMERS
		WHERE CITY IS NOT NULL GROUP BY UPPER(CITY) ORDER BY 1`)
	if got := joined(t, rows, 0); got != "LAKESIDE,RIVERTON,SPRINGFIELD" {
		t.Fatalf("keys = %s", got)
	}
}

func TestExecSelfJoin(t *testing.T) {
	// Pairs of distinct customers in the same city.
	rows := run(t, `SELECT A.CUSTOMERNAME, B.CUSTOMERNAME
		FROM CUSTOMERS A, CUSTOMERS B
		WHERE A.CITY = B.CITY AND A.CUSTOMERID < B.CUSTOMERID
		ORDER BY A.CUSTOMERID`)
	if rows.Len() != 1 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	a, _, _ := rows.String(0)
	b, _, _ := rows.String(1)
	if a != "Joe" || b != "Bob" {
		t.Fatalf("pair = %s, %s", a, b)
	}
}

func TestExecNullOrderingAscVsDesc(t *testing.T) {
	// Ascending: NULL city first (empty least); descending: NULL last.
	rows := run(t, "SELECT CITY FROM CUSTOMERS ORDER BY CITY, CUSTOMERID")
	asc := column(t, rows, 0)
	if asc[0] != "NULL" {
		t.Fatalf("asc = %v", asc)
	}
	rows = run(t, "SELECT CITY FROM CUSTOMERS ORDER BY CITY DESC, CUSTOMERID")
	desc := column(t, rows, 0)
	if desc[len(desc)-1] != "NULL" {
		t.Fatalf("desc = %v", desc)
	}
}

func TestExecCorrelatedProjection(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME,
		(SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) AS NPAY
		FROM CUSTOMERS C ORDER BY C.CUSTOMERID`)
	if got := joined(t, rows, 1); got != "2,1,0,1,0" {
		t.Fatalf("counts = %s", got)
	}
}

func TestExecHavingOnDifferentAggregate(t *testing.T) {
	// HAVING uses an aggregate that is not in the projection.
	rows := run(t, `SELECT CUSTID FROM PAYMENTS GROUP BY CUSTID
		HAVING MAX(PAYMENT) > 15 ORDER BY CUSTID`)
	if got := joined(t, rows, 0); got != "1,2" {
		t.Fatalf("got %s", got)
	}
}

func TestExecGroupByTwoKeys(t *testing.T) {
	rows := run(t, `SELECT CITY, SIGNUPDATE, COUNT(*) FROM CUSTOMERS
		GROUP BY CITY, SIGNUPDATE ORDER BY CITY, SIGNUPDATE`)
	// Each customer has a unique (city, signup) pair in the fixture → 5 groups.
	if rows.Len() != 5 {
		t.Fatalf("groups = %d", rows.Len())
	}
}

func TestExecDatePredicates(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE SIGNUPDATE BETWEEN DATE '2004-01-01' AND DATE '2005-06-30'
		ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue" {
		t.Fatalf("got %s", got)
	}
	// EXTRACT in WHERE.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE EXTRACT(YEAR FROM SIGNUPDATE) = 2005 ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Joe,Eve" {
		t.Fatalf("got %s", got)
	}
}

func TestExecOuterJoinOfDerivedTable(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERNAME, BIG.PAYMENT
		FROM CUSTOMERS LEFT OUTER JOIN
			(SELECT CUSTID, PAYMENT FROM PAYMENTS WHERE PAYMENT > 40) AS BIG
		ON CUSTOMERS.CUSTOMERID = BIG.CUSTID
		ORDER BY CUSTOMERS.CUSTOMERID, BIG.PAYMENT`)
	// Joe matches two big payments; everyone else NULL-extends.
	if rows.Len() != 6 {
		t.Fatalf("rows = %d", rows.Len())
	}
	payments := column(t, rows, 1)
	nulls := 0
	for _, p := range payments {
		if p == "NULL" {
			nulls++
		}
	}
	if nulls != 4 {
		t.Fatalf("payments = %v", payments)
	}
}

func TestExecUnionCompatibilityPromotion(t *testing.T) {
	// INTEGER union DECIMAL promotes to DECIMAL.
	tr := newTranslator()
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT PAYMENT FROM PAYMENTS", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0].Type.String() != "DECIMAL" {
		t.Fatalf("union type = %v", res.Columns[0].Type)
	}
}

func TestExecDistinctOnExpressions(t *testing.T) {
	rows := run(t, "SELECT DISTINCT CUSTID * 0 FROM PAYMENTS")
	if rows.Len() != 1 {
		t.Fatalf("rows = %d", rows.Len())
	}
}

func TestExecConcatWithNull(t *testing.T) {
	// SQL-92 says NULL || x is NULL; the fn:concat mapping treats NULL as
	// the empty string instead — a documented deviation shared with many
	// real drivers. Pin the actual behavior.
	rows := run(t, "SELECT CITY || '!' FROM CUSTOMERS WHERE CUSTOMERID = 3")
	rows.Next()
	s, ok, _ := rows.String(0)
	if !ok || s != "!" {
		t.Fatalf("got %q ok=%v", s, ok)
	}
}

func TestExecWhereOnComputedDerivedColumn(t *testing.T) {
	rows := run(t, `SELECT D.DOUBLED FROM
		(SELECT PAYMENT * 2 AS DOUBLED FROM PAYMENTS) AS D
		WHERE D.DOUBLED > 100 ORDER BY D.DOUBLED`)
	if got := joined(t, rows, 0); got != "100.5,201" {
		t.Fatalf("got %s", got)
	}
}

// TestExecExample11FullShape reproduces the paper's Example 11/12 "complex
// query" in full: a join materialized behind a let, grouping over two keys
// with the BEA extension, a scalar function over a group key, an aggregate
// over the partition, and ordered output.
func TestExecExample11FullShape(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERID, CONCAT(CUSTOMERS.CUSTOMERNAME, '!') BANG,
		COUNT(PO_CUSTOMERS.ORDERID) N
		FROM CUSTOMERS, PO_CUSTOMERS
		WHERE CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID
		GROUP BY CUSTOMERS.CUSTOMERID, CUSTOMERS.CUSTOMERNAME
		ORDER BY 3 DESC, CUSTOMERS.CUSTOMERID`)
	// Joe has 2 orders; Sue and Ann 1 each.
	if got := joined(t, rows, 0); got != "1,2,3" {
		t.Fatalf("ids = %s", got)
	}
	if got := joined(t, rows, 1); got != "Joe!,Sue!,Ann!" {
		t.Fatalf("names = %s", got)
	}
	if got := joined(t, rows, 2); got != "2,1,1" {
		t.Fatalf("counts = %s", got)
	}
}

func TestExecUnqualifiedColumnThroughAliasedJoin(t *testing.T) {
	// PAYMENTID is visible both through the physical PAYMENTS binding and
	// the join alias P; that is one column, not an ambiguity.
	rows := run(t, `SELECT PAYMENTID
		FROM (CUSTOMERS JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID)  AS P
		ORDER BY PAYMENTID`)
	if got := joined(t, rows, 0); got != "1,2,3,4" {
		t.Fatalf("got %s", got)
	}
	// A genuinely ambiguous name (CUSTOMERID exists in both tables of the
	// join) must still be rejected.
	_, err := newTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, `SELECT CUSTOMERID
		FROM (CUSTOMERS JOIN PO_CUSTOMERS ON CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID) AS P`, nil)
	if err == nil || !contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}
