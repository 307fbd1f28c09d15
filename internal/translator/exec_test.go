package translator_test

// End-to-end semantic tests: every test translates SQL, executes the
// generated XQuery on the engine (the DSP-server stand-in), decodes the
// result set, and checks that the answer is what SQL-92 says it should be.
// This exercises the paper's correctness goal (§3.2 i): "the XQuery must do
// what the SQL query would have done".

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/resultset"
	"repro/internal/sqlparser"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// fixtureEngine builds a small hand-written dataset whose query answers
// are computable by inspection.
//
//	CUSTOMERS: (1,Joe,Springfield,2005-01-10) (2,Sue,Riverton,2004-06-01)
//	           (3,Ann,NULL,NULL) (4,Bob,Springfield,2003-03-15)
//	           (5,Eve,Lakeside,2005-11-30)
//	PAYMENTS:  (1,1,100.50) (2,1,50.25) (3,2,20.00) (4,4,10.00) (5,99,5.00)
//	PO_CUSTOMERS: (5001,1,OPEN,300.00) (5002,1,CLOSED,150.00)
//	              (5003,2,OPEN,75.50) (5004,3,SHIPPED,20.00)
func fixtureEngine() *xqeval.Engine {
	e := xqeval.New()
	cust := func(id int, name, city, signup string) *xdm.Element {
		r := xdm.NewElement("CUSTOMERS")
		r.AddChild(xdm.NewTextElement("CUSTOMERID", itoa(id)))
		r.AddChild(xdm.NewTextElement("CUSTOMERNAME", name))
		if city != "" {
			r.AddChild(xdm.NewTextElement("CITY", city))
		}
		if signup != "" {
			r.AddChild(xdm.NewTextElement("SIGNUPDATE", signup))
		}
		return r
	}
	pay := func(id, custID int, amount string) *xdm.Element {
		r := xdm.NewElement("PAYMENTS")
		r.AddChild(xdm.NewTextElement("PAYMENTID", itoa(id)))
		r.AddChild(xdm.NewTextElement("CUSTID", itoa(custID)))
		r.AddChild(xdm.NewTextElement("PAYMENT", amount))
		r.AddChild(xdm.NewTextElement("PAYDATE", "2005-06-01"))
		return r
	}
	order := func(id, custID int, status, total string) *xdm.Element {
		r := xdm.NewElement("PO_CUSTOMERS")
		r.AddChild(xdm.NewTextElement("ORDERID", itoa(id)))
		r.AddChild(xdm.NewTextElement("CUSTOMERID", itoa(custID)))
		r.AddChild(xdm.NewTextElement("ORDERDATE", "2005-05-05"))
		r.AddChild(xdm.NewTextElement("STATUS", status))
		r.AddChild(xdm.NewTextElement("TOTAL", total))
		return r
	}
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", []*xdm.Element{
		cust(1, "Joe", "Springfield", "2005-01-10"),
		cust(2, "Sue", "Riverton", "2004-06-01"),
		cust(3, "Ann", "", ""),
		cust(4, "Bob", "Springfield", "2003-03-15"),
		cust(5, "Eve", "Lakeside", "2005-11-30"),
	})
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", []*xdm.Element{
		pay(1, 1, "100.50"),
		pay(2, 1, "50.25"),
		pay(3, 2, "20.00"),
		pay(4, 4, "10.00"),
		pay(5, 99, "5.00"),
	})
	e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", []*xdm.Element{
		order(5001, 1, "OPEN", "300.00"),
		order(5002, 1, "CLOSED", "150.00"),
		order(5003, 2, "OPEN", "75.50"),
		order(5004, 3, "SHIPPED", "20.00"),
	})
	e.RegisterRows("ld:TestDataServices/PO_ITEMS", "PO_ITEMS", nil)
	return e
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func toColumns(cols []translator.ResultColumn) []resultset.Column {
	out := make([]resultset.Column, len(cols))
	for i, c := range cols {
		out[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable}
	}
	return out
}

// run translates and executes sql in XML mode, returning the decoded rows.
func run(t *testing.T, sql string, params ...xdm.Atomic) *resultset.Rows {
	t.Helper()
	tr := translator.New(catalog.Demo())
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
	if err != nil {
		t.Fatalf("translate %q: %v", sql, err)
	}
	ext := map[string]xdm.Sequence{}
	for i, p := range params {
		ext[fmt.Sprintf("p%d", i+1)] = xdm.SequenceOf(p)
	}
	out, err := fixtureEngine().EvalWith(res.Query, ext)
	if err != nil {
		t.Fatalf("execute %q: %v\nxquery:\n%s", sql, err, res.XQuery())
	}
	rows, err := resultset.FromXML(out, toColumns(res.Columns))
	if err != nil {
		t.Fatalf("decode %q: %v", sql, err)
	}
	return rows
}

// runText executes in text mode and decodes the delimiter-separated
// payload (the §4 path).
func runText(t *testing.T, sql string) *resultset.Rows {
	t.Helper()
	tr := translator.New(catalog.Demo())
	tr.Options.Mode = translator.ModeText
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
	if err != nil {
		t.Fatalf("translate %q: %v", sql, err)
	}
	out, err := fixtureEngine().Eval(res.Query)
	if err != nil {
		t.Fatalf("execute %q: %v\nxquery:\n%s", sql, err, res.XQuery())
	}
	it, err := out.Singleton()
	if err != nil {
		t.Fatalf("text payload: %v", err)
	}
	rows, err := resultset.FromText(xdm.StringValue(it), toColumns(res.Columns))
	if err != nil {
		t.Fatalf("decode text %q: %v", sql, err)
	}
	return rows
}

// column collects one column of every row as strings, "NULL" for nulls.
func column(t *testing.T, rows *resultset.Rows, i int) []string {
	t.Helper()
	var out []string
	rows.Reset()
	for rows.Next() {
		s, ok, err := rows.String(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			s = "NULL"
		}
		out = append(out, s)
	}
	return out
}

func joined(t *testing.T, rows *resultset.Rows, i int) string {
	return strings.Join(column(t, rows, i), ",")
}

func TestExecSelectStar(t *testing.T) {
	rows := run(t, "SELECT * FROM CUSTOMERS")
	if rows.Len() != 5 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	id, ok, err := rows.Int64(0)
	if err != nil || !ok || id != 1 {
		t.Fatalf("id = %v %v %v", id, ok, err)
	}
	name, _, _ := rows.String(1)
	if name != "Joe" {
		t.Fatalf("name = %q", name)
	}
}

func TestExecProjectionAndArithmetic(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERID * 10 + 1 AS X FROM CUSTOMERS WHERE CUSTOMERID = 3")
	rows.Next()
	x, ok, err := rows.Int64(0)
	if err != nil || !ok || x != 31 {
		t.Fatalf("x = %v %v %v", x, ok, err)
	}
}

func TestExecWhereFiltersAndNullSemantics(t *testing.T) {
	// CITY = 'Springfield' matches Joe and Bob; Ann's NULL city must not
	// match any equality (including <>).
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY = 'Springfield' ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Joe,Bob" {
		t.Fatalf("got %s", got)
	}
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY <> 'Springfield' ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Sue,Eve" {
		t.Fatalf("NULL must not satisfy <>: got %s", got)
	}
}

func TestExecIsNull(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY IS NULL")
	if got := joined(t, rows, 0); got != "Ann" {
		t.Fatalf("got %s", got)
	}
	rows = run(t, "SELECT COUNT(*) FROM CUSTOMERS WHERE CITY IS NOT NULL")
	rows.Next()
	if n, _, _ := rows.Int64(0); n != 4 {
		t.Fatalf("count = %d", n)
	}
}

func TestExecOrderBy(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME DESC")
	if got := joined(t, rows, 0); got != "Sue,Joe,Eve,Bob,Ann" {
		t.Fatalf("got %s", got)
	}
	// Numeric ordering must be numeric, not lexical.
	rows = run(t, "SELECT PAYMENT FROM PAYMENTS ORDER BY PAYMENT")
	if got := joined(t, rows, 0); got != "5,10,20,50.25,100.5" {
		t.Fatalf("got %s", got)
	}
}

func TestExecOrderByOrdinalAndAlias(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME, CUSTOMERID AS N FROM CUSTOMERS ORDER BY 2 DESC")
	if got := joined(t, rows, 0); got != "Eve,Bob,Ann,Sue,Joe" {
		t.Fatalf("ordinal: got %s", got)
	}
	rows = run(t, "SELECT CUSTOMERID * -1 AS NEG FROM CUSTOMERS ORDER BY NEG")
	if got := joined(t, rows, 0); got != "-5,-4,-3,-2,-1" {
		t.Fatalf("alias: got %s", got)
	}
}

func TestExecOrderByNonProjectedColumn(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC")
	if got := joined(t, rows, 0); got != "Eve,Bob,Ann,Sue,Joe" {
		t.Fatalf("got %s", got)
	}
}

func TestExecInnerJoin(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT
		FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID
		ORDER BY PAYMENTS.PAYMENTID`)
	if rows.Len() != 4 { // payment 5 has no matching customer
		t.Fatalf("rows = %d", rows.Len())
	}
	if got := joined(t, rows, 0); got != "Joe,Joe,Sue,Bob" {
		t.Fatalf("got %s", got)
	}
}

func TestExecCommaJoinEqualsInnerJoin(t *testing.T) {
	a := run(t, "SELECT COUNT(*) FROM CUSTOMERS, PAYMENTS WHERE CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
	b := run(t, "SELECT COUNT(*) FROM CUSTOMERS JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
	a.Next()
	b.Next()
	na, _, _ := a.Int64(0)
	nb, _, _ := b.Int64(0)
	if na != nb || na != 4 {
		t.Fatalf("counts = %d, %d", na, nb)
	}
}

func TestExecLeftOuterJoin(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT
		FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID
		ORDER BY CUSTOMERS.CUSTOMERID`)
	// Joe×2, Sue×1, Ann (NULL), Bob×1, Eve (NULL) = 6 rows.
	if rows.Len() != 6 {
		t.Fatalf("rows = %d", rows.Len())
	}
	names := column(t, rows, 0)
	payments := column(t, rows, 1)
	if strings.Join(names, ",") != "Joe,Joe,Sue,Ann,Bob,Eve" {
		t.Fatalf("names = %v", names)
	}
	if payments[3] != "NULL" || payments[5] != "NULL" {
		t.Fatalf("payments = %v", payments)
	}
}

func TestExecRightOuterJoin(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENTID
		FROM CUSTOMERS RIGHT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID
		ORDER BY PAYMENTS.PAYMENTID`)
	// All 5 payments preserved; payment 5's customer is NULL.
	if rows.Len() != 5 {
		t.Fatalf("rows = %d", rows.Len())
	}
	names := column(t, rows, 0)
	if names[4] != "NULL" {
		t.Fatalf("names = %v", names)
	}
}

func TestExecFullOuterJoin(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENTID
		FROM CUSTOMERS FULL OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID`)
	// 4 matches + Ann + Eve unmatched + payment 5 unmatched = 7 rows.
	if rows.Len() != 7 {
		t.Fatalf("rows = %d", rows.Len())
	}
	names := column(t, rows, 0)
	ids := column(t, rows, 1)
	nullNames, nullIDs := 0, 0
	for i := range names {
		if names[i] == "NULL" {
			nullNames++
		}
		if ids[i] == "NULL" {
			nullIDs++
		}
	}
	if nullNames != 1 || nullIDs != 2 {
		t.Fatalf("null names = %d, null ids = %d", nullNames, nullIDs)
	}
}

func TestExecJoinUsingAndNatural(t *testing.T) {
	rows := run(t, "SELECT COUNT(*) FROM CUSTOMERS JOIN PO_CUSTOMERS USING (CUSTOMERID)")
	rows.Next()
	if n, _, _ := rows.Int64(0); n != 4 {
		t.Fatalf("using count = %d", n)
	}
	// NATURAL join on common column CUSTOMERID.
	rows = run(t, "SELECT COUNT(*) FROM CUSTOMERS NATURAL JOIN PO_CUSTOMERS")
	rows.Next()
	if n, _, _ := rows.Int64(0); n != 4 {
		t.Fatalf("natural count = %d", n)
	}
}

func TestExecParenthesizedAliasedJoin(t *testing.T) {
	// The §3.4.2 shape: a join of a table with an aliased join.
	rows := run(t, `SELECT P.PAYMENTID FROM
		(CUSTOMERS JOIN (PAYMENTS JOIN PO_CUSTOMERS ON PAYMENTS.CUSTID = PO_CUSTOMERS.CUSTOMERID) AS P
		 ON CUSTOMERS.CUSTOMERID = P.CUSTID)
		ORDER BY P.PAYMENTID`)
	// payments joined to orders on customer: payments of cust 1 (×2
	// orders), cust 2 (×1). pay1×2, pay2×2, pay3×1 = 5 rows.
	if rows.Len() != 5 {
		t.Fatalf("rows = %d: %v", rows.Len(), column(t, rows, 0))
	}
}

func TestExecDerivedTable(t *testing.T) {
	rows := run(t, `SELECT INFO.ID, INFO.NAME
		FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO
		WHERE INFO.ID > 3 ORDER BY INFO.ID`)
	if got := joined(t, rows, 1); got != "Bob,Eve" {
		t.Fatalf("got %s", got)
	}
}

func TestExecGroupByWithAggregates(t *testing.T) {
	rows := run(t, `SELECT CUSTID, COUNT(*) AS N, SUM(PAYMENT) AS TOTAL, MIN(PAYMENT) AS LO, MAX(PAYMENT) AS HI
		FROM PAYMENTS GROUP BY CUSTID ORDER BY CUSTID`)
	if rows.Len() != 4 {
		t.Fatalf("groups = %d", rows.Len())
	}
	if got := joined(t, rows, 0); got != "1,2,4,99" {
		t.Fatalf("custids = %s", got)
	}
	if got := joined(t, rows, 1); got != "2,1,1,1" {
		t.Fatalf("counts = %s", got)
	}
	if got := joined(t, rows, 2); got != "150.75,20,10,5" {
		t.Fatalf("sums = %s", got)
	}
	if got := joined(t, rows, 3); got != "50.25,20,10,5" {
		t.Fatalf("mins = %s", got)
	}
}

func TestExecGroupByNullKey(t *testing.T) {
	rows := run(t, "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY ORDER BY 2 DESC, CITY")
	// Springfield×2, then Lakeside, NULL, Riverton ordered by city asc
	// (NULL sorts first with empty-least).
	if rows.Len() != 4 {
		t.Fatalf("groups = %d", rows.Len())
	}
	cities := column(t, rows, 0)
	if cities[0] != "Springfield" {
		t.Fatalf("cities = %v", cities)
	}
	found := false
	for _, c := range cities {
		if c == "NULL" {
			found = true
		}
	}
	if !found {
		t.Fatal("NULL city group missing")
	}
}

func TestExecHaving(t *testing.T) {
	rows := run(t, `SELECT CUSTID FROM PAYMENTS GROUP BY CUSTID HAVING COUNT(*) > 1`)
	if got := joined(t, rows, 0); got != "1" {
		t.Fatalf("got %s", got)
	}
	rows = run(t, `SELECT CUSTID, SUM(PAYMENT) FROM PAYMENTS GROUP BY CUSTID HAVING SUM(PAYMENT) >= 20 ORDER BY CUSTID`)
	if got := joined(t, rows, 0); got != "1,2" {
		t.Fatalf("got %s", got)
	}
}

func TestExecImplicitGroupOverEmptyInput(t *testing.T) {
	rows := run(t, "SELECT COUNT(*), SUM(PRICE) FROM PO_ITEMS")
	if rows.Len() != 1 {
		t.Fatalf("aggregate query must return exactly one row, got %d", rows.Len())
	}
	rows.Next()
	n, _, _ := rows.Int64(0)
	if n != 0 {
		t.Fatalf("count = %d", n)
	}
	if null, _ := rows.IsNull(1); !null {
		t.Fatal("SUM over empty input must be NULL")
	}
}

func TestExecAggregateIgnoresNulls(t *testing.T) {
	// COUNT(CITY) skips Ann's NULL city.
	rows := run(t, "SELECT COUNT(CITY), COUNT(*) FROM CUSTOMERS")
	rows.Next()
	cityCount, _, _ := rows.Int64(0)
	starCount, _, _ := rows.Int64(1)
	if cityCount != 4 || starCount != 5 {
		t.Fatalf("counts = %d, %d", cityCount, starCount)
	}
}

func TestExecCountDistinct(t *testing.T) {
	rows := run(t, "SELECT COUNT(DISTINCT CITY) FROM CUSTOMERS")
	rows.Next()
	if n, _, _ := rows.Int64(0); n != 3 {
		t.Fatalf("distinct cities = %d", n)
	}
}

func TestExecAggregateOverExpression(t *testing.T) {
	rows := run(t, "SELECT SUM(PAYMENT * 2) FROM PAYMENTS WHERE CUSTID = 1")
	rows.Next()
	f, _, _ := rows.Float64(0)
	if f != 301.5 {
		t.Fatalf("sum = %v", f)
	}
}

func TestExecAvg(t *testing.T) {
	rows := run(t, "SELECT AVG(PAYMENT) FROM PAYMENTS WHERE CUSTID = 1")
	rows.Next()
	f, _, _ := rows.Float64(0)
	if f != 75.375 {
		t.Fatalf("avg = %v", f)
	}
}

func TestExecDistinct(t *testing.T) {
	rows := run(t, "SELECT DISTINCT CITY FROM CUSTOMERS WHERE CITY IS NOT NULL ORDER BY CITY")
	if got := joined(t, rows, 0); got != "Lakeside,Riverton,Springfield" {
		t.Fatalf("got %s", got)
	}
}

func TestExecDistinctTreatsNullAsOneRow(t *testing.T) {
	rows := run(t, "SELECT DISTINCT CITY FROM CUSTOMERS")
	if rows.Len() != 4 { // 3 cities + NULL
		t.Fatalf("rows = %d", rows.Len())
	}
}

func TestExecSetOperations(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "1,2,3,4,5,99" {
		t.Fatalf("union: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM PAYMENTS`)
	if rows.Len() != 10 {
		t.Fatalf("union all rows = %d", rows.Len())
	}
	rows = run(t, `SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "3,5" {
		t.Fatalf("except: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERID FROM CUSTOMERS INTERSECT SELECT CUSTID FROM PAYMENTS ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "1,2,4" {
		t.Fatalf("intersect: %s", got)
	}
}

func TestExecInListAndSubquery(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (2, 4) ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Sue,Bob" {
		t.Fatalf("in list: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue,Bob" {
		t.Fatalf("in subquery: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE CUSTOMERID NOT IN (SELECT CUSTID FROM PAYMENTS) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Ann,Eve" {
		t.Fatalf("not in: %s", got)
	}
}

func TestExecCorrelatedExists(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS C
		WHERE EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)
		ORDER BY C.CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue,Bob" {
		t.Fatalf("exists: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS C
		WHERE NOT EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)
		ORDER BY C.CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Ann,Eve" {
		t.Fatalf("not exists: %s", got)
	}
}

func TestExecScalarSubquery(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = (SELECT MAX(CUSTID) FROM PAYMENTS WHERE CUSTID < 10)")
	if got := joined(t, rows, 0); got != "Bob" {
		t.Fatalf("got %s", got)
	}
}

func TestExecQuantified(t *testing.T) {
	rows := run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE CUSTOMERID > ALL (SELECT CUSTID FROM PAYMENTS WHERE CUSTID < 3) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Ann,Bob,Eve" {
		t.Fatalf("> ALL: %s", got)
	}
	rows = run(t, `SELECT CUSTOMERNAME FROM CUSTOMERS
		WHERE CUSTOMERID = ANY (SELECT CUSTID FROM PAYMENTS) ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "Joe,Sue,Bob" {
		t.Fatalf("= ANY: %s", got)
	}
}

func TestExecLike(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '%e' ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Joe,Sue,Eve" {
		t.Fatalf("like: %s", got)
	}
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME NOT LIKE '%e' ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Ann,Bob" {
		t.Fatalf("not like: %s", got)
	}
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY LIKE '_iverton'")
	if got := joined(t, rows, 0); got != "Sue" {
		t.Fatalf("underscore: %s", got)
	}
}

func TestExecBetween(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID BETWEEN 2 AND 4 ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Sue,Ann,Bob" {
		t.Fatalf("between: %s", got)
	}
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID NOT BETWEEN 2 AND 4 ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Joe,Eve" {
		t.Fatalf("not between: %s", got)
	}
}

func TestExecCase(t *testing.T) {
	rows := run(t, `SELECT CASE WHEN CUSTOMERID < 3 THEN 'low' WHEN CUSTOMERID < 5 THEN 'mid' ELSE 'high' END AS TIER
		FROM CUSTOMERS ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "low,low,mid,mid,high" {
		t.Fatalf("searched case: %s", got)
	}
	rows = run(t, `SELECT CASE CITY WHEN 'Springfield' THEN 'S' ELSE 'O' END FROM CUSTOMERS ORDER BY CUSTOMERID`)
	if got := joined(t, rows, 0); got != "S,O,O,S,O" {
		t.Fatalf("simple case: %s", got)
	}
	// CASE without ELSE yields NULL.
	rows = run(t, `SELECT CASE WHEN CUSTOMERID = 1 THEN 'one' END FROM CUSTOMERS WHERE CUSTOMERID = 2`)
	rows.Next()
	if null, _ := rows.IsNull(0); !null {
		t.Fatal("CASE fallthrough must be NULL")
	}
}

func TestExecScalarFunctions(t *testing.T) {
	rows := run(t, `SELECT UPPER(CUSTOMERNAME), LOWER(CUSTOMERNAME), LENGTH(CUSTOMERNAME),
		SUBSTRING(CUSTOMERNAME FROM 1 FOR 2), CUSTOMERNAME || '!' FROM CUSTOMERS WHERE CUSTOMERID = 1`)
	rows.Next()
	vals := make([]string, 5)
	for i := range vals {
		vals[i], _, _ = rows.String(i)
	}
	want := []string{"JOE", "joe", "3", "Jo", "Joe!"}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("col %d = %q, want %q", i, vals[i], want[i])
		}
	}
}

func TestExecCoalesceAndNullif(t *testing.T) {
	rows := run(t, "SELECT COALESCE(CITY, 'unknown') FROM CUSTOMERS ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Springfield,Riverton,unknown,Springfield,Lakeside" {
		t.Fatalf("coalesce: %s", got)
	}
	rows = run(t, "SELECT NULLIF(CITY, 'Springfield') FROM CUSTOMERS ORDER BY CUSTOMERID")
	vals := column(t, rows, 0)
	if vals[0] != "NULL" || vals[1] != "Riverton" || vals[3] != "NULL" {
		t.Fatalf("nullif: %v", vals)
	}
}

func TestExecExtractAndDates(t *testing.T) {
	rows := run(t, "SELECT EXTRACT(YEAR FROM SIGNUPDATE) FROM CUSTOMERS WHERE CUSTOMERID = 1")
	rows.Next()
	if y, _, _ := rows.Int64(0); y != 2005 {
		t.Fatalf("year = %d", y)
	}
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE SIGNUPDATE > DATE '2005-01-01' ORDER BY CUSTOMERID")
	if got := joined(t, rows, 0); got != "Joe,Eve" {
		t.Fatalf("date compare: %s", got)
	}
}

func TestExecCast(t *testing.T) {
	rows := run(t, "SELECT CAST(PAYMENT AS INTEGER) FROM PAYMENTS WHERE PAYMENTID = 1")
	rows.Next()
	if n, _, _ := rows.Int64(0); n != 100 {
		t.Fatalf("cast = %d", n)
	}
}

func TestExecPreparedParameters(t *testing.T) {
	rows := run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?", xdm.Integer(4))
	if got := joined(t, rows, 0); got != "Bob" {
		t.Fatalf("param: %s", got)
	}
	// String-typed parameter arrives as a string and is cast server-side.
	rows = run(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?", xdm.String("2"))
	if got := joined(t, rows, 0); got != "Sue" {
		t.Fatalf("string param: %s", got)
	}
}

func TestExecSelectWithoutFrom(t *testing.T) {
	rows := run(t, "SELECT 1, 'x' AS LBL")
	if rows.Len() != 1 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	n, _, _ := rows.Int64(0)
	s, _, _ := rows.String(1)
	if n != 1 || s != "x" {
		t.Fatalf("got %d %q", n, s)
	}
}

func TestExecTextModeMatchesXMLMode(t *testing.T) {
	queries := []string{
		"SELECT * FROM CUSTOMERS ORDER BY CUSTOMERID",
		"SELECT CUSTOMERNAME, CITY FROM CUSTOMERS ORDER BY CUSTOMERID",
		"SELECT CUSTID, SUM(PAYMENT) FROM PAYMENTS GROUP BY CUSTID ORDER BY CUSTID",
		`SELECT CUSTOMERS.CUSTOMERNAME, PAYMENTS.PAYMENT
		 FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID
		 ORDER BY CUSTOMERS.CUSTOMERID`,
	}
	for _, q := range queries {
		xmlRows := run(t, q)
		textRows := runText(t, q)
		if xmlRows.Len() != textRows.Len() {
			t.Fatalf("%q: xml %d rows vs text %d rows", q, xmlRows.Len(), textRows.Len())
		}
		for c := range xmlRows.Columns() {
			if joined(t, xmlRows, c) != joined(t, textRows, c) {
				t.Fatalf("%q column %d differs:\nxml:  %s\ntext: %s",
					q, c, joined(t, xmlRows, c), joined(t, textRows, c))
			}
		}
	}
}

func TestExecTextModeEscaping(t *testing.T) {
	// Names containing the delimiters must round-trip via escaping.
	e := xqeval.New()
	row := xdm.NewElement("CUSTOMERS")
	row.AddChild(xdm.NewTextElement("CUSTOMERID", "1"))
	row.AddChild(xdm.NewTextElement("CUSTOMERNAME", `A <B> & "C" > D`))
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", []*xdm.Element{row})
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", nil)
	e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", nil)
	e.RegisterRows("ld:TestDataServices/PO_ITEMS", "PO_ITEMS", nil)

	tr := translator.New(catalog.Demo())
	tr.Options.Mode = translator.ModeText
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT CUSTOMERNAME FROM CUSTOMERS", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(res.Query)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := out.Singleton()
	rows, err := resultset.FromText(xdm.StringValue(it), toColumns(res.Columns))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	got, _, _ := rows.String(0)
	if got != `A <B> & "C" > D` {
		t.Fatalf("got %q", got)
	}
}

func TestExecNullVsEmptyStringInTextMode(t *testing.T) {
	e := xqeval.New()
	mk := func(id int, name string, withName bool) *xdm.Element {
		r := xdm.NewElement("CUSTOMERS")
		r.AddChild(xdm.NewTextElement("CUSTOMERID", itoa(id)))
		if withName {
			el := xdm.NewElement("CUSTOMERNAME")
			el.AddText(name)
			r.AddChild(el)
		}
		return r
	}
	e.RegisterRows("ld:TestDataServices/CUSTOMERS", "CUSTOMERS", []*xdm.Element{
		mk(1, "", true),  // empty string
		mk(2, "", false), // NULL
	})
	e.RegisterRows("ld:TestDataServices/PAYMENTS", "PAYMENTS", nil)
	e.RegisterRows("ld:TestDataServices/PO_CUSTOMERS", "PO_CUSTOMERS", nil)
	e.RegisterRows("ld:TestDataServices/PO_ITEMS", "PO_ITEMS", nil)

	tr := translator.New(catalog.Demo())
	tr.Options.Mode = translator.ModeText
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT CUSTOMERNAME FROM CUSTOMERS", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Eval(res.Query)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := out.Singleton()
	rows, err := resultset.FromText(xdm.StringValue(it), toColumns(res.Columns))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	s, ok, _ := rows.String(0)
	if !ok || s != "" {
		t.Fatalf("row 1 should be empty string, got ok=%v %q", ok, s)
	}
	rows.Next()
	if null, _ := rows.IsNull(0); !null {
		t.Fatal("row 2 should be NULL")
	}
}

func TestExecStoredProcedureStyleFunction(t *testing.T) {
	// Parameterized functions are rejected in FROM — callers use the
	// driver's procedure-call surface, tested in the driver package.
	tr := translator.New(catalog.Demo())
	_, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT * FROM getCustomerById", nil)
	if err == nil {
		t.Fatal("parameterized function as table should fail")
	}
}

// Sequence and intSeq are small aliases for the conformance matrix.
type Sequence = xdm.Sequence

func intSeq(n int64) xdm.Sequence { return xdm.SequenceOf(xdm.Integer(n)) }

func newTranslator() *translator.Translator {
	return translator.New(catalog.Demo())
}
