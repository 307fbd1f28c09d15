package translator

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

func newTestTranslator() *Translator {
	return New(catalog.Demo())
}

func translate(t *testing.T, sql string) *Result {
	t.Helper()
	res, err := newTestTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, sql, nil)
	if err != nil {
		t.Fatalf("Translate(%q): %v", sql, err)
	}
	return res
}

func assertContains(t *testing.T, xq string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(xq, w) {
			t.Fatalf("generated XQuery missing %q:\n%s", w, xq)
		}
	}
}

// TestGoldenExample6 reproduces the paper's Examples 5/6: SELECT * FROM
// CUSTOMERS becomes a schema import, a for over the function, and a
// RECORDSET/RECORD constructor with fn:data projections.
func TestGoldenExample6(t *testing.T) {
	res := translate(t, "SELECT * FROM CUSTOMERS")
	xq := res.XQuery()
	assertContains(t, xq,
		"import schema namespace ns0 =",
		`"ld:TestDataServices/CUSTOMERS" at`,
		`"ld:TestDataServices/schemas/CUSTOMERS.xsd";`,
		"<RECORDSET>",
		"for $var1FR1 in ns0:CUSTOMERS()",
		"return",
		"<RECORD>",
		"<CUSTOMERID>{fn:data($var1FR1/CUSTOMERID)}</CUSTOMERID>",
		"<CUSTOMERNAME>{fn:data($var1FR1/CUSTOMERNAME)}</CUSTOMERNAME>",
		"</RECORD>",
		"</RECORDSET>",
	)
	// Wildcard expansion (stage two, Figure 6) produced all four columns.
	if len(res.Columns) != 4 {
		t.Fatalf("columns = %d, want 4", len(res.Columns))
	}
	if res.Columns[0].Label != "CUSTOMERID" || res.Columns[0].Type != catalog.SQLInteger {
		t.Fatalf("column 0 = %+v", res.Columns[0])
	}
}

// TestGoldenExample4 reproduces Example 4's aliasing: SELECT CUSTOMERID ID
// renames the output element to the SQL alias.
func TestGoldenExample4(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS")
	assertContains(t, res.XQuery(),
		"<ID>{fn:data($var1FR1/CUSTOMERID)}</ID>",
		"<NAME>{fn:data($var1FR1/CUSTOMERNAME)}</NAME>",
	)
	if res.Columns[0].Label != "ID" || res.Columns[1].Label != "NAME" {
		t.Fatalf("labels = %+v", res.Columns)
	}
}

// TestGoldenExample8 reproduces Example 7/8: a FROM subquery becomes a
// let-bound RECORDSET, the outer query iterates its RECORD rows, and the
// literal in the WHERE gets a cast (xs:integer(10)).
func TestGoldenExample8(t *testing.T) {
	res := translate(t, `SELECT INFO.ID, INFO.NAME
		FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME FROM CUSTOMERS) AS INFO
		WHERE INFO.ID > 10`)
	xq := res.XQuery()
	assertContains(t, xq,
		"let $tempvar1FR2 :=",
		"<RECORDSET>",
		"for $var2FR1 in ns0:CUSTOMERS()",
		"<ID>{fn:data($var2FR1/CUSTOMERID)}</ID>",
		"for $var1FR3 in $tempvar1FR2/RECORD",
		"where ($var1FR3/ID > xs:integer(10))",
		"<INFO.ID>{fn:data($var1FR3/ID)}</INFO.ID>",
		"<INFO.NAME>{fn:data($var1FR3/NAME)}</INFO.NAME>",
	)
	// Output element names preserve qualification; labels are bare.
	if res.Columns[0].ElementName != "INFO.ID" || res.Columns[0].Label != "ID" {
		t.Fatalf("column 0 = %+v", res.Columns[0])
	}
}

// TestGoldenExample10 reproduces the left outer join translation: the
// null-extended side becomes an XPath filter with a relative path, and an
// if (fn:empty(...)) then/else pads unmatched rows.
func TestGoldenExample10(t *testing.T) {
	res := translate(t, `SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT
		FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS
		ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID`)
	xq := res.XQuery()
	assertContains(t, xq,
		"import schema namespace ns0 =",
		"import schema namespace ns1 =",
		"ns1:PAYMENTS()[($var1FR1/CUSTOMERID = CUSTID)]",
		"if (fn:empty($tempvar1FR3)) then",
		"else",
		"<CUSTOMERS.CUSTOMERID>",
		"<PAYMENTS.PAYMENT>",
	)
	if !res.Columns[1].Nullable {
		t.Fatal("outer-joined column must be nullable")
	}
}

// TestGoldenExample12 reproduces the complex grouped query shape: the join
// materializes behind a let, grouping uses the BEA group-by extension with
// partition and key variables, and aggregates apply over the partition.
func TestGoldenExample12(t *testing.T) {
	res := translate(t, `SELECT CUSTOMERS.CUSTOMERID, COUNT(*) CNT
		FROM CUSTOMERS, PO_CUSTOMERS
		WHERE CUSTOMERS.CUSTOMERID = PO_CUSTOMERS.CUSTOMERID
		GROUP BY CUSTOMERS.CUSTOMERID
		ORDER BY 2 DESC`)
	xq := res.XQuery()
	assertContains(t, xq,
		"for $var1FR1 in ns0:CUSTOMERS()",
		"for $var1FR2 in ns1:PO_CUSTOMERS()",
		"where ($var1FR1/CUSTOMERID = $var1FR2/CUSTOMERID)",
		"let $tempvar1GB3 :=",
		"group $var1GB4 as $var1Partition5 by",
		"fn:count($var1Partition5)",
		"order by",
		"descending",
	)
	if res.Columns[1].Label != "CNT" || res.Columns[1].Type != catalog.SQLInteger {
		t.Fatalf("count column = %+v", res.Columns[1])
	}
}

// TestGoldenSection4Wrapper reproduces §4's text-mode wrapper: string-join
// over rows of delimiter-prefixed, escaped, serialized values.
func TestGoldenSection4Wrapper(t *testing.T) {
	tr := New(catalog.Demo())
	tr.Options.Mode = ModeText
	res, err := tr.TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS", nil)
	if err != nil {
		t.Fatal(err)
	}
	xq := res.XQuery()
	assertContains(t, xq,
		"fn:string-join(",
		"let $actualQuery :=",
		"for $tokenQuery in $actualQuery/RECORD",
		`">"`,
		`"<"`,
		"fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(fn:data($tokenQuery/CUSTOMERID)))",
	)
}

func TestGoldenQualifiedWildcard(t *testing.T) {
	res := translate(t, "SELECT C.*, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID")
	if len(res.Columns) != 5 {
		t.Fatalf("columns = %d", len(res.Columns))
	}
	assertContains(t, res.XQuery(), "<C.CUSTOMERID>", "<P.PAYMENT>")
}

func TestGoldenInnerJoinFlattens(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERS.CUSTOMERNAME FROM CUSTOMERS INNER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID")
	xq := res.XQuery()
	assertContains(t, xq,
		"for $var1FR1 in ns0:CUSTOMERS()",
		"for $var1FR2 in ns1:PAYMENTS()",
		"where ($var1FR1/CUSTOMERID = $var1FR2/CUSTID)",
	)
	if strings.Contains(xq, "PAYMENTS()[") {
		t.Fatal("inner join should not use the outer-join filter pattern")
	}
}

func TestGoldenDistinct(t *testing.T) {
	res := translate(t, "SELECT DISTINCT CITY FROM CUSTOMERS")
	assertContains(t, res.XQuery(), "fn-bea:distinct-rows(")
}

func TestGoldenUnion(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS")
	assertContains(t, res.XQuery(), "fn-bea:distinct-rows(")
	// Right side renamed to left's element names.
	if res.Columns[0].ElementName != "CUSTOMERID" {
		t.Fatalf("cols = %+v", res.Columns)
	}
}

func TestGoldenUnionAllKeepsDuplicates(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS UNION ALL SELECT CUSTID FROM PAYMENTS")
	if strings.Contains(res.XQuery(), "distinct-rows") {
		t.Fatal("UNION ALL must not deduplicate")
	}
}

func TestGoldenExceptIntersect(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS EXCEPT SELECT CUSTID FROM PAYMENTS")
	assertContains(t, res.XQuery(), "fn-bea:rows-except(")
	res = translate(t, "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT SELECT CUSTID FROM PAYMENTS")
	assertContains(t, res.XQuery(), "fn-bea:rows-intersect(")
}

func TestGoldenLikeAndBetween(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'A%' AND CUSTOMERID BETWEEN 5 AND 10")
	assertContains(t, res.XQuery(),
		"fn-bea:sql-like(fn:data($var1FR1/CUSTOMERNAME)",
		">= xs:integer(5)",
		"<= xs:integer(10)",
	)
}

func TestGoldenIsNull(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS WHERE CITY IS NULL")
	assertContains(t, res.XQuery(), "fn:empty(fn:data($var1FR1/CITY))")
	res = translate(t, "SELECT CUSTOMERID FROM CUSTOMERS WHERE CITY IS NOT NULL")
	assertContains(t, res.XQuery(), "fn:not(fn:empty(fn:data($var1FR1/CITY)))")
}

func TestGoldenExistsAndIn(t *testing.T) {
	res := translate(t, `SELECT CUSTOMERNAME FROM CUSTOMERS C
		WHERE EXISTS (SELECT 1 FROM PAYMENTS WHERE PAYMENTS.CUSTID = C.CUSTOMERID)
		AND C.CUSTOMERID IN (1, 2, 3)`)
	assertContains(t, res.XQuery(),
		"fn:exists(",
		"= (xs:integer(1), xs:integer(2), xs:integer(3))",
	)
}

func TestGoldenParameters(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?")
	if res.ParamCount != 2 {
		t.Fatalf("param count = %d", res.ParamCount)
	}
	if res.ParamTypes[0] != catalog.SQLInteger || res.ParamTypes[1] != catalog.SQLVarchar {
		t.Fatalf("param types = %v", res.ParamTypes)
	}
	assertContains(t, res.XQuery(), "xs:integer($p1)", "xs:string($p2)")
}

func TestGoldenCaseExpr(t *testing.T) {
	res := translate(t, `SELECT CASE WHEN CUSTOMERID > 100 THEN 'big' ELSE 'small' END TIER FROM CUSTOMERS`)
	assertContains(t, res.XQuery(), "if (", `"big"`, `"small"`, "<TIER>")
}

func TestGoldenScalarFunctions(t *testing.T) {
	res := translate(t, "SELECT UPPER(CUSTOMERNAME), LENGTH(CITY), SUBSTRING(CUSTOMERNAME FROM 1 FOR 3) FROM CUSTOMERS")
	assertContains(t, res.XQuery(),
		"fn:upper-case(fn:data($var1FR1/CUSTOMERNAME))",
		"fn:string-length(fn:data($var1FR1/CITY))",
		"fn:substring(fn:data($var1FR1/CUSTOMERNAME), 1, 3)",
	)
	if res.Columns[0].ElementName != "EXPR1" {
		t.Fatalf("generated name = %+v", res.Columns[0])
	}
}

func TestGoldenCastExpr(t *testing.T) {
	res := translate(t, "SELECT CAST(CUSTOMERID AS VARCHAR(10)) FROM CUSTOMERS")
	assertContains(t, res.XQuery(), "xs:string(xs:integer(fn:data($var1FR1/CUSTOMERID)))")
	if res.Columns[0].Type != catalog.SQLVarchar {
		t.Fatalf("cast type = %v", res.Columns[0].Type)
	}
}

func TestGoldenOrderByTyped(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC")
	assertContains(t, res.XQuery(), "order by xs:integer(fn:data($var1FR1/CUSTOMERID)) descending")
}

func TestGoldenHaving(t *testing.T) {
	res := translate(t, `SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 2`)
	assertContains(t, res.XQuery(), "where (fn:count($var1Partition", "> xs:integer(2)")
}

func TestGoldenAggregatesOverPartition(t *testing.T) {
	res := translate(t, `SELECT CITY, SUM(CUSTOMERID), AVG(CUSTOMERID), MIN(CUSTOMERID), MAX(CUSTOMERID), COUNT(CITY)
		FROM CUSTOMERS GROUP BY CITY`)
	xq := res.XQuery()
	assertContains(t, xq,
		"fn-bea:sql-sum(fn:data($var1Partition",
		"fn-bea:sql-avg(",
		"fn-bea:sql-min(",
		"fn-bea:sql-max(",
		"fn:count(fn:data(",
	)
	// Aggregate results are nullable except COUNT.
	if res.Columns[1].Nullable != true || res.Columns[5].Nullable != false {
		t.Fatalf("nullability: %+v", res.Columns)
	}
}

func TestGoldenCountDistinct(t *testing.T) {
	res := translate(t, "SELECT COUNT(DISTINCT CITY) FROM CUSTOMERS")
	assertContains(t, res.XQuery(), "fn:count(fn:distinct-values(")
}

func TestGoldenImplicitGroup(t *testing.T) {
	res := translate(t, "SELECT COUNT(*), MAX(CUSTOMERID) FROM CUSTOMERS")
	xq := res.XQuery()
	assertContains(t, xq, "let $var1Partition")
	if strings.Contains(xq, "group $") {
		t.Fatal("implicit single group must not emit a group by clause")
	}
}

func TestGoldenStoredProcedureRejectedAsTable(t *testing.T) {
	_, err := newTestTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, "SELECT * FROM getCustomerById", nil)
	if err == nil || !strings.Contains(err.Error(), "stored procedure") {
		t.Fatalf("err = %v", err)
	}
}

func TestSchemaImportDeduplication(t *testing.T) {
	res := translate(t, "SELECT A.CUSTOMERID, B.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B")
	if len(res.Query.Prolog.SchemaImports) != 1 {
		t.Fatalf("imports = %+v", res.Query.Prolog.SchemaImports)
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT NOPE FROM CUSTOMERS", "unknown column NOPE"},
		{"SELECT CUSTOMERS.NOPE FROM CUSTOMERS", "does not exist"},
		{"SELECT X.CUSTOMERID FROM CUSTOMERS", "unknown table or alias X"},
		{"SELECT * FROM NO_SUCH_TABLE", "no such table"},
		{"SELECT CUSTOMERID FROM CUSTOMERS, PAYMENTS WHERE PAYMENTID = PAYMENTID AND CUSTOMERID > 0 AND CUSTOMERID = CUSTID AND CUSTOMERID IN (SELECT CUSTOMERID FROM CUSTOMERS C2, PO_CUSTOMERS P2)", "ambiguous"},
		{"SELECT CUSTOMERID FROM CUSTOMERS GROUP BY CITY", "must appear in the GROUP BY clause"},
		{"SELECT CITY FROM CUSTOMERS WHERE COUNT(*) > 1", "not allowed in WHERE"},
		{"SELECT COUNT(SUM(CUSTOMERID)) FROM CUSTOMERS", "cannot be nested"},
		{"SELECT * FROM CUSTOMERS GROUP BY CITY", "not allowed with GROUP BY"},
		{"SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID, PAYMENT FROM PAYMENTS", "different column counts"},
		{"SELECT CUSTOMERID FROM CUSTOMERS ORDER BY 5", "not in the select list"},
		{"SELECT CUSTOMERID FROM CUSTOMERS C, CUSTOMERS C", "duplicate range variable"},
		{"SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTOMERID, CITY FROM CUSTOMERS)", "exactly one column"},
		{"SELECT (SELECT CUSTOMERID, CITY FROM CUSTOMERS) FROM CUSTOMERS", "exactly one column"},
		{"SELECT CUSTOMERID FROM CUSTOMERS GROUP BY COUNT(*)", "not allowed in GROUP BY"},
	}
	for _, c := range cases {
		_, err := newTestTranslator().TranslateFrontend(context.Background(), sqlparser.Front{}, c.sql, nil)
		if err == nil {
			t.Errorf("Translate(%q) should fail", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Translate(%q) error = %q, want substring %q", c.sql, err, c.want)
		}
	}
}

// TestVariableNamingScheme checks the paper's §3.5(iv) naming convention:
// var + context id + zone + unique number.
func TestVariableNamingScheme(t *testing.T) {
	res := translate(t, "SELECT CUSTOMERID FROM CUSTOMERS")
	assertContains(t, res.XQuery(), "$var1FR1")
	res = translate(t, "SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO")
	xq := res.XQuery()
	assertContains(t, xq, "$tempvar1FR2", "$var2FR1", "$var1FR3")
	_ = xq
}
