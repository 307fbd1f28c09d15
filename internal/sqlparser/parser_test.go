package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/qfront"
)

func mustParse(t *testing.T, src string) *qfront.SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func spec(t *testing.T, stmt *qfront.SelectStmt) *qfront.QuerySpec {
	t.Helper()
	q, ok := stmt.Body.(*qfront.QuerySpec)
	if !ok {
		t.Fatalf("body is %T, want *QuerySpec", stmt.Body)
	}
	return q
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM CUSTOMERS")
	q := spec(t, stmt)
	if len(q.Items) != 1 || !q.Items[0].Wildcard {
		t.Fatalf("items = %+v", q.Items)
	}
	tn, ok := q.From[0].(*qfront.TableName)
	if !ok || tn.Name != "CUSTOMERS" {
		t.Fatalf("from = %+v", q.From[0])
	}
}

func TestParseSelectItemsAliases(t *testing.T) {
	stmt := mustParse(t, "SELECT CUSTOMERID ID, CUSTOMERNAME AS NAME FROM CUSTOMERS")
	q := spec(t, stmt)
	if q.Items[0].Alias != "ID" || q.Items[1].Alias != "NAME" {
		t.Fatalf("aliases = %q %q", q.Items[0].Alias, q.Items[1].Alias)
	}
	if c := q.Items[0].Expr.(*qfront.ColumnRef); c.Column != "CUSTOMERID" {
		t.Fatalf("col = %+v", c)
	}
}

func TestParseQualifiedWildcard(t *testing.T) {
	stmt := mustParse(t, "SELECT C.*, O.ORDERID FROM CUSTOMERS C, ORDERS O")
	q := spec(t, stmt)
	if !q.Items[0].Wildcard || q.Items[0].Qualifier != "C" {
		t.Fatalf("item 0 = %+v", q.Items[0])
	}
	ref := q.Items[1].Expr.(*qfront.ColumnRef)
	if ref.Qualifier != "O" || ref.Column != "ORDERID" {
		t.Fatalf("item 1 = %+v", ref)
	}
	if len(q.From) != 2 {
		t.Fatalf("from = %d items", len(q.From))
	}
}

func TestParseWhereComparison(t *testing.T) {
	stmt := mustParse(t, "SELECT A FROM T WHERE A > 10 AND B = 'x' OR C <> 1.5")
	q := spec(t, stmt)
	or, ok := q.Where.(*qfront.BinaryExpr)
	if !ok || or.Op != qfront.BinOr {
		t.Fatalf("top = %+v", q.Where)
	}
	and := or.Left.(*qfront.BinaryExpr)
	if and.Op != qfront.BinAnd {
		t.Fatalf("left = %+v", or.Left)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT A + B * C - D / 2 FROM T")
	q := spec(t, stmt)
	// Expect ((A + (B*C)) - (D/2))
	top := q.Items[0].Expr.(*qfront.BinaryExpr)
	if top.Op != qfront.BinSub {
		t.Fatalf("top op = %v", top.Op)
	}
	add := top.Left.(*qfront.BinaryExpr)
	if add.Op != qfront.BinAdd {
		t.Fatalf("left = %v", add.Op)
	}
	if mul := add.Right.(*qfront.BinaryExpr); mul.Op != qfront.BinMul {
		t.Fatalf("B*C = %v", mul.Op)
	}
	if div := top.Right.(*qfront.BinaryExpr); div.Op != qfront.BinDiv {
		t.Fatalf("D/2 = %v", div.Op)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT (A + B) * C FROM T")
	q := spec(t, stmt)
	top := q.Items[0].Expr.(*qfront.BinaryExpr)
	if top.Op != qfront.BinMul {
		t.Fatalf("top = %v", top.Op)
	}
	if inner := top.Left.(*qfront.BinaryExpr); inner.Op != qfront.BinAdd {
		t.Fatalf("inner = %v", inner.Op)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	stmt := mustParse(t, "SELECT -A, -5 + 3 FROM T")
	q := spec(t, stmt)
	if u := q.Items[0].Expr.(*qfront.UnaryExpr); u.Op != qfront.UnaryMinus {
		t.Fatalf("item 0 = %+v", q.Items[0].Expr)
	}
	top := q.Items[1].Expr.(*qfront.BinaryExpr)
	if top.Op != qfront.BinAdd {
		t.Fatalf("item 1 top = %v", top.Op)
	}
}

func TestParseJoins(t *testing.T) {
	cases := []struct {
		src string
		typ qfront.JoinType
	}{
		{"SELECT * FROM A JOIN B ON A.X = B.Y", qfront.JoinInner},
		{"SELECT * FROM A INNER JOIN B ON A.X = B.Y", qfront.JoinInner},
		{"SELECT * FROM A LEFT JOIN B ON A.X = B.Y", qfront.JoinLeftOuter},
		{"SELECT * FROM A LEFT OUTER JOIN B ON A.X = B.Y", qfront.JoinLeftOuter},
		{"SELECT * FROM A RIGHT OUTER JOIN B ON A.X = B.Y", qfront.JoinRightOuter},
		{"SELECT * FROM A FULL OUTER JOIN B ON A.X = B.Y", qfront.JoinFullOuter},
		{"SELECT * FROM A CROSS JOIN B", qfront.JoinCross},
	}
	for _, c := range cases {
		q := spec(t, mustParse(t, c.src))
		j, ok := q.From[0].(*qfront.JoinExpr)
		if !ok {
			t.Fatalf("%q: from = %T", c.src, q.From[0])
		}
		if j.Type != c.typ {
			t.Fatalf("%q: type = %v, want %v", c.src, j.Type, c.typ)
		}
		if c.typ != qfront.JoinCross && j.Cond == nil {
			t.Fatalf("%q: missing ON condition", c.src)
		}
	}
}

func TestParseJoinChain(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT * FROM A JOIN B ON A.X=B.X JOIN C ON B.Y=C.Y"))
	outer := q.From[0].(*qfront.JoinExpr)
	inner, ok := outer.Left.(*qfront.JoinExpr)
	if !ok {
		t.Fatalf("joins should left-associate, left = %T", outer.Left)
	}
	if inner.Left.(*qfront.TableName).Name != "A" || outer.Right.(*qfront.TableName).Name != "C" {
		t.Fatal("wrong join association")
	}
}

func TestParseParenthesizedJoinWithAlias(t *testing.T) {
	// The paper's §3.4.2 example.
	src := "SELECT * FROM (A JOIN (B JOIN C ON B.C1 = C.C2) AS P ON A.C1 = P.C1)"
	q := spec(t, mustParse(t, src))
	outer := q.From[0].(*qfront.JoinExpr)
	innerJoin, ok := outer.Right.(*qfront.JoinExpr)
	if !ok {
		t.Fatalf("right side should be a join, got %T", outer.Right)
	}
	if innerJoin.Alias != "P" {
		t.Fatalf("inner join alias = %q", innerJoin.Alias)
	}
}

func TestParseNaturalAndUsing(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT * FROM A NATURAL JOIN B"))
	if j := q.From[0].(*qfront.JoinExpr); !j.Natural {
		t.Fatal("natural flag not set")
	}
	q = spec(t, mustParse(t, "SELECT * FROM A JOIN B USING (X, Y)"))
	j := q.From[0].(*qfront.JoinExpr)
	if len(j.Using) != 2 || j.Using[0] != "X" {
		t.Fatalf("using = %v", j.Using)
	}
}

func TestParseDerivedTable(t *testing.T) {
	src := "SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10"
	q := spec(t, mustParse(t, src))
	d, ok := q.From[0].(*qfront.DerivedTable)
	if !ok || d.Alias != "INFO" {
		t.Fatalf("from = %+v", q.From[0])
	}
	inner := spec(t, d.Query)
	if inner.Items[0].Alias != "ID" {
		t.Fatalf("inner items = %+v", inner.Items)
	}
}

func TestParseDerivedTableRequiresAlias(t *testing.T) {
	if _, err := Parse("SELECT * FROM (SELECT A FROM T)"); err == nil {
		t.Fatal("derived table without alias should be rejected")
	}
}

func TestParseDerivedColumnList(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT * FROM (SELECT A, B FROM T) AS D (X, Y)"))
	d := q.From[0].(*qfront.DerivedTable)
	if len(d.ColumnAliases) != 2 || d.ColumnAliases[1] != "Y" {
		t.Fatalf("column aliases = %v", d.ColumnAliases)
	}
}

func TestParseGroupByHaving(t *testing.T) {
	src := "SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT HAVING COUNT(*) > 5"
	q := spec(t, mustParse(t, src))
	if len(q.GroupBy) != 1 {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	if q.Having == nil {
		t.Fatal("missing having")
	}
	f := q.Items[1].Expr.(*qfront.FuncCall)
	if !f.Star || f.Name != "COUNT" || !f.IsAggregate() {
		t.Fatalf("count(*) = %+v", f)
	}
}

func TestParseAggregateDistinct(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT COUNT(DISTINCT CITY) FROM T"))
	f := q.Items[0].Expr.(*qfront.FuncCall)
	if !f.Distinct || len(f.Args) != 1 {
		t.Fatalf("f = %+v", f)
	}
	if _, err := Parse("SELECT COUNT(DISTINCT A, B) FROM T"); err == nil {
		t.Fatal("DISTINCT with two args should be rejected")
	}
}

func TestParseOrderBy(t *testing.T) {
	stmt := mustParse(t, "SELECT A, B FROM T ORDER BY A DESC, 2, B ASC")
	if len(stmt.OrderBy) != 3 {
		t.Fatalf("order by = %v", stmt.OrderBy)
	}
	if !stmt.OrderBy[0].Desc || stmt.OrderBy[2].Desc {
		t.Fatal("desc flags wrong")
	}
	if lit, ok := stmt.OrderBy[1].Expr.(*qfront.Literal); !ok || lit.Text != "2" {
		t.Fatalf("ordinal = %+v", stmt.OrderBy[1].Expr)
	}
}

func TestParseSetOps(t *testing.T) {
	stmt := mustParse(t, "SELECT A FROM T UNION SELECT A FROM U INTERSECT SELECT A FROM V")
	// INTERSECT binds tighter: UNION(T, INTERSECT(U, V))
	union, ok := stmt.Body.(*qfront.SetOpExpr)
	if !ok || union.Op != qfront.SetUnion {
		t.Fatalf("top = %+v", stmt.Body)
	}
	inter, ok := union.Right.(*qfront.SetOpExpr)
	if !ok || inter.Op != qfront.SetIntersect {
		t.Fatalf("right = %+v", union.Right)
	}
}

func TestParseUnionAll(t *testing.T) {
	stmt := mustParse(t, "SELECT A FROM T UNION ALL SELECT A FROM U")
	u := stmt.Body.(*qfront.SetOpExpr)
	if !u.All {
		t.Fatal("ALL flag not set")
	}
}

func TestParseExcept(t *testing.T) {
	stmt := mustParse(t, "(SELECT A FROM T) EXCEPT (SELECT A FROM U)")
	u := stmt.Body.(*qfront.SetOpExpr)
	if u.Op != qfront.SetExcept {
		t.Fatalf("op = %v", u.Op)
	}
}

func TestParseOrderByAppliesToWholeSetOp(t *testing.T) {
	stmt := mustParse(t, "SELECT A FROM T UNION SELECT A FROM U ORDER BY A")
	if _, ok := stmt.Body.(*qfront.SetOpExpr); !ok {
		t.Fatalf("body = %T", stmt.Body)
	}
	if len(stmt.OrderBy) != 1 {
		t.Fatal("order by should attach to the set operation result")
	}
}

func TestParsePredicates(t *testing.T) {
	q := spec(t, mustParse(t, `SELECT * FROM T WHERE A BETWEEN 1 AND 10
		AND B NOT BETWEEN 2 AND 3
		AND C IN (1, 2, 3)
		AND D NOT IN (SELECT X FROM U)
		AND E LIKE 'a%' ESCAPE '\'
		AND F NOT LIKE '_b'
		AND G IS NULL
		AND H IS NOT NULL
		AND EXISTS (SELECT 1 FROM V)
		AND I = ANY (SELECT Y FROM W)
		AND J < ALL (SELECT Z FROM X2)`))
	var kinds []string
	var visit func(qfront.Expr)
	visit = func(e qfront.Expr) {
		if b, ok := e.(*qfront.BinaryExpr); ok && b.Op == qfront.BinAnd {
			visit(b.Left)
			visit(b.Right)
			return
		}
		switch e := e.(type) {
		case *qfront.BetweenExpr:
			if e.Not {
				kinds = append(kinds, "notbetween")
			} else {
				kinds = append(kinds, "between")
			}
		case *qfront.InExpr:
			if e.Subquery != nil {
				kinds = append(kinds, "insub")
			} else {
				kinds = append(kinds, "inlist")
			}
		case *qfront.LikeExpr:
			if e.Escape != nil {
				kinds = append(kinds, "likeesc")
			} else {
				kinds = append(kinds, "like")
			}
		case *qfront.IsNullExpr:
			if e.Not {
				kinds = append(kinds, "notnull")
			} else {
				kinds = append(kinds, "isnull")
			}
		case *qfront.ExistsExpr:
			kinds = append(kinds, "exists")
		case *qfront.QuantifiedExpr:
			kinds = append(kinds, "quant:"+e.Quant.String())
		default:
			kinds = append(kinds, "other")
		}
	}
	visit(q.Where)
	want := "between notbetween inlist insub likeesc like isnull notnull exists quant:ANY quant:ALL"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("predicates = %s\nwant %s", got, want)
	}
}

func TestParseCase(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT CASE WHEN A > 1 THEN 'big' ELSE 'small' END FROM T"))
	c := q.Items[0].Expr.(*qfront.CaseExpr)
	if c.Operand != nil || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case = %+v", c)
	}
	q = spec(t, mustParse(t, "SELECT CASE A WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM T"))
	c = q.Items[0].Expr.(*qfront.CaseExpr)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Fatalf("case = %+v", c)
	}
	if _, err := Parse("SELECT CASE END FROM T"); err == nil {
		t.Fatal("CASE without WHEN should be rejected")
	}
}

func TestParseCast(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT CAST(A AS DECIMAL(10, 2)), CAST(B AS INT) FROM T"))
	c := q.Items[0].Expr.(*qfront.CastExpr)
	if c.Type.Name != "DECIMAL" || c.Type.Precision != 10 || c.Type.Scale != 2 {
		t.Fatalf("type = %+v", c.Type)
	}
	c2 := q.Items[1].Expr.(*qfront.CastExpr)
	if c2.Type.Name != "INTEGER" {
		t.Fatalf("INT should canonicalize to INTEGER, got %s", c2.Type.Name)
	}
}

func TestParseSpecialFunctionForms(t *testing.T) {
	q := spec(t, mustParse(t, `SELECT SUBSTRING(NAME FROM 2 FOR 3),
		SUBSTRING(NAME, 2), POSITION('a' IN NAME), EXTRACT(YEAR FROM D),
		TRIM(LEADING FROM NAME), TRIM(NAME), TRIM(BOTH 'x' FROM NAME) FROM T`))
	names := []string{}
	for _, it := range q.Items {
		names = append(names, it.Expr.(*qfront.FuncCall).Name)
	}
	want := "SUBSTRING SUBSTRING POSITION EXTRACT_YEAR LTRIM TRIM TRIM"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("names = %s, want %s", got, want)
	}
	sub := q.Items[0].Expr.(*qfront.FuncCall)
	if len(sub.Args) != 3 {
		t.Fatalf("substring args = %d", len(sub.Args))
	}
	trimBoth := q.Items[6].Expr.(*qfront.FuncCall)
	if len(trimBoth.Args) != 2 {
		t.Fatalf("trim-both args = %d", len(trimBoth.Args))
	}
}

func TestParseDatetimeLiterals(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT * FROM T WHERE D = DATE '2006-01-02' AND TS = TIMESTAMP '2006-01-02 10:00:00'"))
	refs := 0
	qfront.WalkExpr(q.Where, func(e qfront.Expr) bool {
		if l, ok := e.(*qfront.Literal); ok && (l.Type == qfront.LitDate || l.Type == qfront.LitTimestamp) {
			refs++
		}
		return true
	})
	if refs != 2 {
		t.Fatalf("datetime literals found = %d", refs)
	}
}

func TestParseParams(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM T WHERE A = ? AND B > ?")
	if stmt.ParamCount != 2 {
		t.Fatalf("param count = %d", stmt.ParamCount)
	}
	q := spec(t, stmt)
	params := qfront.CollectParams(q.Where)
	if len(params) != 2 || params[0].Index != 1 || params[1].Index != 2 {
		t.Fatalf("params = %+v", params)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT (SELECT MAX(X) FROM U) FROM T"))
	if _, ok := q.Items[0].Expr.(*qfront.SubqueryExpr); !ok {
		t.Fatalf("item = %T", q.Items[0].Expr)
	}
}

func TestParseConcat(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT A || B || 'x' FROM T"))
	top := q.Items[0].Expr.(*qfront.BinaryExpr)
	if top.Op != qfront.BinConcat {
		t.Fatalf("op = %v", top.Op)
	}
}

func TestParseStringConcatFunction(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT CONCAT(A, B) FROM T"))
	f := q.Items[0].Expr.(*qfront.FuncCall)
	if f.Name != "CONCAT" || len(f.Args) != 2 {
		t.Fatalf("f = %+v", f)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T GROUP",
		"SELECT * FROM T ORDER",
		"INSERT INTO T VALUES (1)",
		"SELECT * FROM T JOIN U", // missing ON/USING
		"SELECT * FROM T trailing garbage (",
		"SELECT A B C FROM T",
		"SELECT * FROM T WHERE A NOT 5",
		"SELECT CAST(A AS ) FROM T",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("Parse(%q) error type = %T", src, err)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT *\nFROM T WHERE ???")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if pe.Pos.Line != 2 {
		t.Fatalf("pos = %v", pe.Pos)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("message %q should include position", err.Error())
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT * FROM T;")
}

func TestSQLRoundTripReparses(t *testing.T) {
	srcs := []string{
		"SELECT * FROM CUSTOMERS",
		"SELECT DISTINCT A AS X, B FROM T WHERE A > 10 ORDER BY X DESC",
		"SELECT C.A, D.B FROM C INNER JOIN D ON C.K = D.K",
		"SELECT * FROM (SELECT A FROM T) AS S WHERE S.A IS NOT NULL",
		"SELECT A FROM T UNION ALL SELECT A FROM U",
		"SELECT DEPT, COUNT(*) FROM EMP GROUP BY DEPT HAVING COUNT(*) > 2",
		"SELECT CASE WHEN A = 1 THEN 'x' ELSE 'y' END FROM T",
		"SELECT CAST(A AS VARCHAR(10)) FROM T",
		"SELECT * FROM A LEFT OUTER JOIN B ON A.X = B.Y",
		"SELECT SUM(X * 2) / COUNT(*) FROM T WHERE Y BETWEEN 1 AND 2",
	}
	for _, src := range srcs {
		stmt := mustParse(t, src)
		rendered := stmt.SQL()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, src, err)
		}
		if stmt2.SQL() != rendered {
			t.Fatalf("SQL() not stable:\n 1: %s\n 2: %s", rendered, stmt2.SQL())
		}
	}
}

func TestWalkHelpers(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT SUM(A + B), C FROM T WHERE D > (SELECT MAX(E) FROM U)"))
	if !qfront.ContainsAggregate(q.Items[0].Expr) {
		t.Fatal("SUM should be detected")
	}
	if qfront.ContainsAggregate(q.Items[1].Expr) {
		t.Fatal("C is not an aggregate")
	}
	// Aggregates inside subqueries must not leak out.
	if qfront.ContainsAggregate(q.Where) {
		t.Fatal("MAX inside subquery should not count at the outer level")
	}
	refs := qfront.CollectColumnRefs(q.Items[0].Expr)
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
	aggs := qfront.CollectAggregates(q.Items[0].Expr)
	if len(aggs) != 1 || aggs[0].Name != "SUM" {
		t.Fatalf("aggs = %v", aggs)
	}
}

func TestWalkTableRefs(t *testing.T) {
	q := spec(t, mustParse(t, "SELECT * FROM A JOIN B ON A.X=B.X, C"))
	var names []string
	qfront.WalkTableRefs(q.From, func(r qfront.TableRef) {
		if tn, ok := r.(*qfront.TableName); ok {
			names = append(names, tn.Name)
		}
	})
	if strings.Join(names, " ") != "A B C" {
		t.Fatalf("names = %v", names)
	}
}
