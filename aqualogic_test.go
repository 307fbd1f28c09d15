package aqualogic

import (
	"context"
	"database/sql"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/xdm"
)

func TestDemoQuery(t *testing.T) {
	p := Demo()
	rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID < ? ORDER BY CUSTOMERID", 1003)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	id, ok, err := rows.Int64(0)
	if err != nil || !ok || id != 1000 {
		t.Fatalf("id = %d %v %v", id, ok, err)
	}
}

func TestQueryModeEquivalence(t *testing.T) {
	p := Demo()
	q := "SELECT CITY, COUNT(*) AS N FROM CUSTOMERS GROUP BY CITY ORDER BY 2 DESC, CITY"
	a, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryDialect(context.Background(), DialectSQL, ModeXML, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("text %d vs xml %d rows", a.Len(), b.Len())
	}
	for a.Next() && b.Next() {
		s1, ok1, _ := a.String(0)
		s2, ok2, _ := b.String(0)
		if s1 != s2 || ok1 != ok2 {
			t.Fatalf("city %q/%v vs %q/%v", s1, ok1, s2, ok2)
		}
	}
}

func TestParamCountMismatch(t *testing.T) {
	p := Demo()
	if _, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?"); err == nil {
		t.Fatal("missing parameter should error")
	}
	if _, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS", 1); err == nil {
		t.Fatal("extra parameter should error")
	}
}

func TestTranslateText(t *testing.T) {
	p := Demo()
	res, err := p.TranslateDialect(DialectSQL, "SELECT * FROM CUSTOMERS", ModeXML)
	if err != nil {
		t.Fatal(err)
	}
	if xq := res.XQuery(); !strings.Contains(xq, "for $var1FR1 in ns0:CUSTOMERS()") {
		t.Fatalf("xquery:\n%s", xq)
	}
}

func TestRegisterDriverRoundTrip(t *testing.T) {
	p := Demo()
	p.RegisterDriver("facade-test")
	db, err := sql.Open("aqualogic", "facade-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d", n)
	}
}

func TestMetadataLatencyAndCache(t *testing.T) {
	p := Demo()
	p.MetadataLatency = time.Millisecond
	if _, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	// A distinct statement over the same table recompiles (compile-cache
	// miss) but finds the table metadata already cached.
	if _, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERNAME FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	stats := p.MetadataStats()
	if stats.Misses != 1 || stats.Hits < 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Repeating a statement verbatim is a compile-cache hit: no translation,
	// no catalog traffic at all.
	if _, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CUSTOMERID FROM CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	cs := p.CompileStats()
	if cs.Hits < 1 || cs.Misses != 2 {
		t.Fatalf("compile stats = %+v", cs)
	}
	if after := p.MetadataStats(); after.Misses != stats.Misses {
		t.Fatalf("compile-cache hit still fetched metadata: %+v", after)
	}
}

func TestCustomPlatform(t *testing.T) {
	app := &Application{Name: "MyApp"}
	app.AddDSFile(&DSFile{
		Path: "Sales",
		Name: "REGIONS",
		Functions: []*Function{
			NewRelationalImport("Sales", "REGIONS", []Column{
				{Name: "REGIONID", Type: SQLInteger},
				{Name: "NAME", Type: SQLVarchar, Nullable: true},
			}),
		},
	})
	engine := NewEngine()
	RegisterRows(engine, "ld:Sales/REGIONS", "REGIONS", []*Element{
		NewRow("REGIONS", "REGIONID", "1", "NAME", "West"),
		NewRow("REGIONS", "REGIONID", "2", "NAME", "East"),
		NewRow("REGIONS", "REGIONID", "3", "NAME", ""), // NULL name
	})
	p := New(app, engine)
	rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT NAME FROM REGIONS ORDER BY REGIONID")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		s, ok, _ := rows.String(0)
		if !ok {
			s = "NULL"
		}
		got = append(got, s)
	}
	if strings.Join(got, ",") != "West,East,NULL" {
		t.Fatalf("got %v", got)
	}
}

func TestToAtomic(t *testing.T) {
	cases := []any{int(1), int32(2), int64(3), float32(1.5), float64(2.5),
		true, "x", []byte("y"), time.Now(), xdm.Integer(9)}
	for _, c := range cases {
		if _, err := ToAtomic(c); err != nil {
			t.Fatalf("ToAtomic(%T): %v", c, err)
		}
	}
	if _, err := ToAtomic(struct{}{}); err == nil {
		t.Fatal("unsupported type should error")
	}
	if _, err := ToAtomic(nil); !errors.Is(err, xdm.ErrNullParameter) {
		t.Fatalf("ToAtomic(nil) = %v, want %v", err, xdm.ErrNullParameter)
	}
}

// TestNullParameterRejectedOnEveryPath pins the one parameter converter:
// the facade, the driver's prepared SELECT and CALL, and the remote
// client all refuse a NULL argument with the same message.
func TestNullParameterRejectedOnEveryPath(t *testing.T) {
	ctx := context.Background()
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	p.RegisterDriver("null-param-test")
	db := openSQL(t, "null-param-test")
	const query = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ?"
	paths := map[string]func() error{
		"facade": func() error {
			_, err := p.QueryDialect(ctx, DialectSQL, ModeText, query, nil)
			return err
		},
		"driver select": func() error {
			_, err := db.Query(query, nil)
			return err
		},
		"driver call": func() error {
			_, err := db.Query("CALL getCustomerById(?)", nil)
			return err
		},
		"remote client": func() error {
			_, err := c.Query(ctx, query, nil)
			return err
		},
	}
	for name, run := range paths {
		if err := run(); err == nil || !strings.Contains(err.Error(), xdm.ErrNullParameter.Error()) {
			t.Errorf("%s: err = %v, want it to say %q", name, err, xdm.ErrNullParameter)
		}
	}
}

func TestNewRowSkipsEmptyValues(t *testing.T) {
	row := NewRow("R", "A", "1", "B", "")
	if row.FirstChildElement("A") == nil {
		t.Fatal("A missing")
	}
	if row.FirstChildElement("B") != nil {
		t.Fatal("empty value should be skipped (NULL)")
	}
}

// openSQL opens a database/sql handle for a registered server name.
func openSQL(t *testing.T, name string) *sql.DB {
	t.Helper()
	db, err := sql.Open("aqualogic", name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}
