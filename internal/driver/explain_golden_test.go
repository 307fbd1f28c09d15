package driver

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the EXPLAIN golden files")

// explainCases are representative of each query shape the translator
// handles; each gets a golden file under testdata/explain capturing the
// full EXPLAIN output (stage trace, cache effect, query contexts,
// generated XQuery) with durations normalized out.
var explainCases = []struct {
	name string
	sql  string
}{
	{"simple", "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"},
	{"wildcard", "SELECT * FROM CUSTOMERS"},
	{"join", "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"},
	{"outerjoin", "SELECT A.CUSTOMERNAME, B.PAYMENT FROM CUSTOMERS A LEFT OUTER JOIN PAYMENTS B ON A.CUSTOMERID = B.CUSTID"},
	{"groupby", "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1"},
	{"union", "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT CUSTID FROM PAYMENTS"},
	{"subquery", "SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10"},
	{"insubquery", "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 100)"},
	{"distinct_orderby", "SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY DESC"},
	{"functions", "SELECT UPPER(CUSTOMERNAME), LENGTH(CITY) FROM CUSTOMERS WHERE CITY IS NOT NULL"},
	{"parameters", "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ?"},
}

var durationRE = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|s)\b`)
var spacesRE = regexp.MustCompile(`[ \t]+`)

// normalizeExplain makes EXPLAIN output reproducible: wall times become
// <DUR> and the column padding that depended on their width collapses to
// single spaces. Everything else — stage order, sizes, detail counters,
// cache counts, contexts, XQuery — is deterministic and kept verbatim.
func normalizeExplain(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		line = durationRE.ReplaceAllString(line, "<DUR>")
		line = strings.TrimRight(spacesRE.ReplaceAllString(line, " "), " ")
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

func runExplain(t *testing.T, sqlText string) string {
	t.Helper()
	// A fresh server per statement gives each EXPLAIN a cold compile cache
	// and a cold connection catalog cache, so hit/miss deltas in the golden
	// files are deterministic regardless of what other tests compiled.
	db := openIsolated(t, "")
	rows, err := db.Query("EXPLAIN " + sqlText)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sqlText, err)
	}
	defer rows.Close()
	var lines []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestExplainGolden(t *testing.T) {
	for _, tc := range explainCases {
		t.Run(tc.name, func(t *testing.T) {
			got := normalizeExplain(runExplain(t, tc.sql))
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN output changed for %q\n--- got ---\n%s\n--- want ---\n%s", tc.sql, got, want)
			}
		})
	}
}

// TestExplainStageOrder pins the acceptance contract independent of the
// golden files: every EXPLAIN reports the pipeline stages in execution
// order with their timings, and the catalog-cache effect line.
func TestExplainStageOrder(t *testing.T) {
	out := runExplain(t, "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID")
	stages := []string{"lex", "parse", "semantic-validate", "restructure", "generate", "serialize", "compile"}
	idx := -1
	for _, stage := range stages {
		re := regexp.MustCompile(`(?m)^` + stage + ` +\d+(\.\d+)?(ns|µs|ms|s)\b`)
		loc := re.FindStringIndex(out)
		if loc == nil {
			t.Fatalf("stage %q with timing missing from EXPLAIN output:\n%s", stage, out)
		}
		if loc[0] <= idx {
			t.Fatalf("stage %q out of order", stage)
		}
		idx = loc[0]
	}
	for _, want := range []string{
		"-- stage trace:",
		"tables=2",
		"contexts=1",
		"-- compile cache: miss (compiled now)",
		"-- catalog cache: hits=0 misses=2",
		"-- query contexts (stage one):",
		"-- generated XQuery (stage three):",
		"-- query plan (evaluator):",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainRepeatedCacheHits checks the cache-effect lines on a warm
// server: the first EXPLAIN compiles (catalog miss included), the second
// reuses the cached artifact — no translation, no catalog traffic, and
// the stage trace rendered is the original compile's.
func TestExplainRepeatedCacheHits(t *testing.T) {
	db := openIsolated(t, "")
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	read := func() string {
		rows, err := conn.QueryContext(context.Background(), "EXPLAIN SELECT CUSTOMERID FROM CUSTOMERS")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var lines []string
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line)
		}
		return strings.Join(lines, "\n")
	}
	first, second := read(), read()
	if !strings.Contains(first, "-- compile cache: miss (compiled now)") {
		t.Fatalf("cold compile line missing:\n%s", first)
	}
	if !strings.Contains(first, "-- catalog cache: hits=0 misses=1") {
		t.Fatalf("cold cache line missing:\n%s", first)
	}
	if !strings.Contains(second, "-- compile cache: hit") {
		t.Fatalf("warm compile line missing:\n%s", second)
	}
	if !strings.Contains(second, "-- catalog cache: hits=0 misses=0 (connection totals: hits=0 misses=1)") {
		t.Fatalf("warm cache line should show no catalog traffic:\n%s", second)
	}
	// A cached EXPLAIN still renders the full artifact.
	if !strings.Contains(second, "-- stage trace:") || !strings.Contains(second, "-- query plan (evaluator):") {
		t.Fatalf("cached EXPLAIN missing sections:\n%s", second)
	}
}

// TestExplainTranslatesOnce is the regression test for the EXPLAIN
// double-translation bug: one EXPLAIN statement performs exactly one
// translation (it used to translate for the trace and let Prepare
// translate again), and EXPLAIN of a statement the server already
// compiled performs none.
func TestExplainTranslatesOnce(t *testing.T) {
	db := openIsolated(t, "")
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	translated := func() int64 {
		var n int64
		if err := conn.Raw(func(dc any) error {
			n = dc.(StatsReporter).Stats().Pipeline.Get("QueriesTranslated")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	run := func(q string) {
		rows, err := conn.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}

	run("EXPLAIN SELECT CITY FROM CUSTOMERS")
	if n := translated(); n != 1 {
		t.Fatalf("one EXPLAIN translated %d times, want exactly 1", n)
	}
	// EXPLAIN again, then execute the same statement: both reuse the
	// artifact the first EXPLAIN compiled.
	run("EXPLAIN SELECT CITY FROM CUSTOMERS")
	run("SELECT CITY FROM CUSTOMERS")
	if n := translated(); n != 1 {
		t.Fatalf("cached EXPLAIN + execute re-translated (total %d, want 1)", n)
	}
}
