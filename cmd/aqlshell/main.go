// Command aqlshell is an interactive SQL shell over the demo AquaLogic
// deployment, speaking through the database/sql driver — the closest thing
// to pointing a JDBC console at the paper's system.
//
// Supported statements: SQL-92 SELECT (translated to XQuery and executed),
// EXPLAIN <select> (stage-by-stage translation trace, cache effect, query
// contexts, and the generated XQuery), SHOW CATALOGS/SCHEMAS/TABLES/
// PROCEDURES, SHOW COLUMNS FROM <t>, CALL <proc>(args), plus the shell
// commands \d <dialect> (switch the query language: "sql" is the default,
// "path" the graph-pattern front end — every later statement, \x, \p, and
// \c parse in the chosen dialect), \x (print the XQuery a statement
// translates to), \c (query contexts), \p (evaluator query plan), \s
// (pipeline metrics snapshot),
// \r (resilience counters: retries, breaker trips, stale serves, injected
// faults), \src (per-source federation health: metadata generations,
// breaker states, and scan attribution for every registered backend),
// \q (compile-cache counters: hits, misses, single-flight
// shares, evictions, invalidations, size, metadata generation), and
// \f n (fetch size: page results n rows at a time straight off the live
// cursor — rows print as the evaluation produces them, and abandoning a
// page cancels the rest of the query; \f 0 restores whole-result
// formatting). Type "quit" or "exit" to leave.
//
// With -server <url> the shell connects to a running aqlserve process
// through the resilient remote client instead of the in-process demo:
// SQL and EXPLAIN travel the wire, \s renders the remote server's own
// counter block and its process's pipeline metrics, and \r renders the
// remote resilience picture — the server's admission/brownout/shed
// gauges from /v1/stats alongside this client's own breaker, retry, and
// hedge state.
package main

import (
	"bufio"
	"context"
	"database/sql"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	aqualogic "repro"
	_ "repro/internal/driver"
	"repro/internal/remoteclient"
	"repro/internal/wire"
)

func main() {
	serverURL := flag.String("server", "", "aqlserve URL (e.g. http://127.0.0.1:7117); empty runs the in-process demo")
	flag.Parse()
	if *serverURL != "" {
		runRemote(*serverURL)
		return
	}
	p := aqualogic.Demo()
	p.RegisterDriver("demo")
	dialect := aqualogic.DialectSQL
	db, err := sql.Open("aqualogic", "demo")
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlshell:", err)
		os.Exit(1)
	}
	defer func() { db.Close() }()

	fmt.Println("aqlshell — SQL over the AquaLogic-style demo deployment")
	fmt.Println(`type SQL (SELECT/SHOW/CALL), "EXPLAIN SELECT ..." for the stage trace,`)
	fmt.Println(`"\x SELECT ..." to see the XQuery, "\c SELECT ..." to see the query`)
	fmt.Println(`contexts (Figure 4), "\p SELECT ..." for the evaluator's query plan`)
	fmt.Println(`(with per-scan cardinality and hash-join cost annotations once source`)
	fmt.Println(`statistics are observed — run a query first, or ANALYZE via the API),`)
	fmt.Println(`"\s" for pipeline metrics (incl. stats hits and parallel workers),`)
	fmt.Println(`"\r" for resilience counters, "\src" for per-source federation`)
	fmt.Println(`health (metadata generations, breakers, scan attribution), "\q" for`)
	fmt.Println(`compile-cache counters, "\f n" to page results n rows at a time off`)
	fmt.Println(`the live cursor (\f 0 to turn paging off), "\d <dialect>" to switch`)
	fmt.Printf("query language (registered: %s), \"quit\" or \"exit\" to leave\n",
		strings.Join(dialectNames(), ", "))

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fetchSize := 0 // 0: materialize and align columns; n>0: page n rows at a time
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		case line == `\d`:
			fmt.Printf("dialect: %s (registered: %s)\n", dialect, strings.Join(dialectNames(), ", "))
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\d `))
			d, ok := lookupDialect(name)
			if !ok {
				fmt.Printf("unknown dialect %q (registered: %s)\n", name, strings.Join(dialectNames(), ", "))
				continue
			}
			// Reopen the DSN with the dialect option: every connection the
			// pool hands out from here on parses in the chosen language.
			next, err := sql.Open("aqualogic", "demo?dialect="+string(d))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			db.Close()
			db, dialect = next, d
			fmt.Printf("dialect: %s\n", dialect)
		case line == `\q`:
			cs := p.CompileStats()
			fmt.Printf("compile cache: hits=%d misses=%d shared=%d evictions=%d invalidations=%d\n",
				cs.Hits, cs.Misses, cs.Shared, cs.Evictions, cs.Invalidations)
			fmt.Printf("entries: %d/%d, metadata generation: %d\n", cs.Size, cs.MaxEntries, cs.Generation)
		case line == `\f`:
			if fetchSize > 0 {
				fmt.Printf("fetch size: %d rows per page\n", fetchSize)
			} else {
				fmt.Println("paging off (results materialize before printing)")
			}
		case strings.HasPrefix(line, `\f `):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, `\f `)))
			if err != nil || n < 0 {
				fmt.Println(`usage: \f <rows-per-page>   (0 turns paging off)`)
				continue
			}
			fetchSize = n
			if n == 0 {
				fmt.Println("paging off")
			} else {
				fmt.Printf("paging %d row(s) at a time\n", n)
			}
		case strings.HasPrefix(line, `\x `):
			res, err := p.TranslateDialect(dialect, strings.TrimPrefix(line, `\x `), aqualogic.ModeXML)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(res.XQuery())
		case line == `\s`:
			aqualogic.Stats().Render(os.Stdout)
		case line == `\r`:
			aqualogic.Stats().Render(os.Stdout, "resilience", "remote_client")
			fmt.Printf("metadata cache degraded: %v\n", p.MetadataStats().Degraded)
		case line == `\src`:
			health := p.FederationStats()
			if len(health) == 0 {
				fmt.Printf("single-source platform (%s): no federation registered\n", p.App.Name)
				continue
			}
			scans := aqualogic.Stats().SourceScans
			for _, h := range health {
				fmt.Printf("source %s: metadata generation=%d cache hits=%d misses=%d degraded=%v scans=%d\n",
					h.Name, h.Generation, h.Metadata.Hits, h.Metadata.Misses, h.Metadata.Degraded, scans[h.Name])
				svcs := make([]string, 0, len(h.Breakers))
				for svc := range h.Breakers {
					svcs = append(svcs, svc)
				}
				sort.Strings(svcs)
				for _, svc := range svcs {
					fmt.Printf("  breaker %s: %v\n", svc, h.Breakers[svc])
				}
			}
		case strings.HasPrefix(line, `\p `):
			cq, err := p.CompileDialect(context.Background(), dialect, strings.TrimPrefix(line, `\p `), aqualogic.ModeText)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("-- dialect: %s\n", cq.Dialect)
			for _, planLine := range cq.Plan.Describe() {
				fmt.Println(planLine)
			}
		case strings.HasPrefix(line, `\c `):
			res, err := p.TranslateDialect(dialect, strings.TrimPrefix(line, `\c `), aqualogic.ModeXML)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(res.Contexts.Tree())
		default:
			var err error
			if fetchSize > 0 {
				err = runQueryPaged(db, line, fetchSize, scanner)
			} else {
				err = runQuery(db, line)
			}
			if err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// runQueryPaged prints rows straight off the streaming cursor, pageSize at
// a time: the first page appears while the evaluation is still running,
// and declining the next page closes the result set, which cancels the
// remaining evaluation server-side.
func runQueryPaged(db *sql.DB, query string, pageSize int, in *bufio.Scanner) error {
	rows, err := db.Query(query)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(cols, " | "))
	n := 0
	for rows.Next() {
		raw := make([]any, len(cols))
		for i := range raw {
			raw[i] = new(sql.NullString)
		}
		if err := rows.Scan(raw...); err != nil {
			return err
		}
		rec := make([]string, len(cols))
		for i := range raw {
			ns := raw[i].(*sql.NullString)
			if ns.Valid {
				rec[i] = ns.String
			} else {
				rec[i] = "NULL"
			}
		}
		fmt.Println(strings.Join(rec, " | "))
		n++
		if n%pageSize == 0 {
			fmt.Printf("-- %d row(s) so far; Enter for next %d, q to stop -- ", n, pageSize)
			if !in.Scan() || strings.EqualFold(strings.TrimSpace(in.Text()), "q") {
				fmt.Printf("(%d row(s), rest of the query cancelled)\n", n)
				return rows.Close()
			}
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d row(s))\n", n)
	return nil
}

// runRemote is the shell's wire mode: the same REPL against a running
// aqlserve process through the resilient remote client. Translation
// introspection (\x, \c, \p) is a compile-side feature and stays with
// the in-process mode; everything observable about a remote deployment
// — queries, EXPLAIN, server metrics, the resilience picture — is here.
func runRemote(url string) {
	c, err := remoteclient.Dial(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlshell: connect:", err)
		os.Exit(1)
	}
	defer c.Close()

	fmt.Printf("aqlshell — connected to %s (session %s)\n", url, c.Session())
	fmt.Println(`type SQL, "EXPLAIN SELECT ..." for the remote plan, "\s" for remote`)
	fmt.Println(`pipeline metrics, "\r" for the resilience picture (server admission/`)
	fmt.Println(`brownout/shed state plus this client's breaker and retries), "\f n"`)
	fmt.Println(`to page results, "\d <dialect>" to switch query language, "quit" or`)
	fmt.Println(`"exit" to leave`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fetchSize := 0
	dialect := aqualogic.DialectSQL
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		case line == `\f`:
			if fetchSize > 0 {
				fmt.Printf("fetch size: %d rows per page\n", fetchSize)
			} else {
				fmt.Println("paging off")
			}
		case strings.HasPrefix(line, `\f `):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, `\f `)))
			if err != nil || n < 0 {
				fmt.Println(`usage: \f <rows-per-page>   (0 turns paging off)`)
				continue
			}
			fetchSize = n
		case line == `\d`:
			fmt.Printf("dialect: %s (registered locally: %s)\n", dialect, strings.Join(dialectNames(), ", "))
		case strings.HasPrefix(line, `\d `):
			// The name travels on the wire per statement; the server's own
			// registry validates it, so an unknown dialect fails at the next
			// query with the server's typed error.
			name := strings.TrimSpace(strings.TrimPrefix(line, `\d `))
			if d, ok := lookupDialect(name); ok {
				dialect = d
			} else {
				dialect = aqualogic.Dialect(name)
			}
			fmt.Printf("dialect: %s\n", dialect)
		case line == `\s`:
			resp, err := c.ServerStats(statsCtx())
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printServerStats(resp.Server)
			resp.Pipeline.Render(os.Stdout)
		case line == `\r`:
			renderRemoteResilience(c)
		case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN "):
			text, err := c.ExplainDialect(context.Background(), string(dialect), strings.TrimSpace(line[len("EXPLAIN "):]), aqualogic.ModeText)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(text)
		default:
			if err := runRemoteQuery(c, string(dialect), line, fetchSize, scanner); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// dialectNames lists the locally registered dialects.
func dialectNames() []string {
	ds := aqualogic.Dialects()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = string(d)
	}
	return names
}

// lookupDialect resolves a dialect name against the local registry
// ("" = sql).
func lookupDialect(name string) (aqualogic.Dialect, bool) {
	if name == "" {
		return aqualogic.DialectSQL, true
	}
	for _, d := range aqualogic.Dialects() {
		if string(d) == name {
			return d, true
		}
	}
	return "", false
}

func statsCtx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = cancel // bounded by the timeout; the verb returns long before
	return ctx
}

// renderRemoteResilience is the wire-mode \r: the server's overload
// posture (weighted admission, queue, sheds by reason, brownout level,
// idempotent replays) and resilience counters next to this client's own
// defenses (its retries and hedges, and its breaker).
func renderRemoteResilience(c *remoteclient.Client) {
	resp, err := c.ServerStats(statsCtx())
	if err != nil {
		fmt.Println("error:", err)
	} else {
		printServerStats(resp.Server)
		resp.Pipeline.Render(os.Stdout, "resilience")
	}
	aqualogic.Stats().Render(os.Stdout, "remote_client")
	fmt.Printf("client breaker: %s\n", c.BreakerState())
}

// printServerStats writes the server's own counter block, which only the
// server counts and only /v1/stats reports.
func printServerStats(s wire.ServerStats) {
	fmt.Printf("server sessions: open=%d opened=%d reaped=%d; cursors: open=%d opened=%d reaped=%d\n",
		s.SessionsOpen, s.SessionsOpened, s.SessionsReaped, s.CursorsOpen, s.CursorsOpened, s.CursorsReaped)
	fmt.Printf("server queries: in-flight=%d peak=%d admission-rejected=%d\n",
		s.QueriesInFlight, s.PeakInFlight, s.AdmissionRejected)
	fmt.Printf("server admission: weighted in-flight %d/%d (peak %d), queue depth %d (peak %d)\n",
		s.WeightedInFlight, s.WeightedCapacity, s.WeightedPeak, s.QueueDepth, s.QueuePeak)
	fmt.Printf("server shed: queue-full=%d queue-timeout=%d brownout=%d (level %d, engaged %d); replays: exec=%d fetch=%d\n",
		s.ShedQueueFull, s.ShedQueueTimeout, s.ShedBrownout, s.BrownoutLevel, s.BrownoutEngaged, s.ExecReplays, s.FetchReplays)
}

// runRemoteQuery streams a remote result set to the terminal, paging
// when asked; abandoning a page closes the cursor, which cancels the
// rest of the evaluation server-side.
func runRemoteQuery(c *remoteclient.Client, dialect, query string, pageSize int, in *bufio.Scanner) error {
	rows, err := c.QueryDialect(context.Background(), dialect, aqualogic.ModeText, query)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols := rows.Columns()
	labels := make([]string, len(cols))
	for i, col := range cols {
		labels[i] = col.Label
	}
	fmt.Println(strings.Join(labels, " | "))
	n := 0
	for rows.Next() {
		rec := make([]string, len(cols))
		for i := range cols {
			s, ok, err := rows.String(i)
			switch {
			case err != nil:
				return err
			case !ok:
				rec[i] = "NULL"
			default:
				rec[i] = s
			}
		}
		fmt.Println(strings.Join(rec, " | "))
		n++
		if pageSize > 0 && n%pageSize == 0 {
			fmt.Printf("-- %d row(s) so far; Enter for next %d, q to stop -- ", n, pageSize)
			if !in.Scan() || strings.EqualFold(strings.TrimSpace(in.Text()), "q") {
				fmt.Printf("(%d row(s), rest of the query cancelled)\n", n)
				rows.Close()
				return nil
			}
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d row(s))\n", n)
	return nil
}

func runQuery(db *sql.DB, query string) error {
	rows, err := db.Query(query)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return err
	}

	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	var table [][]string
	for rows.Next() {
		raw := make([]any, len(cols))
		for i := range raw {
			raw[i] = new(sql.NullString)
		}
		if err := rows.Scan(raw...); err != nil {
			return err
		}
		rec := make([]string, len(cols))
		for i := range raw {
			ns := raw[i].(*sql.NullString)
			if ns.Valid {
				rec[i] = ns.String
			} else {
				rec[i] = "NULL"
			}
			if len(rec[i]) > widths[i] {
				widths[i] = len(rec[i])
			}
		}
		table = append(table, rec)
	}
	if err := rows.Err(); err != nil {
		return err
	}

	printRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], v)
		}
		fmt.Println()
	}
	printRow(cols)
	for i, w := range widths {
		if i > 0 {
			fmt.Print("-+-")
		}
		fmt.Print(strings.Repeat("-", w))
	}
	fmt.Println()
	for _, rec := range table {
		printRow(rec)
	}
	fmt.Printf("(%d row(s))\n", len(table))
	return nil
}
