package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedQueries drives one *sql.DB from many goroutines
// with a rotating workload. The pool hands out multiple driver
// connections and reuses prepared statements across goroutines, so this
// exercises conn, stmt, the per-connection metrics, and the shared
// catalog cache under -race.
func TestConcurrentMixedQueries(t *testing.T) {
	db := openDemo(t, "")
	queries := []string{
		"SELECT CUSTOMERID FROM CUSTOMERS",
		"SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1025",
		"SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID",
		"SELECT COUNT(*) FROM PO_ITEMS",
	}

	const goroutines = 12
	const iters = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				rows, err := db.Query(q)
				if err != nil {
					t.Errorf("query %q: %v", q, err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					t.Errorf("rows %q: %v", q, err)
				}
				rows.Close()
				if n == 0 {
					t.Errorf("query %q returned no rows", q)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSharedStmt reuses a single prepared statement from many
// goroutines — database/sql explicitly allows this, so the driver's Stmt
// (including the cached XQuery text and trace hooks) must be re-entrant.
func TestConcurrentSharedStmt(t *testing.T) {
	db := openDemo(t, "")
	stmt, err := db.Prepare("SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 10; i++ {
				var name string
				if err := stmt.QueryRow(1000 + (g*10+i)%50).Scan(&name); err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if name == "" {
					t.Errorf("empty customer name")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentStats interleaves queries with Stats() snapshots taken
// through sql.Conn.Raw — the documented way to read per-connection
// pipeline metrics — plus EXPLAIN traffic on other connections.
func TestConcurrentStats(t *testing.T) {
	db := openDemo(t, "")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rows, err := db.Query("EXPLAIN SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID > 5")
				if err != nil {
					t.Errorf("explain: %v", err)
					return
				}
				for rows.Next() {
				}
				rows.Close()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				conn, err := db.Conn(context.Background())
				if err != nil {
					t.Errorf("conn: %v", err)
					return
				}
				err = conn.Raw(func(dc any) error {
					st, ok := dc.(StatsReporter)
					if !ok {
						return fmt.Errorf("driver conn %T does not report stats", dc)
					}
					s := st.Stats()
					if s.Pipeline.Get("QueriesTranslated") < 0 {
						return fmt.Errorf("negative translate count")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
}

// TestConnImplementsStatsReporter pins the Raw-accessible interface.
func TestConnImplementsStatsReporter(t *testing.T) {
	var _ StatsReporter = (*conn)(nil)
	var _ driver.Conn = (*conn)(nil)
}

// TestConcurrentPrepareStampede races many pool connections preparing the
// same cold statement: the server's shared compile cache must single-
// flight the compile — exactly one translation however many connections
// collide — and every statement must still execute correctly.
func TestConcurrentPrepareStampede(t *testing.T) {
	db := openIsolated(t, "")
	db.SetMaxOpenConns(16)

	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var n int64
			if err := db.QueryRow("SELECT COUNT(*) FROM CUSTOMERS").Scan(&n); err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if n == 0 {
				t.Error("no rows")
			}
		}()
	}
	close(start)
	wg.Wait()

	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Raw(func(dc any) error {
		s := dc.(StatsReporter).Stats().Compile
		if s.Misses != 1 {
			return fmt.Errorf("stampede compiled %d times, want 1 (stats %+v)", s.Misses, s)
		}
		if s.Hits+s.Shared != goroutines-1 {
			return fmt.Errorf("hits=%d shared=%d, want %d reuses", s.Hits, s.Shared, goroutines-1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
