package aqualogic

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

// TestPlatformConcurrentUse exercises the facade from many goroutines:
// TranslateDialect, QueryDialect, ExplainDialect, MetadataStats and
// DefineView all share the platform's lazily-built metadata cache, so
// this pins the guarded initialization path under -race.
func TestPlatformConcurrentUse(t *testing.T) {
	p := Demo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := p.TranslateDialect(DialectSQL, "SELECT CUSTOMERID FROM CUSTOMERS", ModeXML); err != nil {
						t.Errorf("translate: %v", err)
						return
					}
				case 1:
					rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID < 1010")
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					if rows.Len() == 0 {
						t.Error("query returned no rows")
						return
					}
				case 2:
					if _, tr, err := p.ExplainDialect(DialectSQL, "SELECT COUNT(*) FROM PAYMENTS", ModeXML); err != nil || tr == nil {
						t.Errorf("explain: %v", err)
						return
					}
				case 3:
					_ = p.MetadataStats()
				}
			}
		}(g)
	}
	wg.Wait()

	stats := p.MetadataStats()
	if stats.Hits+stats.Misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// TestPlatformConcurrentViews races DefineView (which invalidates the
// metadata cache) against queries that repopulate it.
func TestPlatformConcurrentViews(t *testing.T) {
	p := Demo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("V_%d_%d", g, i)
				if err := p.DefineView("Views", name, "SELECT CUSTOMERID, CITY FROM CUSTOMERS"); err != nil {
					t.Errorf("define view: %v", err)
					return
				}
				rows, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, "SELECT CITY FROM "+name+" WHERE CUSTOMERID = 1000")
				if err != nil {
					t.Errorf("query view: %v", err)
					return
				}
				if rows.Len() != 1 {
					t.Errorf("view %s: %d rows", name, rows.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeConcurrentSessions hammers the network front end from many
// loopback clients at once — prepare/execute/fetch/close interleaved with
// mid-stream disconnects (a cursor abandoned after one row and closed out
// of band) and metadata browsing — under -race. Afterward the server must
// hold no open cursors, no in-flight admissions, and no extra goroutines:
// the leak contract for a server facing thousands of flaky clients.
func TestServeConcurrentSessions(t *testing.T) {
	p := Demo()
	srv := server.New(p, server.Config{
		FetchRows:            3,
		MaxConcurrentQueries: 8,
		AdmissionWait:        5 * time.Second, // queue briefly instead of shedding
		SessionIdleTimeout:   time.Minute,
	})
	h := srv.Handler()
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := remoteclient.Loopback(h)
			if err != nil {
				t.Errorf("worker %d: handshake: %v", g, err)
				return
			}
			st, err := c.Prepare(context.Background(), "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?", ModeText)
			if err != nil {
				t.Errorf("worker %d: prepare: %v", g, err)
				return
			}
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0: // full drain of a prepared execution
					rows, err := st.Execute(context.Background(), 1000+(g+i)%50)
					if err != nil {
						t.Errorf("worker %d: execute: %v", g, err)
						return
					}
					if _, err := marshalStreamed(rows); err != nil {
						t.Errorf("worker %d: drain: %v", g, err)
						return
					}
					rows.Close()
				case 1: // mid-stream disconnect: one row, then walk away
					rows, err := c.QueryDialect(context.Background(), "", ModeXML,
						"SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P")
					if err != nil {
						t.Errorf("worker %d: big execute: %v", g, err)
						return
					}
					if !rows.Next() {
						t.Errorf("worker %d: no first row: %v", g, rows.Err())
						return
					}
					rows.Close() // cancels the server-side evaluation
				case 2: // metadata browse
					if _, err := c.Lookup(catalog.TableRef{Table: "CUSTOMERS"}); err != nil {
						t.Errorf("worker %d: lookup: %v", g, err)
						return
					}
				}
			}
			// A third of the workers abandon their session without closing
			// it (their cursors are already closed; the session itself is
			// cheap and reaped later).
			if g%3 != 0 {
				if err := c.Close(); err != nil {
					t.Errorf("worker %d: close: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()

	if st := srv.Stats(); st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("server holds state after all clients finished: %+v", st)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
