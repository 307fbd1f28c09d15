// Regression net for the overload-resilience surfaces: the error-kind
// taxonomy a remote caller sees (server shed vs its own cancellation vs
// transport fault), execute/fetch idempotency replay at the wire level,
// fetch against a restarted server, and hedged-fetch hygiene. These pin
// the contracts the retry layer and the P12 experiment depend on.
package aqualogic

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/remoteclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestShedVsCancelTaxonomyAcrossWire pins the three-way error taxonomy a
// remote caller must be able to branch on:
//   - server shed   → KindUnavailable, carrying a Retry-After hint
//   - caller cancel → KindTimeout, errors.Is(context.Canceled)
//
// and that the two never blur: a shed is not Is(Canceled), a cancel
// carries no Retry-After.
func TestShedVsCancelTaxonomyAcrossWire(t *testing.T) {
	_, _, c := newLoopback(t, server.Config{
		MaxConcurrentQueries: 1,
		AdmissionWait:        time.Millisecond,
		SessionIdleTimeout:   time.Minute,
	})
	ctx := context.Background()

	holder, err := c.QueryDialect(ctx, "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	// Shed arm: admission rejects, typed, with backoff guidance.
	_, err = c.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("shed: %v, want unavailable QueryError", err)
	}
	if aqerr.RetryAfterHint(err) <= 0 {
		t.Fatalf("shed lost its Retry-After hint across the wire: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("shed misclassified as caller cancellation: %v", err)
	}

	// Cancel arm: the caller's own context, not server capacity.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = c.QueryDialect(cctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
		t.Fatalf("cancel: %v, want timeout-kind QueryError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: %v, want errors.Is(context.Canceled)", err)
	}
	if aqerr.RetryAfterHint(err) > 0 {
		t.Fatalf("cancellation acquired a Retry-After hint: %v", err)
	}
}

// TestExecuteReplayIdempotency pins exec-key replay at the wire level: a
// retried execute re-presenting the same idempotency key gets the same
// cursor back instead of evaluating twice.
func TestExecuteReplayIdempotency(t *testing.T) {
	_, srv, _ := newLoopback(t, server.Config{FetchRows: 4, SessionIdleTimeout: time.Minute})
	h := srv.Handler()

	var hs wire.HandshakeResponse
	if we := postWire(t, h, wire.PathHandshake, wire.HandshakeRequest{}, &hs); we != nil {
		t.Fatalf("handshake: %v", we)
	}
	req := wire.ExecuteRequest{
		Session: hs.Session,
		SQL:     "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1003",
		ExecKey: "retry-1",
	}
	var first, second wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, req, &first); we != nil {
		t.Fatalf("execute: %v", we)
	}
	if we := postWire(t, h, wire.PathExecute, req, &second); we != nil {
		t.Fatalf("replayed execute: %v", we)
	}
	if second.Cursor != first.Cursor {
		t.Fatalf("replay opened a new cursor: %d vs %d", second.Cursor, first.Cursor)
	}
	st := srv.Stats()
	if st.ExecReplays != 1 {
		t.Fatalf("ExecReplays = %d, want 1", st.ExecReplays)
	}
	if st.CursorsOpened != 1 {
		t.Fatalf("replayed execute evaluated twice: %d cursors opened", st.CursorsOpened)
	}

	// A different key is a different execution.
	req.ExecKey = "retry-2"
	var third wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, req, &third); we != nil {
		t.Fatalf("fresh execute: %v", we)
	}
	if third.Cursor == first.Cursor {
		t.Fatal("distinct exec keys shared a cursor")
	}
}

// TestFetchSeqReplay pins sequenced-fetch semantics: re-presenting the
// current sequence number replays the identical chunk (the hedged/retry
// path), the successor advances, and anything else is a typed permanent
// out-of-order error rather than silent data corruption.
func TestFetchSeqReplay(t *testing.T) {
	_, srv, _ := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
	h := srv.Handler()

	var hs wire.HandshakeResponse
	if we := postWire(t, h, wire.PathHandshake, wire.HandshakeRequest{}, &hs); we != nil {
		t.Fatalf("handshake: %v", we)
	}
	var ex wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{
		Session: hs.Session, SQL: "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1006",
	}, &ex); we != nil {
		t.Fatalf("execute: %v", we)
	}
	fetch := func(seq int64) wire.FetchResponse {
		var fr wire.FetchResponse
		if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{
			Session: hs.Session, Cursor: ex.Cursor, Seq: seq,
		}, &fr); we != nil {
			t.Fatalf("fetch seq %d: %v", seq, we)
		}
		return fr
	}

	one := fetch(1)
	if one.Error != nil || len(one.Rows) != 2 {
		t.Fatalf("first chunk: %+v", one)
	}
	replay := fetch(1)
	if len(replay.Rows) != len(one.Rows) || replay.EOF != one.EOF {
		t.Fatalf("seq-1 replay diverged: %+v vs %+v", replay, one)
	}
	if rb, ob := mustJSON(t, replay.Rows), mustJSON(t, one.Rows); rb != ob {
		t.Fatalf("seq-1 replay rows diverged: %s vs %s", rb, ob)
	}
	if st := srv.Stats(); st.FetchReplays != 1 {
		t.Fatalf("FetchReplays = %d, want 1", st.FetchReplays)
	}

	// Skipping ahead is a hard protocol error, not quiet row loss.
	var oo wire.FetchResponse
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{
		Session: hs.Session, Cursor: ex.Cursor, Seq: 3,
	}, &oo); we == nil {
		t.Fatal("out-of-order fetch succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("out-of-order fetch: kind %s, want permanent", we.Kind)
	}

	// The successor still advances normally after the rejected skip.
	two := fetch(2)
	if two.Error != nil || len(two.Rows) != 2 {
		t.Fatalf("second chunk after replay: %+v", two)
	}
	if mustJSON(t, two.Rows) == mustJSON(t, one.Rows) {
		t.Fatal("advance re-delivered the first chunk")
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFetchAgainstRestartedServer pins the restart story: a client whose
// server went away mid-stream gets a prompt typed unavailable (the new
// process does not know the session), never a hang or a silent empty
// result — and a fresh dial against the restarted server works.
func TestFetchAgainstRestartedServer(t *testing.T) {
	p := Demo()
	srv1 := server.New(p, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})

	// One stable URL whose backing server can be swapped: a restart that
	// keeps the address but loses all session state.
	var current atomic.Pointer[http.Handler]
	h1 := srv1.Handler()
	current.Store(&h1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, err := remoteclient.DialOptions(ts.URL, remoteclient.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryDialect(context.Background(), "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Restart: new server instance, same address, sessions gone.
	srv2 := server.New(p, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
	defer srv2.Close()
	h2 := srv2.Handler()
	current.Store(&h2)
	srv1.Close()

	start := time.Now()
	for rows.Next() {
	}
	err = rows.Err()
	elapsed := time.Since(start)
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("fetch after restart: %v, want unavailable QueryError", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("restart detection took %v, want prompt", elapsed)
	}
	rows.Close()

	// Retriable from scratch: a new handshake against the same URL serves.
	c2, err := remoteclient.Dial(ts.URL)
	if err != nil {
		t.Fatalf("redial after restart: %v", err)
	}
	defer c2.Close()
	fresh, err := c2.QueryDialect(context.Background(), "", ModeText, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = 1005")
	if err != nil {
		t.Fatalf("query after restart: %v", err)
	}
	if out, err := drainClose(fresh); err != nil || out == "" {
		t.Fatalf("restarted server rows: %q err=%v", out, err)
	}
}

// TestHedgedFetchNoLeak pins hedging hygiene: with a deliberately slow
// fetch path and an aggressive hedge delay, streams still deliver exact
// rows (the server replays the same sequence number identically), hedges
// actually fire, and the losing requests never leak goroutines.
func TestHedgedFetchNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := Demo()
	srv := server.New(p, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
	defer srv.Close()

	inner := srv.Handler()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathFetch {
			time.Sleep(8 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	})

	hedgesBefore := Stats().Get("FetchHedges")
	c, err := remoteclient.LoopbackOptions(slow, remoteclient.Options{
		HedgeDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < 5; i++ {
		rows, err := c.QueryDialect(context.Background(), "", ModeText,
			"SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE CUSTOMERID < 1008")
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainClose(rows)
		if err != nil {
			t.Fatalf("hedged stream: %v", err)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("hedged stream diverged between runs\ngot:  %s\nwant: %s", got, want)
		}
	}
	if Stats().Get("FetchHedges") == hedgesBefore {
		t.Fatal("hedge never fired despite slow fetches")
	}
	_ = c.Close()
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after hedged streams: baseline %d, now %d",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
