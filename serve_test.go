// Differential conformance net for the network front end: the wire path —
// aqlserve's server over the facade, spoken to through the remote client —
// must be observationally identical to the in-process platform. Every
// statement in the compiled corpus, in both result modes, must deliver
// byte-identical rows through a loopback server, and every failing
// statement must surface the same typed-error kind remotely as locally.
// The session-state machine (reaping, double close, fetch past EOF,
// admission rejection, prepared statements across CREATE VIEW) is pinned
// at the wire level, request by request.
package aqualogic

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/faultnet"
	"repro/internal/obsv"
	"repro/internal/remoteclient"
	"repro/internal/resultset"
	"repro/internal/server"
	"repro/internal/wire"
)

// The facade must keep satisfying the server's backend surface.
var _ server.Backend = (*Platform)(nil)

// newLoopback builds a demo platform, a server over it, and a loopback
// client — the standard harness for wire conformance tests.
func newLoopback(t *testing.T, cfg server.Config) (*Platform, *server.Server, *remoteclient.Client) {
	t.Helper()
	p := Demo()
	srv := server.New(p, cfg)
	c, err := remoteclient.Loopback(srv.Handler())
	if err != nil {
		srv.Close()
		t.Fatalf("loopback handshake: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		srv.Close()
	})
	return p, srv, c
}

// errKindName classifies an error the way both sides of the wire must
// agree on: the QueryError kind, or "unknown" for untyped errors (which
// travel as kind "unknown" and come back as KindUnknown QueryErrors).
func errKindName(err error) string {
	var qe *aqerr.QueryError
	if errors.As(err, &qe) {
		return qe.Kind.String()
	}
	return aqerr.KindUnknown.String()
}

// drainClose marshals a streaming result and releases its cursor.
func drainClose(r *Rows) (string, error) {
	s, err := marshalStreamed(r)
	r.Close()
	return s, err
}

// TestServedMatchesInProcess is the differential conformance net: the
// full corpus, both result modes, served over the wire (with a small
// fetch chunk so every statement crosses multiple fetches) against the
// in-process platform. Rows must match byte for byte; failing statements
// must fail with the same typed-error kind on both paths.
func TestServedMatchesInProcess(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{FetchRows: 3, SessionIdleTimeout: time.Minute})
	for _, mode := range []ResultMode{ModeXML, ModeText} {
		for _, sql := range compiledCorpus() {
			args := chaosArgs(strings.Count(sql, "?"))
			local, err := p.QueryDialect(context.Background(), DialectSQL, mode, sql, args...)
			if err != nil {
				t.Fatalf("mode %v: %q: in-process: %v", mode, sql, err)
			}
			want := marshalRows(local)
			remote, err := c.QueryDialect(context.Background(), "", mode, sql, args...)
			if err != nil {
				t.Fatalf("mode %v: %q: served: %v", mode, sql, err)
			}
			got, err := drainClose(remote)
			if err != nil {
				t.Fatalf("mode %v: %q: served iteration: %v", mode, sql, err)
			}
			if got != want {
				t.Fatalf("mode %v: %q: served rows diverged from in-process\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
		}
	}

	// Failing statements: the typed-error kind must survive the wire.
	failing := []string{
		"SELECT NOPE FROM NO_SUCH_TABLE",
		"SELECT FROM WHERE",
		"SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ? AND CITY = ? AND STATUS = ?",
		"SELECT CUSTOMERID FROM",
	}
	for _, sql := range failing {
		_, lerr := p.QueryDialect(context.Background(), DialectSQL, ModeText, sql)
		_, rerr := c.QueryDialect(context.Background(), "", ModeText, sql)
		if lerr == nil || rerr == nil {
			t.Fatalf("%q: expected both paths to fail (local=%v remote=%v)", sql, lerr, rerr)
		}
		if lk, rk := errKindName(lerr), errKindName(rerr); lk != rk {
			t.Fatalf("%q: error kind diverged: in-process %s, served %s (%v vs %v)", sql, lk, rk, lerr, rerr)
		}
	}
}

// TestColumnFacetsAgreeOnEveryPath pins one result schema across every
// surface that reports it: the facade's rows, a served prepare, served
// executions (prepared and ad hoc), and the database/sql driver must all
// carry the declared VARCHAR(64) and DECIMAL(10,2) facets.
func TestColumnFacetsAgreeOnEveryPath(t *testing.T) {
	const query = "SELECT CUSTOMERNAME, PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID"
	want := []struct {
		typ              catalog.SQLType
		precision, scale int
	}{{catalog.SQLVarchar, 64, 0}, {catalog.SQLDecimal, 10, 2}}
	check := func(path string, cols []resultset.Column) {
		t.Helper()
		if len(cols) != len(want) {
			t.Fatalf("%s: %d columns, want %d", path, len(cols), len(want))
		}
		for i, w := range want {
			if c := cols[i]; c.Type != w.typ || c.Precision != w.precision || c.Scale != w.scale {
				t.Errorf("%s: column %s = %v(%d,%d), want %v(%d,%d)",
					path, c.Label, c.Type, c.Precision, c.Scale, w.typ, w.precision, w.scale)
			}
		}
	}
	ctx := context.Background()
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})

	rows, err := p.QueryDialect(ctx, DialectSQL, ModeText, query)
	if err != nil {
		t.Fatal(err)
	}
	check("facade rows", rows.Columns())
	rows.Close()

	st, err := c.Prepare(ctx, query, ModeText)
	if err != nil {
		t.Fatal(err)
	}
	check("remote prepare", st.Columns())
	if rows, err = st.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	check("remote prepared execute", rows.Columns())
	rows.Close()
	if rows, err = c.Query(ctx, query); err != nil {
		t.Fatal(err)
	}
	check("remote ad-hoc execute", rows.Columns())
	rows.Close()

	p.RegisterDriver("facets-test")
	db, err := sql.Open("aqualogic", "facets-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dbRows, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	defer dbRows.Close()
	types, err := dbRows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		precision, scale, ok := types[i].DecimalSize()
		if !ok || precision != int64(w.precision) || scale != int64(w.scale) {
			t.Errorf("driver: column %s DecimalSize = (%d, %d, %v), want (%d, %d, true)",
				types[i].Name(), precision, scale, ok, w.precision, w.scale)
		}
	}
}

// FuzzServeDifferential extends the conformance net to arbitrary accepted
// SQL: whatever the statement, a doubly-successful run must produce
// byte-identical rows served and in-process.
func FuzzServeDifferential(f *testing.F) {
	for _, s := range compiledCorpus() {
		f.Add(s)
	}
	p := Demo()
	srv := server.New(p, server.Config{FetchRows: 5, SessionIdleTimeout: time.Hour})
	defer srv.Close()
	c, err := remoteclient.Loopback(srv.Handler())
	if err != nil {
		f.Fatalf("loopback handshake: %v", err)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, mode := range []ResultMode{ModeXML, ModeText} {
			cq, err := p.CompileDialect(context.Background(), DialectSQL, sql, mode)
			if err != nil || cq.Res.ParamCount > 2 {
				return
			}
			if strings.Contains(cq.XQuery(), "fn:current-") {
				return // nondeterministic between the two evaluations
			}
			args := chaosArgs(cq.Res.ParamCount)
			local, lerr := p.QueryDialect(context.Background(), DialectSQL, mode, sql, args...)
			var want string
			if lerr == nil {
				want = marshalRows(local)
			}
			remote, rerr := c.QueryDialect(context.Background(), "", mode, sql, args...)
			var got string
			if rerr == nil {
				got, rerr = drainClose(remote)
			}
			if lerr != nil || rerr != nil {
				// Dynamic error timing is not part of the contract; value
				// divergence on double success is the bug.
				return
			}
			if got != want {
				t.Fatalf("mode %v: %q: served diverged from in-process\ngot:  %s\nwant: %s",
					mode, sql, got, want)
			}
		}
	})
}

// postWire performs one raw wire exchange against a handler — the
// request-by-request view the session-lifecycle tests need. A non-OK
// response returns the decoded wire error.
func postWire(t *testing.T, h http.Handler, path string, in, out any) *wire.Error {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("%s: encode: %v", path, err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		var er wire.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil {
			t.Fatalf("%s: HTTP %d with undecodable error body %q", path, rec.Code, rec.Body.String())
		}
		return er.Error
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
	}
	return nil
}

// TestServeSessionLifecycle pins the session-state machine at the wire
// level: fetch past EOF re-reports EOF, closing a cursor twice is a safe
// no-op, closing a session twice is idempotent, and using a closed
// session is a typed unavailable error.
func TestServeSessionLifecycle(t *testing.T) {
	_, srv, _ := newLoopback(t, server.Config{FetchRows: 4, SessionIdleTimeout: time.Minute})
	h := srv.Handler()

	var hs wire.HandshakeResponse
	if we := postWire(t, h, wire.PathHandshake, wire.HandshakeRequest{}, &hs); we != nil {
		t.Fatalf("handshake: %v", we)
	}

	var ex wire.ExecuteResponse
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{
		Session: hs.Session, SQL: "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 1003",
	}, &ex); we != nil {
		t.Fatalf("execute: %v", we)
	}

	var rows int
	for {
		var fr wire.FetchResponse
		if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: hs.Session, Cursor: ex.Cursor}, &fr); we != nil {
			t.Fatalf("fetch: %v", we)
		}
		if fr.Error != nil {
			t.Fatalf("fetch error: %v", fr.Error)
		}
		rows += len(fr.Rows)
		if fr.EOF {
			break
		}
	}
	if rows != 3 {
		t.Fatalf("fetched %d rows, want 3", rows)
	}

	// Fetch past EOF: EOF again, not an error, no rows.
	var past wire.FetchResponse
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: hs.Session, Cursor: ex.Cursor}, &past); we != nil {
		t.Fatalf("fetch past EOF: %v", we)
	}
	if !past.EOF || past.Error != nil || len(past.Rows) != 0 {
		t.Fatalf("fetch past EOF: got %+v, want bare EOF", past)
	}

	// Double close-cursor: first close reports a live cursor, the second
	// is a successful no-op.
	var cc wire.CloseCursorResponse
	if we := postWire(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: hs.Session, Cursor: ex.Cursor}, &cc); we != nil || !cc.Closed {
		t.Fatalf("close cursor: closed=%v err=%v", cc.Closed, we)
	}
	if we := postWire(t, h, wire.PathCloseCursor, wire.CloseCursorRequest{Session: hs.Session, Cursor: ex.Cursor}, &cc); we != nil || cc.Closed {
		t.Fatalf("double close cursor: closed=%v err=%v, want idempotent no-op", cc.Closed, we)
	}

	// Fetch on the closed cursor is a typed permanent error.
	if we := postWire(t, h, wire.PathFetch, wire.FetchRequest{Session: hs.Session, Cursor: ex.Cursor}, &past); we == nil {
		t.Fatal("fetch on closed cursor succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("fetch on closed cursor: kind %s, want permanent", we.Kind)
	}

	// Executing an unknown prepared statement is permanent, not a crash.
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{Session: hs.Session, Stmt: 9999}, &ex); we == nil {
		t.Fatal("execute of unknown statement succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindPermanent {
		t.Fatalf("unknown statement: kind %s, want permanent", we.Kind)
	}

	// Session close is idempotent; everything after it is unavailable.
	var cs wire.CloseSessionResponse
	if we := postWire(t, h, wire.PathCloseSession, wire.CloseSessionRequest{Session: hs.Session}, &cs); we != nil {
		t.Fatalf("close session: %v", we)
	}
	if we := postWire(t, h, wire.PathCloseSession, wire.CloseSessionRequest{Session: hs.Session}, &cs); we != nil {
		t.Fatalf("double close session: %v", we)
	}
	if we := postWire(t, h, wire.PathExecute, wire.ExecuteRequest{Session: hs.Session, SQL: "SELECT 1 FROM CUSTOMERS"}, &ex); we == nil {
		t.Fatal("execute on closed session succeeded")
	} else if aqerr.ParseKind(we.Kind) != aqerr.KindUnavailable {
		t.Fatalf("execute on closed session: kind %s, want unavailable", we.Kind)
	}
}

// TestServeSessionReap pins the abandoned-client guard: a session idle
// past the timeout is reaped, its cursor is closed (cancelling the
// evaluation and returning the admission slot), and later requests on the
// session are typed unavailable errors.
func TestServeSessionReap(t *testing.T) {
	_, srv, c := newLoopback(t, server.Config{
		FetchRows:          2,
		SessionIdleTimeout: 40 * time.Millisecond,
	})

	// Open a cursor over a large join and abandon it mid-stream.
	rows, err := c.QueryDialect(context.Background(), "", ModeText,
		"SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// No Close, no more fetches: the client just goes away.

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.SessionsReaped >= 1 && st.CursorsReaped >= 1 && st.QueriesInFlight == 0 && st.CursorsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaper never cleaned up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The reaped session is gone: new work on it is typed unavailable.
	_, err = c.QueryDialect(context.Background(), "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("execute on reaped session: %v, want unavailable QueryError", err)
	}
}

// TestServeAdmissionControl pins the load-shed path: with one admission
// slot held by an undrained cursor, the next execute is rejected with a
// typed unavailable error and counted; releasing the cursor frees the
// slot.
func TestServeAdmissionControl(t *testing.T) {
	_, srv, c := newLoopback(t, server.Config{
		MaxConcurrentQueries: 1,
		AdmissionWait:        time.Millisecond,
		SessionIdleTimeout:   time.Minute,
	})
	ctx := context.Background()

	holder, err := c.QueryDialect(ctx, "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindUnavailable {
		t.Fatalf("over-admission execute: %v, want unavailable QueryError", err)
	}
	if st := srv.Stats(); st.AdmissionRejected < 1 || st.QueriesInFlight != 1 {
		t.Fatalf("admission counters: %+v", st)
	}

	holder.Close() // releases the slot
	again, err := c.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	if err != nil {
		t.Fatalf("execute after release: %v", err)
	}
	if _, err := drainClose(again); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.QueriesInFlight != 0 {
		t.Fatalf("in-flight not drained: %+v", st)
	}
}

// TestServeStatsTwoServers pins the stats surfaces: two servers over one
// platform in one process each count only their own sessions, cursors and
// admission rejections; the open-cursor figure is derived from the cursor
// tables; /v1/stats round-trips the server block and every registered
// pipeline metric through JSON; and the registry's one renderer shows
// every metric under a unique name.
func TestServeStatsTwoServers(t *testing.T) {
	p := Demo()
	srvA := server.New(p, server.Config{MaxSessions: 1, SessionIdleTimeout: time.Minute})
	srvB := server.New(p, server.Config{SessionIdleTimeout: time.Minute})
	defer srvA.Close()
	defer srvB.Close()
	cA, err := remoteclient.Loopback(srvA.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	cB, err := remoteclient.Loopback(srvB.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()
	ctx := context.Background()

	// One admission rejection, on A only: its single session slot is taken.
	if werr := postWire(t, srvA.Handler(), wire.PathHandshake, wire.HandshakeRequest{Client: "extra"}, nil); werr == nil {
		t.Fatal("second handshake on a one-session server succeeded")
	}
	holder, err := cA.QueryDialect(ctx, "", ModeText, "SELECT CUSTOMERID FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	done, err := cB.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM CUSTOMERS")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainClose(done); err != nil {
		t.Fatal(err)
	}

	a, b := srvA.Stats(), srvB.Stats()
	if a.CursorsOpen != 1 || b.CursorsOpen != 0 {
		t.Fatalf("open cursors: A=%d B=%d, want 1/0", a.CursorsOpen, b.CursorsOpen)
	}
	if a.SessionsOpened != 1 || a.SessionsOpen != 1 || a.CursorsOpened != 1 || a.AdmissionRejected != 1 || a.QueriesInFlight != 1 {
		t.Fatalf("server A counted another server's events: %+v", a)
	}
	if b.SessionsOpened != 1 || b.SessionsOpen != 1 || b.CursorsOpened != 1 || b.AdmissionRejected != 0 || b.QueriesInFlight != 0 {
		t.Fatalf("server B counted another server's events: %+v", b)
	}
	for _, tc := range []struct {
		c   *remoteclient.Client
		srv *server.Server
	}{{cA, srvA}, {cB, srvB}} {
		resp, err := tc.c.ServerStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.srv.Stats(); resp.Server != want {
			t.Fatalf("/v1/stats server block %+v, want %+v", resp.Server, want)
		}
	}

	// Once both servers are idle the process-wide registry stops moving,
	// so the decoded pipeline must equal the local snapshot by name.
	holder.Close()
	var diff []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := cA.ServerStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		local := Stats()
		diff = diff[:0]
		for _, d := range obsv.Registry() {
			if got, want := resp.Pipeline.Get(d.Name), local.Get(d.Name); got != want {
				diff = append(diff, fmt.Sprintf("%s=%d (local %d)", d.Name, got, want))
			}
		}
		if len(diff) == 0 && len(resp.Pipeline.Metrics) == len(obsv.Registry()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/stats pipeline differs from Stats(): %v (%d metrics decoded)", diff, len(resp.Pipeline.Metrics))
		}
	}

	var out strings.Builder
	Stats().Render(&out, obsv.Groups...)
	seen := map[string]bool{}
	for _, d := range obsv.Registry() {
		if seen[d.Name] {
			t.Fatalf("metric %s registered twice", d.Name)
		}
		seen[d.Name] = true
		if !strings.Contains(out.String(), " "+d.Name+"=") {
			t.Fatalf("Render with every group omits %s:\n%s", d.Name, out.String())
		}
	}
}

// TestServePreparedAcrossViewChange pins prepared statements against
// catalog churn: a CREATE VIEW mid-session bumps the metadata generation,
// and the next execution of an already-prepared statement recompiles
// against the new catalog instead of running a stale plan.
func TestServePreparedAcrossViewChange(t *testing.T) {
	_, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})
	ctx := context.Background()

	st, err := c.Prepare(ctx, "SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID = ?", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if st.ParamCount() != 1 || len(st.Columns()) != 1 {
		t.Fatalf("prepared shape: params=%d cols=%d", st.ParamCount(), len(st.Columns()))
	}
	first, err := st.Execute(ctx, 1005)
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainClose(first)
	if err != nil {
		t.Fatal(err)
	}

	missesBefore := Stats().Get("CompileCacheMisses")
	if err := c.DefineView(ctx, "Views", "V_SERVE_CHURN", "SELECT CUSTOMERID, CITY FROM CUSTOMERS"); err != nil {
		t.Fatalf("create view: %v", err)
	}

	second, err := st.Execute(ctx, 1005)
	if err != nil {
		t.Fatalf("execute after view change: %v", err)
	}
	got, err := drainClose(second)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prepared result changed across unrelated view churn\ngot:  %s\nwant: %s", got, want)
	}
	if misses := Stats().Get("CompileCacheMisses"); misses <= missesBefore {
		t.Fatalf("execution after CREATE VIEW reused a stale compile (misses %d -> %d)", missesBefore, misses)
	}

	// The new view is queryable in the same session.
	vrows, err := c.QueryDialect(ctx, "", ModeText, "SELECT CITY FROM V_SERVE_CHURN WHERE CUSTOMERID = 1005")
	if err != nil {
		t.Fatalf("query new view: %v", err)
	}
	if out, err := drainClose(vrows); err != nil || !strings.Contains(out, "|") {
		t.Fatalf("view rows: %q err=%v", out, err)
	}
}

// TestRowsErrDistinguishesCancelFromServerFault is the regression net for
// Rows.Err classification when a stream dies: a client-side context
// cancellation must surface as a timeout-kind QueryError still matching
// errors.Is(err, context.Canceled), while a server-side failure must keep
// its own typed kind — the two are programmatically distinguishable.
func TestRowsErrDistinguishesCancelFromServerFault(t *testing.T) {
	const bigJoin = "SELECT C.CUSTOMERID FROM CUSTOMERS C, PAYMENTS P"

	t.Run("in-process cancel", func(t *testing.T) {
		p := Demo()
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := p.QueryDialect(ctx, DialectSQL, ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
			t.Fatalf("Err() = %v, want timeout-kind QueryError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want errors.Is(context.Canceled)", err)
		}
	})

	t.Run("remote cancel", func(t *testing.T) {
		_, srv, c := newLoopback(t, server.Config{FetchRows: 2, SessionIdleTimeout: time.Minute})
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := c.QueryDialect(ctx, "", ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout {
			t.Fatalf("Err() = %v, want timeout-kind QueryError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want errors.Is(context.Canceled)", err)
		}
		// Cursor cleanup survives the cancelled stream context.
		rows.Close()
		if st := srv.Stats(); st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
			t.Fatalf("server state after cancelled client: %+v", st)
		}
	})

	t.Run("server fault", func(t *testing.T) {
		inj := faultnet.New(faultnet.Config{Seed: 11, Rate: 0, Kinds: []faultnet.Kind{faultnet.KindTransient}})
		_, _, c := newLoopback(t, server.Config{
			FetchRows:          2,
			SessionIdleTimeout: time.Minute,
			Faults:             inj,
		})
		rows, err := c.QueryDialect(context.Background(), "", ModeText, bigJoin)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		inj.SetRate(1) // every later fetch fails server-side
		for rows.Next() {
		}
		err = rows.Err()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) || qe.Kind != aqerr.KindTransient {
			t.Fatalf("Err() = %v, want transient-kind QueryError", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("server fault misclassified as client cancel: %v", err)
		}
	})
}

// TestServeMetadataSurface pins the remote catalog surface: the client is
// a catalog.Source whose lookups, typed not-found errors, and listings
// match the in-process catalog.
func TestServeMetadataSurface(t *testing.T) {
	p, _, c := newLoopback(t, server.Config{SessionIdleTimeout: time.Minute})

	meta, err := c.Lookup(catalog.TableRef{Table: "CUSTOMERS"})
	if err != nil {
		t.Fatalf("remote lookup: %v", err)
	}
	local, err := p.Metadata().Lookup(catalog.TableRef{Table: "CUSTOMERS"})
	if err != nil {
		t.Fatalf("local lookup: %v", err)
	}
	if meta.Schema != local.Schema {
		t.Fatalf("metadata diverged: remote schema %q, local %q", meta.Schema, local.Schema)
	}

	if _, err := c.Lookup(catalog.TableRef{Table: "NO_SUCH_TABLE"}); err == nil {
		t.Fatal("lookup of missing table succeeded")
	} else {
		var nf *catalog.NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("missing table error: %v, want catalog.NotFoundError", err)
		}
	}

	remoteTables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	localTables, err := p.Metadata().Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteTables) != len(localTables) || len(remoteTables) == 0 {
		t.Fatalf("table listing diverged: remote %d, local %d", len(remoteTables), len(localTables))
	}

	// EXPLAIN over the wire matches the in-process compile.
	text, err := c.ExplainDialect(context.Background(), "", "SELECT CUSTOMERID FROM CUSTOMERS", ModeText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "-- plan:") || !strings.Contains(text, "for $") {
		t.Fatalf("explain text missing plan or XQuery:\n%s", text)
	}
}

// TestServeSmoke is the end-to-end TCP path behind `make serve-smoke`: a
// real listener, a dialed client, a conformance subset, then a clean
// drain — no leaked goroutines, no open server state.
func TestServeSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	p := Demo()
	srv := server.New(p, server.Config{SessionIdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = hs.Serve(ln)
	}()

	c, err := remoteclient.Dial("http://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for _, sql := range compiledCorpus()[:5] {
		args := chaosArgs(strings.Count(sql, "?"))
		local, err := p.QueryDialect(context.Background(), DialectSQL, ModeText, sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := c.Query(context.Background(), sql, args...)
		if err != nil {
			t.Fatalf("%q over TCP: %v", sql, err)
		}
		got, err := drainClose(remote)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalRows(local); got != want {
			t.Fatalf("%q over TCP diverged\ngot:  %s\nwant: %s", sql, got, want)
		}
	}
	if _, err := c.ServerStats(context.Background()); err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}

	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	<-serveDone
	srv.Close()

	if st := srv.Stats(); st.SessionsOpen != 0 || st.CursorsOpen != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("server state after shutdown: %+v", st)
	}
	// Transport teardown is asynchronous; allow it to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
