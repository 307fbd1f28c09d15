// Package remoteclient is the thin-driver side of the wire protocol: the
// paper's client-side JDBC driver reimagined for this codebase. A Client
// speaks the internal/wire JSON protocol to an aqlserve server and
// presents the same two surfaces the in-process platform does:
//
//   - the query surface (QueryDialect returning *resultset.Rows,
//     PrepareDialect returning reusable statements, ExplainDialect,
//     DefineView), and
//   - the catalog surface (Client implements catalog.Source, including
//     the typed NotFoundError/AmbiguousError shapes), so metadata-hungry
//     tools browse a remote server exactly as they browse a local catalog.
//
// Result rows stream: execute opens a server-side cursor and the returned
// Rows pulls chunks over fetch calls through a RowCursor, preserving the
// platform's incremental delivery — first row before last row exists —
// across the wire. Mid-stream failures arrive as typed errors after any
// rows that preceded them (a truncated stream is never silent), and a
// cancelled client context surfaces as a timeout-kind error wrapping
// context.Canceled, distinguishable from server-side failures.
//
// Two transports exist: Dial speaks real HTTP to a remote address, and
// Loopback binds a client directly to a server's http.Handler in process
// — no sockets, no file descriptors — which is what lets the load harness
// simulate thousands of concurrent clients against one server.
//
// Every client carries a resilience net (see Options): transport
// failures classify as typed transient errors and idempotent verbs
// retry with backoff, honoring server Retry-After hints; a per-server
// circuit breaker fails fast when the transport itself is down; every
// execute carries an idempotency key and every fetch a sequence number,
// so a retried or hedged duplicate replays the server's cached chunk
// byte-identically instead of skipping or doubling rows. Each verb also
// forwards the caller's remaining context deadline as an explicit
// budget header, so the server never keeps working on a request its
// caller has already abandoned.
package remoteclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/resilient"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"

	"encoding/json"
)

// Client is one wire session against an aqlserve server. It is safe for
// concurrent use; all its configuration after the handshake is
// immutable (the breaker and exec-key counter are internally
// synchronized).
type Client struct {
	hc      *http.Client
	base    string
	session string
	opts    Options
	br      *resilient.Breaker
	execSeq atomic.Int64
}

// dialClient is the single pooled HTTP client every Dial session shares.
// Each verb is one POST, so without keep-alive pooling a busy client fleet
// re-handshakes TCP per request; one transport with a per-host idle pool
// amortizes connections across all sessions to the same server.
var dialClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Dial connects to a server over real HTTP and opens a session with
// default resilience Options. All dialed clients share one pooled,
// keep-alive transport.
func Dial(baseURL string) (*Client, error) {
	return DialOptions(baseURL, Options{})
}

// DialOptions is Dial with explicit resilience knobs.
func DialOptions(baseURL string, opts Options) (*Client, error) {
	return connect(baseURL, dialClient, opts)
}

// Loopback binds a client directly to a server handler in-process: every
// request is a function call through an in-memory transport, so thousands
// of concurrent clients cost goroutines, not sockets.
func Loopback(h http.Handler) (*Client, error) {
	return LoopbackOptions(h, Options{})
}

// LoopbackOptions is Loopback with explicit resilience knobs.
func LoopbackOptions(h http.Handler, opts Options) (*Client, error) {
	return connect("http://loopback", &http.Client{Transport: loopbackTransport{h: h}}, opts)
}

func connect(base string, hc *http.Client, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{hc: hc, base: strings.TrimSuffix(base, "/"), opts: opts}
	c.br = resilient.NewBreaker("server "+c.base, opts.BreakerThreshold, opts.BreakerCooldown)
	// A lost handshake response leaks a session until the idle reaper
	// collects it, which is why retrying it here is safe.
	resp, err := postRetry[wire.HandshakeResponse](context.Background(), c, "handshake", wire.PathHandshake,
		wire.HandshakeRequest{Client: "remoteclient"}, true)
	if err != nil {
		return nil, err
	}
	c.session = resp.Session
	return c, nil
}

// Session returns the server-issued session token.
func (c *Client) Session() string { return c.session }

// Close ends the session, closing its server-side cursors and prepared
// statements. Closing an already-closed (or reaped) session succeeds.
func (c *Client) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := postRetry[wire.CloseSessionResponse](ctx, c, "close session", wire.PathCloseSession,
		wire.CloseSessionRequest{Session: c.session}, true)
	return err
}

// loopbackTransport serves each request by calling the handler directly.
type loopbackTransport struct {
	h http.Handler
}

func (t loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rw := &memResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rw, req)
	if err := req.Context().Err(); err != nil {
		// The handler returned because the caller's context died (a stall
		// fault cancelled mid-request): surface the cancellation, as a real
		// transport would.
		return nil, err
	}
	return &http.Response{
		Status:     http.StatusText(rw.code),
		StatusCode: rw.code,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       io.NopCloser(bytes.NewReader(rw.buf.Bytes())),
		Request:    req,
	}, nil
}

// memResponse is the minimal in-memory http.ResponseWriter behind the
// loopback transport.
type memResponse struct {
	header http.Header
	buf    bytes.Buffer
	code   int
	wrote  bool
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if !m.wrote {
		m.wrote = true
		m.code = code
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	m.wrote = true
	return m.buf.Write(p)
}

// post performs one JSON request/response exchange. Protocol failures
// decode the server's wire.Error back into a typed QueryError. Transport
// failures are classified here, and the split matters to every caller up
// to Rows.Err(): the caller's own context expiry surfaces as a
// timeout-kind error still matching errors.Is(ctx.Err()), while every
// other way an exchange can die without a server verdict — refused or
// reset connections, a response body cut off mid-stream — is a typed
// transient error, never an untyped one a retry loop or breaker would
// have to string-match. The caller's remaining deadline also travels as
// an explicit budget header, so the server can stop (or never start)
// work the client will not wait for.
func (c *Client) post(ctx context.Context, op, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return aqerr.Errorf(aqerr.KindInternal, op, "encode request: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return aqerr.Errorf(aqerr.KindInternal, op, "build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(wire.BudgetHeader, strconv.FormatInt(ms, 10))
		}
	}
	res, err := c.hc.Do(req)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return aqerr.Wrap(op, err) // the caller gave up → timeout kind
		}
		return aqerr.New(aqerr.KindTransient, op, err) // server never answered
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if derr := json.NewDecoder(res.Body).Decode(&er); derr == nil && er.Error != nil {
			return decodeError(er.Error)
		}
		// A non-OK status whose error body did not survive the trip: the
		// server's verdict is unknown, the transport is suspect.
		return aqerr.Errorf(aqerr.KindTransient, op, "server returned HTTP %d with unreadable error body", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return aqerr.Errorf(aqerr.KindTransient, op, "malformed response: %v", err)
	}
	return nil
}

// decodeError rebuilds a typed QueryError from its wire form, so
// errors.As/Kind-based handling — including the Retry-After hint on a
// shed — is identical on both sides of the wire.
func decodeError(we *wire.Error) error {
	qe := aqerr.New(aqerr.ParseKind(we.Kind), we.Op, errors.New(we.Msg))
	if we.RetryAfterMS > 0 {
		qe.RetryAfter = time.Duration(we.RetryAfterMS) * time.Millisecond
	}
	return qe
}

// encodeArgs converts Go parameter values to typed wire atoms.
func encodeArgs(op string, args []any) ([]*wire.Atom, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]*wire.Atom, len(args))
	for i, a := range args {
		v, err := xdm.FromGo(a)
		if err != nil {
			return nil, aqerr.Errorf(aqerr.KindPermanent, op, "parameter %d: %v", i+1, err)
		}
		out[i] = &wire.Atom{T: int(v.Type()), V: v.Lexical()}
	}
	return out, nil
}

// clientColumns decodes a wire result schema.
func clientColumns(cols []wire.Column) []resultset.Column {
	out := make([]resultset.Column, len(cols))
	for i, c := range cols {
		out[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName,
			Type: catalog.SQLType(c.Type), Nullable: c.Nullable, Precision: c.Precision, Scale: c.Scale}
	}
	return out
}

// Query runs ad-hoc SQL in the default text result mode.
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*resultset.Rows, error) {
	return c.QueryDialect(ctx, "", translator.ModeText, sql, args...)
}

// QueryDialect runs an ad-hoc statement in the given dialect and result
// mode, returning a streaming result set whose rows arrive in fetch-sized
// chunks. ctx governs the whole stream: cancelling it fails the next
// fetch with a timeout-kind error wrapping the context error. The dialect
// name travels on the wire; empty means SQL-92, so the request a
// pre-dialect client would send is byte-identical.
func (c *Client) QueryDialect(ctx context.Context, dialect string, mode translator.ResultMode, text string, args ...any) (*resultset.Rows, error) {
	wargs, err := encodeArgs("execute", args)
	if err != nil {
		return nil, err
	}
	return c.execute(ctx, wire.ExecuteRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect, Args: wargs})
}

func (c *Client) execute(ctx context.Context, req wire.ExecuteRequest) (*resultset.Rows, error) {
	// The exec key makes this verb idempotent: a retry after a lost
	// response replays the already-opened cursor instead of running the
	// query twice. The explicit budget lets the server clamp evaluation —
	// and bound the admission queue wait — to what the caller will
	// actually wait for.
	req.ExecKey = "x" + strconv.FormatInt(c.execSeq.Add(1), 10)
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.BudgetMS = ms
		}
	}
	resp, err := postRetry[wire.ExecuteResponse](ctx, c, "execute", wire.PathExecute, req, true)
	if err != nil {
		return nil, err
	}
	cur := &remoteCursor{c: c, ctx: ctx, cursor: resp.Cursor, cols: clientColumns(resp.Columns)}
	return resultset.NewStreaming(cur), nil
}

// Stmt is a prepared statement pinned in the server session.
type Stmt struct {
	c      *Client
	id     int64
	cols   []resultset.Column
	params int
}

// Prepare compiles a statement server-side and pins it in the session's
// prepared table. Each execution re-resolves through the server's compile
// cache, so catalog changes (CREATE VIEW) transparently recompile.
func (c *Client) Prepare(ctx context.Context, sql string, mode translator.ResultMode) (*Stmt, error) {
	return c.PrepareDialect(ctx, "", sql, mode)
}

// PrepareDialect is Prepare with an explicit query dialect ("" = SQL-92).
func (c *Client) PrepareDialect(ctx context.Context, dialect, text string, mode translator.ResultMode) (*Stmt, error) {
	// Retry-safe: a duplicate prepare pins a second copy of the statement,
	// reclaimed with the session — never a semantic change.
	resp, err := postRetry[wire.PrepareResponse](ctx, c, "prepare", wire.PathPrepare,
		wire.PrepareRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect}, true)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.Stmt, cols: clientColumns(resp.Columns), params: resp.ParamCount}, nil
}

// Columns returns the prepared statement's result schema.
func (s *Stmt) Columns() []resultset.Column { return s.cols }

// ParamCount returns the number of ? placeholders.
func (s *Stmt) ParamCount() int { return s.params }

// Execute runs the prepared statement with the given parameters.
func (s *Stmt) Execute(ctx context.Context, args ...any) (*resultset.Rows, error) {
	wargs, err := encodeArgs("execute", args)
	if err != nil {
		return nil, err
	}
	return s.c.execute(ctx, wire.ExecuteRequest{Session: s.c.session, Stmt: s.id, Args: wargs})
}

// ExplainDialect compiles a statement remotely and returns the rendered
// plan ("" = SQL-92).
func (c *Client) ExplainDialect(ctx context.Context, dialect, text string, mode translator.ResultMode) (string, error) {
	resp, err := postRetry[wire.ExplainResponse](ctx, c, "explain", wire.PathExplain,
		wire.ExplainRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect}, true)
	return resp.Text, err
}

// DefineView registers a logical data service on the server. It is the
// one verb with a durable side effect, so it is never retried: a lost
// response must surface to the caller, not risk a second registration.
func (c *Client) DefineView(ctx context.Context, path, name, sql string) error {
	_, err := postRetry[wire.CreateViewResponse](ctx, c, "create view", wire.PathCreateView,
		wire.CreateViewRequest{Session: c.session, Path: path, Name: name, SQL: sql}, false)
	return err
}

// ServerStats fetches the server's counter block and pipeline snapshot.
func (c *Client) ServerStats(ctx context.Context) (wire.StatsResponse, error) {
	return postRetry[wire.StatsResponse](ctx, c, "stats", wire.PathStats, wire.StatsRequest{}, true)
}

// Lookup implements catalog.Source against the remote catalog.
func (c *Client) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	return c.LookupContext(context.Background(), ref)
}

// LookupContext implements catalog.ContextSource, reconstructing the
// typed not-found/ambiguous failures a local catalog would return.
func (c *Client) LookupContext(ctx context.Context, ref catalog.TableRef) (*catalog.TableMeta, error) {
	resp, err := postRetry[wire.LookupResponse](ctx, c, "metadata lookup", wire.PathMetaLookup,
		wire.LookupRequest{Session: c.session, Catalog: ref.Catalog, Schema: ref.Schema, Table: ref.Table}, true)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.NotFound:
		return nil, &catalog.NotFoundError{Ref: ref}
	case len(resp.Ambiguous) > 0:
		return nil, &catalog.AmbiguousError{Ref: ref, Schemas: resp.Ambiguous}
	case resp.Meta == nil:
		return nil, fmt.Errorf("remoteclient: empty metadata response for %s", ref)
	}
	return resp.Meta, nil
}

// Tables implements catalog.Source.
func (c *Client) Tables() ([]*catalog.TableMeta, error) {
	resp, err := postRetry[wire.MetasResponse](context.Background(), c, "metadata tables", wire.PathMetaTables,
		wire.MetasRequest{Session: c.session}, true)
	return resp.Metas, err
}

// Procedures implements catalog.Source.
func (c *Client) Procedures() ([]*catalog.TableMeta, error) {
	resp, err := postRetry[wire.MetasResponse](context.Background(), c, "metadata procedures", wire.PathMetaProcs,
		wire.MetasRequest{Session: c.session}, true)
	return resp.Metas, err
}

// remoteCursor is the fetch-chunked resultset.RowCursor behind remote
// queries. Rows buffer one chunk at a time; EOF and errors are terminal
// and sticky, and an in-band error is delivered only after the rows that
// preceded it (truncation semantics match the in-process fault path).
type remoteCursor struct {
	c      *Client
	ctx    context.Context
	cursor int64
	cols   []resultset.Column

	seq     int64 // last successfully consumed fetch sequence number
	buf     [][]*wire.Atom
	pos     int
	eof     bool
	pending error
	closed  bool
}

// Columns implements resultset.RowCursor.
func (rc *remoteCursor) Columns() []resultset.Column { return rc.cols }

// Next implements resultset.RowCursor: one decoded row per call, io.EOF
// after the last.
func (rc *remoteCursor) Next() ([]xdm.Atomic, error) {
	for {
		if rc.pos < len(rc.buf) {
			row := rc.buf[rc.pos]
			rc.pos++
			return decodeRow(row, rc.cols)
		}
		if rc.pending != nil {
			return nil, rc.pending
		}
		if rc.eof || rc.closed {
			return nil, io.EOF
		}
		seq := rc.seq + 1
		resp, err := rc.fetchChunk(seq)
		if err != nil {
			rc.pending = err
			return nil, err
		}
		if resp.Error != nil && rc.c.opts.MaxRetries > 0 && aqerr.Transient(decodeError(resp.Error)) {
			// An in-band transient error may have damaged only this
			// transmission (a chunk truncated mid-flight travels as its
			// prefix plus the error). One same-sequence replay recovers the
			// server's intact cached chunk; a genuinely failed cursor
			// replays the identical error and it is delivered below.
			obsv.Global.RemoteRetries.Inc()
			if r2, err2 := rc.fetchChunk(seq); err2 == nil {
				if r2.Error == nil {
					obsv.Global.RemoteRetrySuccesses.Inc()
				}
				resp = r2
			}
		}
		rc.seq = seq
		rc.buf, rc.pos = resp.Rows, 0
		switch {
		case resp.Error != nil:
			rc.pending = decodeError(resp.Error)
		case resp.EOF:
			rc.eof = true
		case len(resp.Rows) == 0:
			// Defensive: a chunk with no rows and no terminal marker would
			// spin this loop; treat it as a protocol error.
			rc.pending = aqerr.Errorf(aqerr.KindInternal, "fetch", "empty fetch chunk without EOF")
		}
	}
}

// fetchChunk pulls one sequenced chunk, optionally hedged: when the
// first request has not answered within HedgeDelay, an identical
// request (same sequence number, so the server replays rather than
// advances) races it and the first answer wins. The loser is cancelled
// and drains into a buffered channel, so a hedge never leaks a
// goroutine past the pull that spawned it.
func (rc *remoteCursor) fetchChunk(seq int64) (wire.FetchResponse, error) {
	c := rc.c
	req := wire.FetchRequest{Session: c.session, Cursor: rc.cursor, Seq: seq}
	if c.opts.HedgeDelay <= 0 {
		return postRetry[wire.FetchResponse](rc.ctx, c, "fetch", wire.PathFetch, req, true)
	}
	hctx, cancel := context.WithCancel(rc.ctx)
	defer cancel()
	type outcome struct {
		resp   wire.FetchResponse
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	launch := func(hedged bool) {
		resp, err := postRetry[wire.FetchResponse](hctx, c, "fetch", wire.PathFetch, req, true)
		ch <- outcome{resp: resp, err: err, hedged: hedged}
	}
	go launch(false)
	timer := time.NewTimer(c.opts.HedgeDelay)
	defer timer.Stop()
	outstanding, hedgeLaunched := 1, false
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil || outstanding == 0 {
				if o.err == nil && o.hedged {
					obsv.Global.HedgeWins.Inc()
				}
				return o.resp, o.err
			}
			// The first arrival failed while its twin is still in flight:
			// let the twin's outcome decide.
		case <-timer.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				outstanding++
				obsv.Global.FetchHedges.Inc()
				go launch(true)
			}
		}
	}
}

// Close implements resultset.RowCursor, releasing the server-side cursor
// (which cancels the remote evaluation). It uses its own deadline rather
// than the stream context, so cancelling a query still cleans up its
// server state.
//
// The two ways a cursor closes have different stakes. Mid-stream, the
// close IS the cancellation — if it fails the server may keep evaluating,
// so the error surfaces. After the stream already ended (EOF or a
// delivered error), the server has released the query's admission slot
// and the close only reclaims the session's cursor-table entry; session
// close and the idle reaper reclaim it anyway, so a failure of that
// hygiene call must not retroactively fail a fully-delivered query.
func (rc *remoteCursor) Close() error {
	if rc.closed {
		return nil
	}
	rc.closed = true
	rc.buf = nil
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := postRetry[wire.CloseCursorResponse](ctx, rc.c, "close cursor", wire.PathCloseCursor,
		wire.CloseCursorRequest{Session: rc.c.session, Cursor: rc.cursor}, true)
	if rc.eof || rc.pending != nil {
		return nil // best-effort cleanup after a terminal stream
	}
	return err
}

// decodeRow re-parses one wire row into atomic values (nil = SQL NULL).
func decodeRow(row []*wire.Atom, cols []resultset.Column) ([]xdm.Atomic, error) {
	out := make([]xdm.Atomic, len(cols))
	for i := range cols {
		if i >= len(row) || row[i] == nil {
			continue
		}
		v, err := xdm.ParseAtomic(row[i].V, xdm.AtomicType(row[i].T))
		if err != nil {
			return nil, aqerr.Errorf(aqerr.KindInternal, "decode row", "column %d: %v", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}
