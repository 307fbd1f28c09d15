// Package server is the network front end of the platform: the AquaLogic
// DSP server process the paper's thin JDBC driver talks to. Everything the
// repo previously did in-process behind the facade — metadata lookups,
// SQL→XQuery compilation, streaming evaluation, §4 result decoding — is
// exposed here over an HTTP/JSON wire protocol (internal/wire) with
// per-session prepared-statement and cursor tables, connection/session
// limits, admission control, and idle-session reaping.
//
// The server is deliberately a thin shell over a Backend (the aqualogic
// Platform satisfies it): translation, planning, caching, resilience, and
// streaming all stay where they are. What the server adds is the
// multi-tenant discipline a wire boundary forces:
//
//   - Sessions. A handshake opens a session; prepared statements and open
//     cursors are per-session state, bounded by MaxSessions. Sessions idle
//     longer than SessionIdleTimeout are reaped — their cursors closed,
//     which cancels the underlying evaluations, so an abandoned client
//     cannot pin evaluator goroutines or buffered rows.
//   - Admission control. A concurrency semaphore bounds evaluations in
//     flight; executions beyond it wait briefly and are then rejected with
//     a typed unavailable error rather than queueing without bound.
//   - Backpressure. Rows leave the server only through fetch calls. The
//     evaluator's bounded-channel cursor (PR 5) blocks the producer once
//     its 64-row buffer fills, so a slow reader holds a query's whole
//     memory footprint to one channel's worth of rows — and a reader that
//     never returns is eventually reaped, which cancels the evaluation.
//
// Fault points named srv/* hook the request surface into the faultnet
// chaos layer. Every counter the server keeps (sessions, in-flight
// queries, admission, sheds, replays, cursors reaped) is its own and is
// reported only through Stats, so two servers in one process never mix
// their figures.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/faultnet"
	"repro/internal/qcache"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"
)

// Backend is the query-processing surface the server fronts. The
// aqualogic.Platform satisfies it; tests may substitute fakes.
type Backend interface {
	// CompileDialect translates, checks, and plans a statement through the
	// shared compile cache; the text is parsed by the dialect's registered
	// front end.
	CompileDialect(ctx context.Context, dialect qfront.Dialect, text string, mode translator.ResultMode) (*qcache.CompiledQuery, error)
	// QueryDialect compiles (cached), binds parameters, and starts a
	// streaming evaluation.
	QueryDialect(ctx context.Context, dialect qfront.Dialect, mode translator.ResultMode, text string, args ...any) (*resultset.Rows, error)
	// DefineView registers a logical data service (CREATE VIEW).
	DefineView(path, name, sql string) error
	// Metadata is the catalog source metadata endpoints serve from.
	Metadata() catalog.Source
}

// Config bounds one server instance. Zero fields take the defaults below.
type Config struct {
	// MaxSessions caps concurrently open sessions (default 4096).
	MaxSessions int
	// MaxConcurrentQueries sizes the admission semaphore: evaluations in
	// flight at once, across all sessions (default 256).
	MaxConcurrentQueries int
	// AdmissionWait is how long an execute waits for an admission slot
	// before being rejected with a typed unavailable error (default 50ms).
	// A client that sent a shorter deadline budget waits only that long.
	AdmissionWait time.Duration
	// CostPerSlot converts a compiled query's cost estimate (predicted
	// tuple visits) into admission slots: weight = 1 + (cost-1)/CostPerSlot,
	// so statements under one slot's worth of work weigh 1. Zero takes the
	// default (10000); negative disables cost weighting entirely — every
	// query weighs 1, the legacy count-only admission.
	CostPerSlot int64
	// MaxQueryWeight clamps one query's admission weight so a single
	// monster statement cannot starve the server (default
	// MaxConcurrentQueries/4, minimum 1).
	MaxQueryWeight int64
	// AdmissionQueue bounds how many executions may wait for admission at
	// once; arrivals beyond it shed immediately (default
	// 4×MaxConcurrentQueries).
	AdmissionQueue int
	// BrownoutDecay is how long the brownout level takes to step down one
	// notch after pressure (queue overflow / queue timeout) stops
	// (default 250ms).
	BrownoutDecay time.Duration
	// SessionIdleTimeout reaps sessions (and their cursors: the attached
	// evaluations are cancelled) that have not issued a request for this
	// long (default 60s; negative disables reaping).
	SessionIdleTimeout time.Duration
	// FetchRows is the per-fetch row chunk cap when the client does not
	// ask for a specific size (default 256).
	FetchRows int
	// QueryTimeout bounds each evaluation's lifetime from execute to last
	// fetch (0 = unbounded). A cursor still open at the deadline surfaces
	// a timeout-kind error on its next fetch.
	QueryTimeout time.Duration
	// Faults, when set, arms the srv/* fault points: every request site
	// misbehaves on the injector's deterministic schedule.
	Faults *faultnet.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	if c.MaxConcurrentQueries == 0 {
		c.MaxConcurrentQueries = 256
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 50 * time.Millisecond
	}
	if c.SessionIdleTimeout == 0 {
		c.SessionIdleTimeout = 60 * time.Second
	}
	if c.FetchRows <= 0 {
		c.FetchRows = 256
	}
	if c.CostPerSlot == 0 {
		c.CostPerSlot = 10000
	}
	if c.MaxQueryWeight <= 0 {
		c.MaxQueryWeight = int64(c.MaxConcurrentQueries) / 4
		if c.MaxQueryWeight < 1 {
			c.MaxQueryWeight = 1
		}
	}
	if c.AdmissionQueue == 0 {
		c.AdmissionQueue = 4 * c.MaxConcurrentQueries
	}
	if c.BrownoutDecay == 0 {
		c.BrownoutDecay = 250 * time.Millisecond
	}
	return c
}

// Server owns the session table and the admission semaphore. Create with
// New, expose with Handler, shut down with Close.
type Server struct {
	b   Backend
	cfg Config

	baseCtx context.Context // parent of every evaluation; Close cancels it
	stop    context.CancelFunc

	adm *admission // cost-weighted admission slots + queue + brownout

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	nextSession atomic.Int64
	reaperDone  chan struct{}

	// Instance counters, reported only through Stats. Open sessions and
	// cursors are not counted: Stats reads them off the tables.
	sessionsOpened    atomic.Int64
	sessionsReaped    atomic.Int64
	cursorsOpened     atomic.Int64
	cursorsReaped     atomic.Int64
	inFlight          atomic.Int64
	peakInFlight      atomic.Int64
	admissionRejected atomic.Int64
	execReplays       atomic.Int64
	fetchReplays      atomic.Int64
}

// New builds a server over a backend. The returned server is serving
// state immediately; wire it to HTTP with Handler.
func New(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		b:        b,
		cfg:      cfg,
		baseCtx:  ctx,
		stop:     cancel,
		adm:      newAdmission(cfg),
		sessions: make(map[string]*session),
	}
	if cfg.SessionIdleTimeout > 0 {
		s.reaperDone = make(chan struct{})
		go s.reapLoop()
	}
	return s
}

// Close shuts the server down: no new requests are accepted, every open
// session is closed (cancelling its in-flight evaluations), and the idle
// reaper exits. After Close returns no server-owned goroutine is running.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	open := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.sessions = map[string]*session{}
	s.mu.Unlock()

	for _, ss := range open {
		ss.close(false)
	}
	s.stop()
	if s.reaperDone != nil {
		<-s.reaperDone
	}
}

// Stats snapshots the instance counters. Open sessions and cursors are
// the sizes of the session and cursor tables: the session list is taken
// under s.mu, then each session's cursors are counted under its own lock.
func (s *Server) Stats() wire.ServerStats {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	st := wire.ServerStats{
		SessionsOpen:      int64(len(sessions)),
		SessionsOpened:    s.sessionsOpened.Load(),
		SessionsReaped:    s.sessionsReaped.Load(),
		CursorsOpened:     s.cursorsOpened.Load(),
		CursorsReaped:     s.cursorsReaped.Load(),
		QueriesInFlight:   s.inFlight.Load(),
		PeakInFlight:      s.peakInFlight.Load(),
		AdmissionRejected: s.admissionRejected.Load(),
		ExecReplays:       s.execReplays.Load(),
		FetchReplays:      s.fetchReplays.Load(),
	}
	for _, ss := range sessions {
		ss.mu.Lock()
		st.CursorsOpen += int64(len(ss.cursors))
		ss.mu.Unlock()
	}
	s.adm.stats(&st)
	return st
}

// reapLoop closes sessions idle past the configured timeout.
func (s *Server) reapLoop() {
	defer close(s.reaperDone)
	interval := s.cfg.SessionIdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.reapIdle(time.Now())
		}
	}
}

// reapIdle closes every session whose last request is older than the idle
// timeout. Reaping closes the session's cursors, which cancels their
// evaluations — the leak guard for abandoned clients.
func (s *Server) reapIdle(now time.Time) {
	cutoff := now.Add(-s.cfg.SessionIdleTimeout).UnixNano()
	s.mu.Lock()
	var idle []*session
	for id, ss := range s.sessions {
		if ss.lastUsed.Load() < cutoff {
			idle = append(idle, ss)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, ss := range idle {
		ss.close(true)
		s.sessionsReaped.Add(1)
	}
}

// admit takes weight admission slots through the cost-aware semaphore,
// waiting at most AdmissionWait (or the client's remaining deadline
// budget, whichever is shorter). The typed unavailable error it returns
// on a shed — with its Retry-After hint — is the load signal clients
// back off on.
func (s *Server) admit(ctx context.Context, weight int64, budget time.Duration) error {
	if err := s.adm.admit(ctx, weight, budget); err != nil {
		s.admissionRejected.Add(1)
		return err
	}
	n := s.inFlight.Add(1)
	for {
		p := s.peakInFlight.Load()
		if n <= p || s.peakInFlight.CompareAndSwap(p, n) {
			break
		}
	}
	return nil
}

// release returns a query's admission slots.
func (s *Server) release(weight int64) {
	s.adm.release(weight)
	s.inFlight.Add(-1)
}

// fault rolls the named srv/* fault point and realizes the scheduled
// fault, if any. Truncation has no meaning for unary request sites and is
// realized as its transient error; the fetch path handles it inline
// instead, where there are rows to truncate.
func (s *Server) fault(ctx context.Context, site string) error {
	if s.cfg.Faults == nil {
		return nil
	}
	k, ok := s.cfg.Faults.Roll(site)
	if !ok {
		return nil
	}
	return s.cfg.Faults.Perform(ctx, site, k)
}

// session is one wire client's server-side state.
type session struct {
	id  string
	srv *Server

	lastUsed atomic.Int64 // unix nanos of the last request

	mu      sync.Mutex
	stmts   map[int64]*prepared
	cursors map[int64]*cursor
	// execKeys maps an execute idempotency token to the cursor it opened:
	// a retried execute replays the cursor instead of re-evaluating.
	execKeys map[string]int64
	nextID   int64
	closed   bool
}

// prepared is one prepared-statement table entry. Only the statement
// text, dialect, and mode are pinned: each execution re-resolves the
// compiled artifact through the shared compile cache, so a catalog change
// (CREATE VIEW bumping the metadata generation) transparently recompiles
// instead of executing against a stale plan.
type prepared struct {
	sql     string
	dialect qfront.Dialect
	mode    translator.ResultMode
}

// cursor is one open server-side cursor: a streaming result set plus the
// admission slots its evaluation occupies.
type cursor struct {
	rows    *resultset.Rows
	cols    []wire.Column
	cancel  context.CancelFunc
	weight  int64  // admission slots held until release
	execKey string // idempotency token that opened this cursor, if any

	mu       sync.Mutex
	eof      bool
	failed   *wire.Error // sticky: re-reported on every later fetch
	released bool        // admission slots returned
	// Sequenced-fetch replay state: the last chunk produced and its
	// sequence number. A retried or hedged fetch re-presenting lastSeq
	// gets lastResp byte-identically instead of advancing the cursor.
	lastSeq  int64
	lastResp wire.FetchResponse
}

// handshake opens a session.
func (s *Server) handshake(ctx context.Context, req wire.HandshakeRequest) (wire.HandshakeResponse, error) {
	if err := s.fault(ctx, "srv/handshake"); err != nil {
		return wire.HandshakeResponse{}, aqerr.Wrap("handshake", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.HandshakeResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "handshake", "server is shut down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.admissionRejected.Add(1)
		return wire.HandshakeResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "handshake",
			"session limit reached (%d open)", s.cfg.MaxSessions)
	}
	id := fmt.Sprintf("s%06x", s.nextSession.Add(1))
	ss := &session{
		id:       id,
		srv:      s,
		stmts:    make(map[int64]*prepared),
		cursors:  make(map[int64]*cursor),
		execKeys: make(map[string]int64),
	}
	ss.lastUsed.Store(time.Now().UnixNano())
	s.sessions[id] = ss
	s.sessionsOpened.Add(1)
	return wire.HandshakeResponse{Session: id}, nil
}

// lookupSession resolves a session token, touching its idle clock. A
// token the server no longer knows — never issued, closed, or reaped —
// is an unavailable-kind error: the client must open a new session.
func (s *Server) lookupSession(id string) (*session, error) {
	s.mu.Lock()
	ss, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, aqerr.Errorf(aqerr.KindUnavailable, "session", "unknown or expired session %q", id)
	}
	ss.lastUsed.Store(time.Now().UnixNano())
	return ss, nil
}

// closeSession ends a session explicitly.
func (s *Server) closeSession(ctx context.Context, req wire.CloseSessionRequest) error {
	if err := s.fault(ctx, "srv/session-close"); err != nil {
		return aqerr.Wrap("close session", err)
	}
	s.mu.Lock()
	ss, ok := s.sessions[req.Session]
	delete(s.sessions, req.Session)
	s.mu.Unlock()
	if !ok {
		return nil // idempotent
	}
	ss.close(false)
	return nil
}

// close tears a session down: every open cursor is closed, cancelling its
// evaluation and returning its admission slot. reaped marks the teardown
// as the idle reaper's (for the cursor-leak counters).
func (ss *session) close(reaped bool) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	cursors := make([]*cursor, 0, len(ss.cursors))
	for _, c := range ss.cursors {
		cursors = append(cursors, c)
	}
	ss.cursors = map[int64]*cursor{}
	ss.stmts = map[int64]*prepared{}
	ss.execKeys = map[string]int64{}
	ss.mu.Unlock()
	for _, c := range cursors {
		c.closeCursor(ss.srv)
		if reaped {
			ss.srv.cursorsReaped.Add(1)
		}
	}
}

// closeCursor releases one cursor exactly once: the streaming result set
// closes (cancelling the producer through the cursor plumbing), the
// evaluation context is cancelled, and the admission slot returns.
func (c *cursor) closeCursor(s *Server) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows.Close()
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	c.releaseLocked(s)
}

// releaseLocked returns the admission slots once per cursor (EOF, error,
// or close — whichever happens first).
func (c *cursor) releaseLocked(s *Server) {
	if !c.released {
		c.released = true
		s.release(c.weight)
	}
}

// prepare compiles a statement into the session's prepared table.
func (s *Server) prepare(ctx context.Context, req wire.PrepareRequest) (wire.PrepareResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.PrepareResponse{}, err
	}
	if err := s.fault(ctx, "srv/prepare"); err != nil {
		return wire.PrepareResponse{}, aqerr.Wrap("prepare", err)
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return wire.PrepareResponse{}, err
	}
	dialect, err := parseDialect(req.Dialect)
	if err != nil {
		return wire.PrepareResponse{}, err
	}
	cq, err := s.b.CompileDialect(ctx, dialect, req.SQL, mode)
	if err != nil {
		return wire.PrepareResponse{}, aqerr.Wrap("prepare", err)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return wire.PrepareResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "session", "session %q is closed", ss.id)
	}
	ss.nextID++
	id := ss.nextID
	ss.stmts[id] = &prepared{sql: req.SQL, dialect: dialect, mode: mode}
	return wire.PrepareResponse{
		Stmt:       id,
		Columns:    wireColumns(cq.Columns()),
		ParamCount: cq.Res.ParamCount,
	}, nil
}

// execute starts an evaluation — of a prepared statement or of ad-hoc SQL
// — under cost-aware admission control, and registers the resulting
// cursor. A request re-presenting an idempotency key the session has
// already executed replays the original cursor instead of evaluating
// again: a response lost on the wire costs the retrying client nothing
// and never duplicates work.
func (s *Server) execute(ctx context.Context, req wire.ExecuteRequest) (wire.ExecuteResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.ExecuteResponse{}, err
	}
	if err := s.fault(ctx, "srv/execute"); err != nil {
		return wire.ExecuteResponse{}, aqerr.Wrap("execute", err)
	}

	if req.ExecKey != "" {
		ss.mu.Lock()
		if id, ok := ss.execKeys[req.ExecKey]; ok {
			cur := ss.cursors[id]
			ss.mu.Unlock()
			if cur != nil {
				s.execReplays.Add(1)
				return wire.ExecuteResponse{Cursor: id, Columns: cur.cols}, nil
			}
			// The cursor this key opened is already closed: the original
			// response was evidently acted on, so a late retry is a
			// protocol-level duplicate, not a lost response.
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute",
				"idempotency key %q refers to a closed cursor", req.ExecKey)
		}
		ss.mu.Unlock()
	}

	sqlText, dialect, mode := req.SQL, qfront.DialectSQL, translator.ModeText
	if req.Stmt != 0 {
		ss.mu.Lock()
		st, ok := ss.stmts[req.Stmt]
		ss.mu.Unlock()
		if !ok {
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute",
				"unknown prepared statement %d", req.Stmt)
		}
		sqlText, dialect, mode = st.sql, st.dialect, st.mode
	} else {
		if mode, err = parseMode(req.Mode); err != nil {
			return wire.ExecuteResponse{}, err
		}
		if dialect, err = parseDialect(req.Dialect); err != nil {
			return wire.ExecuteResponse{}, err
		}
	}

	args := make([]any, len(req.Args))
	for i, a := range req.Args {
		if a == nil {
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute",
				"parameter %d: %v", i+1, xdm.ErrNullParameter)
		}
		v, err := xdm.ParseAtomic(a.V, xdm.AtomicType(a.T))
		if err != nil {
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute", "parameter %d: %v", i+1, err)
		}
		args[i] = v
	}

	// Score the statement through the compile cache (hot for anything seen
	// before) so admission weighs predicted cost. Statements that fail to
	// compile score the minimum weight and fail below, in evaluation,
	// where the error has always surfaced.
	weight := int64(1)
	if cq, cerr := s.b.CompileDialect(ctx, dialect, sqlText, mode); cerr == nil {
		weight = s.adm.weightFor(cq.Cost())
	}
	budget := time.Duration(req.BudgetMS) * time.Millisecond
	if err := s.admit(ctx, weight, budget); err != nil {
		return wire.ExecuteResponse{}, err
	}
	// The evaluation outlives this request: it is parented on the server's
	// base context (not the HTTP request's), bounded by QueryTimeout —
	// clamped to the client's remaining deadline budget, so work the
	// caller has already abandoned is never evaluated — and cancelled by
	// cursor close or session reaping.
	timeout := s.cfg.QueryTimeout
	if budget > 0 && (timeout <= 0 || budget < timeout) {
		timeout = budget
	}
	evalCtx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		evalCtx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	rows, err := s.b.QueryDialect(evalCtx, dialect, mode, sqlText, args...)
	if err != nil {
		cancel()
		s.release(weight)
		return wire.ExecuteResponse{}, aqerr.Wrap("execute", err)
	}
	cols := wireColumns(rows.Columns())
	cur := &cursor{rows: rows, cols: cols, cancel: cancel, weight: weight, execKey: req.ExecKey}

	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		cur.closeCursor(s)
		return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "session", "session %q is closed", ss.id)
	}
	ss.nextID++
	id := ss.nextID
	ss.cursors[id] = cur
	if req.ExecKey != "" {
		ss.execKeys[req.ExecKey] = id
	}
	ss.mu.Unlock()

	s.cursorsOpened.Add(1)
	return wire.ExecuteResponse{Cursor: id, Columns: cols}, nil
}

// fetch pulls the next chunk of rows from a cursor. EOF and errors are
// sticky: fetching past the end re-reports them instead of failing the
// session. A truncation fault injected at this site returns the chunk's
// prefix together with the transient error — partial data never travels
// silently.
func (s *Server) fetch(ctx context.Context, req wire.FetchRequest) (wire.FetchResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.FetchResponse{}, err
	}
	ss.mu.Lock()
	cur, ok := ss.cursors[req.Cursor]
	ss.mu.Unlock()
	if !ok {
		return wire.FetchResponse{}, aqerr.Errorf(aqerr.KindPermanent, "fetch", "unknown cursor %d", req.Cursor)
	}

	var truncate bool
	if s.cfg.Faults != nil {
		if k, fired := s.cfg.Faults.Roll("srv/fetch"); fired {
			if k == faultnet.KindTruncate {
				truncate = true
			} else if err := s.cfg.Faults.Perform(ctx, "srv/fetch", k); err != nil {
				return wire.FetchResponse{}, aqerr.Wrap("fetch", err)
			}
		}
	}

	limit := req.MaxRows
	if limit <= 0 || limit > s.cfg.FetchRows {
		limit = s.cfg.FetchRows
	}

	cur.mu.Lock()
	defer cur.mu.Unlock()
	if req.Seq != 0 {
		// Sequenced fetch: replay the cached chunk for the current number,
		// advance for the next, reject anything else. This is what makes
		// fetch idempotent — a retried or hedged duplicate of chunk n gets
		// the same bytes, never a skipped or doubled chunk.
		switch {
		case req.Seq == cur.lastSeq:
			s.fetchReplays.Add(1)
			return cur.lastResp, nil
		case req.Seq != cur.lastSeq+1:
			return wire.FetchResponse{}, aqerr.Errorf(aqerr.KindPermanent, "fetch",
				"fetch sequence %d out of order (expected %d or %d)", req.Seq, cur.lastSeq, cur.lastSeq+1)
		}
	}
	finish := func(resp wire.FetchResponse) (wire.FetchResponse, error) {
		if req.Seq != 0 {
			cur.lastSeq = req.Seq
			cur.lastResp = resp
		}
		return resp, nil
	}
	if cur.failed != nil {
		return finish(wire.FetchResponse{Error: cur.failed})
	}
	if cur.eof {
		return finish(wire.FetchResponse{EOF: true})
	}
	resp := wire.FetchResponse{}
	for len(resp.Rows) < limit {
		if !cur.rows.Next() {
			if rerr := cur.rows.Err(); rerr != nil {
				cur.failed = wireError("fetch", rerr)
				resp.Error = cur.failed
			} else {
				cur.eof = true
				resp.EOF = true
			}
			cur.releaseLocked(s) // evaluation finished; free the slot early
			break
		}
		row := make([]*wire.Atom, len(cur.cols))
		for i := range cur.cols {
			v, verr := cur.rows.Value(i)
			if verr != nil {
				cur.failed = wireError("fetch", verr)
				resp.Error = cur.failed
				cur.releaseLocked(s)
				return finish(resp)
			}
			if v != nil {
				row[i] = &wire.Atom{T: int(v.Type()), V: v.Lexical()}
			}
		}
		resp.Rows = append(resp.Rows, row)
	}
	if truncate {
		// A connection dropped mid-chunk: the prefix travels with the
		// transient error, exactly like faultnet's data-surface truncation.
		// The replay cache keeps the intact chunk — the damage is to this
		// transmission, not the cursor, so a sequenced retry recovers the
		// full chunk instead of replaying the fault.
		if req.Seq != 0 {
			cur.lastSeq = req.Seq
			cur.lastResp = resp
		}
		resp.Rows = resp.Rows[:len(resp.Rows)/2]
		resp.EOF = false
		ferr := &faultnet.Error{Site: "srv/fetch", Kind: faultnet.KindTruncate}
		resp.Error = wireError("fetch", aqerr.Wrap("fetch", ferr))
		return resp, nil
	}
	return finish(resp)
}

// closeCursor releases one cursor. Closing an unknown (or already closed)
// cursor is a successful no-op, so double close is safe on a retrying
// transport.
func (s *Server) closeCursor(ctx context.Context, req wire.CloseCursorRequest) (wire.CloseCursorResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.CloseCursorResponse{}, err
	}
	if err := s.fault(ctx, "srv/cursor-close"); err != nil {
		return wire.CloseCursorResponse{}, aqerr.Wrap("close cursor", err)
	}
	ss.mu.Lock()
	cur, ok := ss.cursors[req.Cursor]
	delete(ss.cursors, req.Cursor)
	if ok && cur.execKey != "" {
		delete(ss.execKeys, cur.execKey)
	}
	ss.mu.Unlock()
	if !ok {
		return wire.CloseCursorResponse{Closed: false}, nil
	}
	cur.closeCursor(s)
	return wire.CloseCursorResponse{Closed: true}, nil
}

// explain compiles a statement and renders its plan, streaming
// decomposition, and generated XQuery.
func (s *Server) explain(ctx context.Context, req wire.ExplainRequest) (wire.ExplainResponse, error) {
	if _, err := s.lookupSession(req.Session); err != nil {
		return wire.ExplainResponse{}, err
	}
	if err := s.fault(ctx, "srv/explain"); err != nil {
		return wire.ExplainResponse{}, aqerr.Wrap("explain", err)
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return wire.ExplainResponse{}, err
	}
	dialect, err := parseDialect(req.Dialect)
	if err != nil {
		return wire.ExplainResponse{}, err
	}
	cq, err := s.b.CompileDialect(ctx, dialect, req.SQL, mode)
	if err != nil {
		return wire.ExplainResponse{}, aqerr.Wrap("explain", err)
	}
	text := "-- dialect: " + string(cq.Dialect) + "\n-- plan:\n"
	for _, line := range cq.Plan.Describe() {
		text += "--   " + line + "\n"
	}
	text += "-- streaming: " + cq.Plan.Stream.Describe() + "\n" + cq.XQuery()
	return wire.ExplainResponse{Text: text}, nil
}

// createView registers a logical data service through the backend.
func (s *Server) createView(ctx context.Context, req wire.CreateViewRequest) error {
	if _, err := s.lookupSession(req.Session); err != nil {
		return err
	}
	if err := s.fault(ctx, "srv/view"); err != nil {
		return aqerr.Wrap("create view", err)
	}
	return s.b.DefineView(req.Path, req.Name, req.SQL)
}

// lookupMeta serves one metadata lookup, encoding the typed catalog
// failures so the client can reconstruct them.
func (s *Server) lookupMeta(ctx context.Context, req wire.LookupRequest) (wire.LookupResponse, error) {
	if err := s.fault(ctx, "srv/meta"); err != nil {
		return wire.LookupResponse{}, aqerr.Wrap("metadata lookup", err)
	}
	ref := catalog.TableRef{Catalog: req.Catalog, Schema: req.Schema, Table: req.Table}
	meta, err := catalog.LookupContext(ctx, s.b.Metadata(), ref)
	if err != nil {
		var nf *catalog.NotFoundError
		if errors.As(err, &nf) {
			return wire.LookupResponse{NotFound: true}, nil
		}
		var amb *catalog.AmbiguousError
		if errors.As(err, &amb) {
			return wire.LookupResponse{Ambiguous: amb.Schemas}, nil
		}
		return wire.LookupResponse{}, aqerr.Wrap("metadata lookup", err)
	}
	return wire.LookupResponse{Meta: meta}, nil
}

// parseDialect decodes the wire dialect name ("" defaults to SQL-92, so
// pre-dialect clients interoperate unchanged). Unknown names are a typed
// permanent error: retrying cannot help.
func parseDialect(name string) (qfront.Dialect, error) {
	fe, err := qfront.Lookup(qfront.Dialect(name))
	if err != nil {
		return "", aqerr.Errorf(aqerr.KindPermanent, "prepare", "%v", err)
	}
	return fe.Dialect(), nil
}

// parseMode decodes the wire result-mode name ("" defaults to text, the
// driver's default).
func parseMode(mode string) (translator.ResultMode, error) {
	switch mode {
	case "", "text":
		return translator.ModeText, nil
	case "xml":
		return translator.ModeXML, nil
	default:
		return 0, aqerr.Errorf(aqerr.KindPermanent, "prepare", "unknown result mode %q", mode)
	}
}

// wireColumns encodes a result schema for transit.
func wireColumns(cols []resultset.Column) []wire.Column {
	out := make([]wire.Column, len(cols))
	for i, c := range cols {
		out[i] = wire.Column{Label: c.Label, ElementName: c.ElementName,
			Type: int(c.Type), Nullable: c.Nullable, Precision: c.Precision, Scale: c.Scale}
	}
	return out
}

// wireError flattens an error for transit, classifying unclassified ones
// on the way (so every wire error carries a kind). Retry-After hints on
// shed errors travel with it.
func wireError(op string, err error) *wire.Error {
	err = aqerr.Wrap(op, err)
	var qe *aqerr.QueryError
	if errors.As(err, &qe) {
		msg := ""
		if qe.Err != nil {
			msg = qe.Err.Error()
		}
		return &wire.Error{Kind: qe.Kind.String(), Op: qe.Op, Msg: msg,
			RetryAfterMS: int64(aqerr.RetryAfterHint(err) / time.Millisecond)}
	}
	return &wire.Error{Kind: aqerr.KindUnknown.String(), Op: op, Msg: err.Error()}
}
