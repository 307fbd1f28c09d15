// Package wire defines the JSON message vocabulary of the aqlserve wire
// protocol — the client/server boundary the paper's architecture draws
// between the thin JDBC driver and the AquaLogic DSP server. Both ends of
// the wire (internal/server and internal/remoteclient) share these types,
// so the protocol cannot skew between them.
//
// Values travel in lexical form tagged with their atomic type: the client
// re-parses them with xdm.ParseAtomic, reproducing the exact atomic values
// the in-process result path would have decoded. SQL NULL is a JSON null
// (a nil *Atom). Errors travel as (kind, op, message) triples and are
// reconstructed client-side as typed aqerr.QueryError values, so
// errors.As-based handling works identically against a remote server and
// an in-process platform.
package wire

import (
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/translator"
)

// ModeName renders a result mode as its wire name ("text" or "xml").
func ModeName(mode translator.ResultMode) string {
	if mode == translator.ModeXML {
		return "xml"
	}
	return "text"
}

// Protocol endpoints, rooted under the version prefix.
const (
	PathHandshake    = "/v1/handshake"
	PathPrepare      = "/v1/prepare"
	PathExecute      = "/v1/execute"
	PathFetch        = "/v1/fetch"
	PathCloseCursor  = "/v1/cursor/close"
	PathCloseSession = "/v1/session/close"
	PathExplain      = "/v1/explain"
	PathCreateView   = "/v1/view"
	PathMetaLookup   = "/v1/meta/lookup"
	PathMetaTables   = "/v1/meta/tables"
	PathMetaProcs    = "/v1/meta/procedures"
	PathStats        = "/v1/stats"
)

// Atom is one non-NULL atomic value in transit: the lexical form plus the
// xdm.AtomicType it parses back into. NULL is represented as a nil *Atom.
type Atom struct {
	T int    `json:"t"`
	V string `json:"v"`
}

// Column mirrors resultset.Column across the wire.
type Column struct {
	Label       string `json:"label"`
	ElementName string `json:"element"`
	Type        int    `json:"type"` // catalog.SQLType
	Nullable    bool   `json:"nullable"`
	Precision   int    `json:"precision,omitempty"`
	Scale       int    `json:"scale,omitempty"`
}

// Error is a typed failure in transit (aqerr.QueryError flattened).
// RetryAfterMS is the server's backoff hint on shed responses: "come back
// in this long" — zero means no hint (the client uses its own backoff).
type Error struct {
	Kind         string `json:"kind"` // aqerr.Kind wire name
	Op           string `json:"op"`
	Msg          string `json:"msg"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// BudgetHeader carries the client's remaining deadline budget, in whole
// milliseconds, on every verb. The server clamps the request's context —
// and, for execute, the evaluation context — to it, so work the client
// has already abandoned is never evaluated. Absent or zero means no
// client deadline.
const BudgetHeader = "X-Aql-Budget-Ms"

// Handshake opens a session.
type HandshakeRequest struct {
	Client string `json:"client,omitempty"` // free-form client identity
}

// HandshakeResponse returns the session token every later request carries.
type HandshakeResponse struct {
	Session string `json:"session"`
}

// PrepareRequest compiles a statement into the session's prepared table.
// Dialect names the query language the SQL field is written in; empty
// selects SQL-92, so pre-dialect clients interoperate unchanged.
type PrepareRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode"`              // "text" (default) or "xml"
	Dialect string `json:"dialect,omitempty"` // query language; "" = "sql"
}

// PrepareResponse describes the prepared statement.
type PrepareResponse struct {
	Stmt       int64    `json:"stmt"`
	Columns    []Column `json:"columns"`
	ParamCount int      `json:"params"`
}

// ExecuteRequest starts an evaluation: either of a prepared statement
// (Stmt > 0) or of ad-hoc SQL (Stmt == 0, SQL/Mode set).
//
// ExecKey is the idempotency token: a client-unique key for this logical
// execute. When a retried request re-presents a key the session has
// already executed, the server replays the original cursor instead of
// starting a second evaluation — a response lost to the network never
// leaks a duplicate running query. BudgetMS is the client's remaining
// deadline in milliseconds; the server clamps the evaluation context to
// min(server QueryTimeout, BudgetMS), so abandoned work is not evaluated.
type ExecuteRequest struct {
	Session  string  `json:"session"`
	Stmt     int64   `json:"stmt,omitempty"`
	SQL      string  `json:"sql,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	Dialect  string  `json:"dialect,omitempty"` // ad-hoc SQL's language; "" = "sql"
	Args     []*Atom `json:"args,omitempty"`
	ExecKey  string  `json:"exec_key,omitempty"`
	BudgetMS int64   `json:"budget_ms,omitempty"`
}

// ExecuteResponse hands back the server-side cursor. Rows stream through
// fetch calls; the evaluation is already running when this returns.
type ExecuteResponse struct {
	Cursor  int64    `json:"cursor"`
	Columns []Column `json:"columns"`
}

// FetchRequest pulls the next chunk of rows from a cursor.
//
// Seq makes fetch idempotent: the client numbers chunks 1, 2, 3, … per
// cursor, and the server caches the last chunk it produced. Re-presenting
// the current sequence number replays that chunk byte-identically (a retry
// or a hedged duplicate never skips or doubles rows); presenting the next
// number advances the cursor. Seq 0 selects the legacy non-replayable
// behavior (every fetch advances).
type FetchRequest struct {
	Session string `json:"session"`
	Cursor  int64  `json:"cursor"`
	MaxRows int    `json:"max_rows,omitempty"`
	Seq     int64  `json:"seq,omitempty"`
}

// FetchResponse carries up to MaxRows decoded rows. EOF marks stream end;
// Error carries a mid-stream failure and may accompany rows already
// produced (a truncated stream delivers its prefix *and* the error, never
// silently).
type FetchResponse struct {
	Rows  [][]*Atom `json:"rows,omitempty"`
	EOF   bool      `json:"eof,omitempty"`
	Error *Error    `json:"error,omitempty"`
}

// CloseCursorRequest releases a cursor (idempotent: closing an unknown or
// already-closed cursor succeeds with Closed=false).
type CloseCursorRequest struct {
	Session string `json:"session"`
	Cursor  int64  `json:"cursor"`
}

// CloseCursorResponse reports whether a live cursor was actually closed.
type CloseCursorResponse struct {
	Closed bool `json:"closed"`
}

// CloseSessionRequest ends a session, closing its cursors and prepared
// statements.
type CloseSessionRequest struct {
	Session string `json:"session"`
}

// CloseSessionResponse acknowledges a session close (idempotent).
type CloseSessionResponse struct{}

// ExplainRequest compiles a statement and renders its plan.
type ExplainRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode"`
	Dialect string `json:"dialect,omitempty"` // query language; "" = "sql"
}

// ExplainResponse is the rendered plan text.
type ExplainResponse struct {
	Text string `json:"text"`
}

// CreateViewRequest registers a logical data service (CREATE VIEW).
type CreateViewRequest struct {
	Session string `json:"session"`
	Path    string `json:"path"`
	Name    string `json:"name"`
	SQL     string `json:"sql"`
}

// CreateViewResponse acknowledges a view definition.
type CreateViewResponse struct{}

// LookupRequest resolves one table reference.
type LookupRequest struct {
	Session string `json:"session,omitempty"`
	Catalog string `json:"catalog,omitempty"`
	Schema  string `json:"schema,omitempty"`
	Table   string `json:"table"`
}

// LookupResponse returns the metadata, or the typed catalog failure:
// NotFound and Ambiguous reconstruct catalog.NotFoundError and
// catalog.AmbiguousError client-side, so a remote translator sees the
// same error shapes an in-process one does.
type LookupResponse struct {
	Meta      *catalog.TableMeta `json:"meta,omitempty"`
	NotFound  bool               `json:"not_found,omitempty"`
	Ambiguous []string           `json:"ambiguous,omitempty"`
}

// MetasRequest lists table or procedure metadata.
type MetasRequest struct {
	Session string `json:"session,omitempty"`
}

// MetasResponse lists table or procedure metadata.
type MetasResponse struct {
	Metas []*catalog.TableMeta `json:"metas"`
}

// StatsRequest asks for the server and pipeline counters.
type StatsRequest struct{}

// ErrorResponse is the body of any failed request.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// ServerStats is the server front end's own counter block.
type ServerStats struct {
	SessionsOpen      int64 `json:"sessions_open"`
	SessionsOpened    int64 `json:"sessions_opened"`
	SessionsReaped    int64 `json:"sessions_reaped"`
	CursorsOpen       int64 `json:"cursors_open"`
	CursorsOpened     int64 `json:"cursors_opened"`
	CursorsReaped     int64 `json:"cursors_reaped"`
	QueriesInFlight   int64 `json:"queries_in_flight"`
	PeakInFlight      int64 `json:"peak_in_flight"`
	AdmissionRejected int64 `json:"admission_rejected"`

	// Cost-aware admission gauges (PR 8). Weighted figures are in admission
	// slots: a query's weight is its compiled cost estimate divided by the
	// configured cost-per-slot, so cheap statements weigh 1 and expensive
	// scans weigh many.
	WeightedInFlight int64 `json:"weighted_in_flight"`
	WeightedCapacity int64 `json:"weighted_capacity"`
	WeightedPeak     int64 `json:"weighted_peak"`
	QueueDepth       int64 `json:"queue_depth"`
	QueuePeak        int64 `json:"queue_peak"`
	// Shed counters by reason: queue overflow, deadline-aware queue
	// timeout, and brownout (predicted cost over the degraded ceiling).
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
	ShedBrownout     int64 `json:"shed_brownout"`
	// BrownoutLevel is the current degradation level (0 = normal); each
	// level halves the maximum admissible query weight. BrownoutEngaged
	// counts the steps up.
	BrownoutLevel   int64 `json:"brownout_level"`
	BrownoutEngaged int64 `json:"brownout_engaged"`
	// Idempotent replays served from cursor state instead of re-running.
	ExecReplays  int64 `json:"exec_replays"`
	FetchReplays int64 `json:"fetch_replays"`
}

// StatsResponse bundles the server's own counters with the process-wide
// pipeline snapshot (the obsv metrics registry).
type StatsResponse struct {
	Server   ServerStats   `json:"server"`
	Pipeline obsv.Snapshot `json:"pipeline"`
}
