package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	aqualogic "repro"
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each module's public functions: a wrapper around
// server.Handler(), a wrapping server.Backend, a wrapping catalog.Source,
// qfront.Frontend and resultset.ItemStream, and the client calls
// themselves. The in-process layers are timed by replaying each statement
// through the decomposed public calls
//
//	qcache.Get → Normalize / Parse → TranslateFrontend → CompileAST →
//	EvalStream + Prime → StreamText
//
// and the replay's rows must match the served rows digest for digest.

// span is one timed call. Times are nanoseconds since the run's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index within the lane's spans, -1 for a root
	Op     int64  `json:"op"`     // statement id, shared by every span of one op
	Attr   int64  `json:"attr,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one client lane's spans. Everything a lane traces runs on
// the lane's goroutine (the loopback transport calls the handler
// synchronously, and the server calls its backend from the handler), so
// a lane's tracer needs no lock and every span has an exact parent.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int64 // current op; 0 outside ops, when nothing is recorded

	// backend.rows time accumulated inside the open server handler span.
	rowsStart, rowsDur int64
}

var opIDs atomic.Int64

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one. A nil tracer, or one
// outside an op, records nothing.
func (t *tracer) begin(name string) int32 {
	if t == nil || t.op == 0 {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.endAt(i, t.now())
	}
}

func (t *tracer) endAt(i int32, end int64) {
	if i < 0 {
		return
	}
	t.spans[i].End = end
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) setAttr(i int32, v int64) {
	if i >= 0 {
		t.spans[i].Attr = v
	}
}

// leaf records an aggregated child of the open span: the summed duration
// of many short calls (row pulls), laid out from the first call's start.
func (t *tracer) leaf(name string, start, dur int64) {
	if t.op == 0 || dur == 0 {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + dur, Parent: t.stack[len(t.stack)-1], Op: t.op})
}

// --- served path wrappers ---

var verbSpans = map[string]string{
	wire.PathPrepare:      "server.prepare",
	wire.PathExecute:      "server.execute",
	wire.PathFetch:        "server.fetch",
	wire.PathCloseCursor:  "server.close_cursor",
	wire.PathMetaLookup:   "server.lookup",
	wire.PathHandshake:    "server.handshake",
	wire.PathCloseSession: "server.close_session",
	wire.PathMetaTables:   "server.tables",
	wire.PathMetaProcs:    "server.procedures",
}

// tracedHandler times each request server.Handler() serves and counts
// the bytes of its response.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, ok := verbSpans[r.URL.Path]
	if !ok {
		name = "server.other"
	}
	i := th.t.begin(name)
	cw := &countingWriter{ResponseWriter: w}
	th.h.ServeHTTP(cw, r)
	th.t.leaf("backend.rows", th.t.rowsStart, th.t.rowsDur)
	th.t.rowsDur = 0
	th.t.setAttr(i, cw.n)
	th.t.end(i)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

// tracedBackend is the server.Backend the traced server fronts: it
// forwards to the platform and times each call, including every row the
// server pulls from a result set during fetch.
type tracedBackend struct {
	p    *aqualogic.Platform
	t    *tracer
	meta *tracedSource
}

func (b *tracedBackend) CompileContext(ctx context.Context, text string, mode translator.ResultMode) (*qcache.CompiledQuery, error) {
	return b.CompileDialect(ctx, qfront.DialectSQL, text, mode)
}

func (b *tracedBackend) CompileDialect(ctx context.Context, dialect qfront.Dialect, text string, mode translator.ResultMode) (*qcache.CompiledQuery, error) {
	i := b.t.begin("backend.compile")
	defer b.t.end(i)
	return b.p.CompileDialect(ctx, dialect, text, mode)
}

func (b *tracedBackend) QueryStreamMode(ctx context.Context, mode translator.ResultMode, text string, args ...any) (*resultset.Rows, error) {
	return b.QueryDialect(ctx, qfront.DialectSQL, mode, text, args...)
}

func (b *tracedBackend) QueryDialect(ctx context.Context, dialect qfront.Dialect, mode translator.ResultMode, text string, args ...any) (*resultset.Rows, error) {
	i := b.t.begin("backend.query")
	rows, err := b.p.QueryDialect(ctx, dialect, mode, text, args...)
	b.t.end(i)
	if err != nil {
		return nil, err
	}
	return resultset.NewStreaming(&tracedRows{inner: rows.Cursor(), t: b.t}), nil
}

func (b *tracedBackend) DefineView(path, name, text string) error {
	return b.p.DefineView(path, name, text)
}

func (b *tracedBackend) Metadata() catalog.Source { return b.meta }

// tracedRows times the server's row pulls from a backend result set.
type tracedRows struct {
	inner resultset.RowCursor
	t     *tracer
}

func (r *tracedRows) Columns() []resultset.Column { return r.inner.Columns() }

func (r *tracedRows) Next() ([]xdm.Atomic, error) {
	start := r.t.now()
	row, err := r.inner.Next()
	if r.t.rowsDur == 0 {
		r.t.rowsStart = start
	}
	r.t.rowsDur += r.t.now() - start
	return row, err
}

func (r *tracedRows) Close() error { return r.inner.Close() }

// tracedSource times metadata lookups.
type tracedSource struct {
	inner catalog.Source
	t     *tracer
}

func (s *tracedSource) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	return s.LookupContext(context.Background(), ref)
}

func (s *tracedSource) LookupContext(ctx context.Context, ref catalog.TableRef) (*catalog.TableMeta, error) {
	i := s.t.begin("catalog.lookup")
	defer s.t.end(i)
	return catalog.LookupContext(ctx, s.inner, ref)
}

func (s *tracedSource) Tables() ([]*catalog.TableMeta, error)     { return s.inner.Tables() }
func (s *tracedSource) Procedures() ([]*catalog.TableMeta, error) { return s.inner.Procedures() }

// tracedFrontend times the SQL front end's normalize and parse.
type tracedFrontend struct {
	inner qfront.Frontend
	t     *tracer
}

func (f *tracedFrontend) Dialect() qfront.Dialect { return f.inner.Dialect() }

func (f *tracedFrontend) Normalize(text string) (string, error) {
	i := f.t.begin("sqlparser.normalize")
	defer f.t.end(i)
	return f.inner.Normalize(text)
}

func (f *tracedFrontend) Parse(text string, tr *obsv.Trace) (*qfront.SelectStmt, error) {
	i := f.t.begin("sqlparser.parse")
	defer f.t.end(i)
	return f.inner.Parse(text, tr)
}

// tracedItems is the evaluator cursor as StreamText sees it. It forwards
// RowAligned: without it the decoder would take its buffered path and the
// replay would time a different program.
type tracedItems struct {
	cur    *xqeval.Cursor
	dur    int64
	chunks int64
}

func (it *tracedItems) Next() (xdm.Sequence, error) {
	start := time.Now()
	chunk, err := it.cur.Next()
	it.dur += int64(time.Since(start))
	if err == nil {
		it.chunks++
	}
	return chunk, err
}

func (it *tracedItems) Close() error     { return it.cur.Close() }
func (it *tracedItems) RowAligned() bool { return it.cur.RowAligned() }

// --- replay ---

// replayer re-runs statements in process through the decomposed public
// calls. Its compile cache has the platform cache's configuration and
// sees the same statement sequence, so it hits and misses where the
// served path does.
type replayer struct {
	p     *aqualogic.Platform
	fe    qfront.Frontend
	cache *qcache.Cache
}

func newReplayer(p *aqualogic.Platform) (*replayer, error) {
	fe, err := qfront.Lookup(qfront.DialectSQL)
	if err != nil {
		return nil, err
	}
	cfg := qcache.Config{StatsGeneration: p.Engine.StatsGeneration}
	if gs, ok := p.Metadata().(qcache.GenerationSource); ok {
		cfg.Generation = gs.Generation
	}
	return &replayer{p: p, fe: fe, cache: qcache.New(cfg)}, nil
}

type replayResult struct {
	got           digest
	steps, tuples int64
	xqueryBytes   int64 // generated XQuery size, on a compile-cache miss
	misaligned    bool  // a row-aligned cursor decoded out of step
	err           error
}

func (rp *replayer) run(ctx context.Context, t *tracer, s stmt) (rr replayResult) {
	root := t.begin("replay")
	defer t.end(root)
	fe := &tracedFrontend{inner: rp.fe, t: t}
	g := t.begin("qcache.get")
	cq, hit, err := rp.cache.Get(ctx, fe, s.sql, translator.ModeText, func(ctx context.Context, text string) (*qcache.CompiledQuery, error) {
		tr := translator.New(&tracedSource{inner: rp.p.Metadata(), t: t})
		tr.Options.Mode = translator.ModeText
		tr.Options.DefaultCatalog = rp.p.App.Name
		i := t.begin("translator.translate")
		res, err := tr.TranslateFrontend(ctx, fe, text, nil)
		t.end(i)
		if err != nil {
			return nil, err
		}
		ext := make([]string, res.ParamCount)
		for k := range ext {
			ext[k] = fmt.Sprintf("p%d", k+1)
		}
		i = t.begin("xqeval.plan")
		plan, err := rp.p.Engine.CompileAST(res.Query, ext)
		t.end(i)
		if err != nil {
			return nil, err
		}
		return &qcache.CompiledQuery{Dialect: fe.Dialect(), SQL: text, Mode: res.Mode, Res: res, Plan: plan, CostScore: plan.CostEstimate()}, nil
	})
	if hit {
		t.setAttr(g, 1)
	}
	t.end(g)
	if err != nil {
		rr.err = err
		return rr
	}
	if !hit {
		rr.xqueryBytes = int64(len(cq.XQuery()))
	}
	ext := make(map[string]xdm.Sequence, len(s.args))
	for k, a := range s.args {
		v, err := aqualogic.ToAtomic(a)
		if err != nil {
			rr.err = err
			return rr
		}
		ext[fmt.Sprintf("p%d", k+1)] = xdm.SequenceOf(v)
	}
	i := t.begin("xqeval.prime")
	cur := rp.p.Engine.EvalStream(ctx, cq.Plan, ext, nil)
	err = cur.Prime()
	t.end(i)
	if err != nil {
		cur.Close()
		rr.err = err
		return rr
	}
	cols := make([]resultset.Column, len(cq.Res.Columns))
	for k, c := range cq.Res.Columns {
		cols[k] = resultset.Column{Label: c.Label, ElementName: c.ElementName, Type: c.Type, Nullable: c.Nullable, Precision: c.Precision, Scale: c.Scale}
	}
	items := &tracedItems{cur: cur}
	rc := resultset.StreamText(items, cols)
	decode, decodeStart := t.begin("resultset.decode"), t.now()
	var decodeDur int64
	for {
		start := t.now()
		row, err := rc.Next()
		decodeDur += t.now() - start
		if err == io.EOF {
			break
		}
		if err != nil {
			rr.err = err
			break
		}
		// A row-aligned stream decodes each row from exactly the chunk
		// pulled for it, with no read-ahead.
		if cur.RowAligned() && items.chunks != rr.got.rows+1 {
			rr.misaligned = true
		}
		h := fnvOffset
		for _, v := range row {
			h.atomValue(v)
		}
		rr.got.add(uint64(h))
	}
	// The decode span covers only the time spent inside StreamText's Next,
	// not the hashing above, and holds the evaluator's pulls as its child.
	t.leaf("xqeval.eval", decodeStart, items.dur)
	t.setAttr(decode, rr.got.rows)
	t.endAt(decode, decodeStart+decodeDur)
	rc.Close()
	rr.steps, rr.tuples = cur.Stats()
	return rr
}

// --- traced clients ---

// tracedClient runs each op on the served path under a root span, then
// replays its statement in process.
type tracedClient struct {
	inner client
	t     *tracer
	rp    *replayer
	layer string // "remoteclient" or "driver"
	obs   *traceObs
}

// traceObs collects what the replay observes beyond spans.
type traceObs struct {
	replayed, replayMismatches, misaligned int64
	steps, tuples                          int64
	xqueryBytes, compiled                  int64
	firstErr                               string
}

func (tc *tracedClient) close() { tc.inner.close() }

func (tc *tracedClient) run(ctx context.Context, s stmt) outcome {
	t := tc.t
	t.op = opIDs.Add(1)
	defer func() { t.op = 0 }()
	root := t.begin(tc.layer + "." + s.class)
	out := tc.inner.run(ctx, s)
	t.end(root)
	out.lat = time.Duration(t.spans[root].dur())
	if s.sql == "" || out.err != nil {
		return out
	}
	rr := tc.rp.run(ctx, t, s)
	o := tc.obs
	o.replayed++
	o.steps += rr.steps
	o.tuples += rr.tuples
	if rr.xqueryBytes > 0 {
		o.compiled++
		o.xqueryBytes += rr.xqueryBytes
	}
	if rr.misaligned {
		o.misaligned++
	}
	if rr.err != nil || rr.got != out.got {
		o.replayMismatches++
		if o.firstErr == "" {
			o.firstErr = fmt.Sprintf("%s: replay %v (rows %d, served %d)", s.class, rr.err, rr.got.rows, out.got.rows)
		}
	}
	return out
}
