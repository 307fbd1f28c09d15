// Package qcache is the compiled-query layer: it turns the translator's
// output into a first-class CompiledQuery artifact (translation + static
// check + immutable evaluator plan, with the compile-time stage trace
// attached) and caches those artifacts process-shared, keyed by
// (dialect, normalized query text, result mode, catalog generation,
// statistics generation).
//
// The paper's architecture puts a textual XQuery boundary between the
// JDBC driver and the DSP server: the driver serializes the generated
// query, the server re-parses, re-checks, and re-plans it on every
// statement. In-process, that boundary is pure waste. This package ends
// it: the translator's xquery AST is handed to the evaluator directly
// (xqeval.Engine.CompileAST — check + plan, no parse), and the finished
// artifact is reused across repeated statements, connections, and the
// facade. The textual serialize∘parse path survives as the sql2xq/xqrun
// process boundary and as the differential oracle the tests compare
// against.
//
// Cache semantics:
//
//   - keying — the query text is normalized by its own front end
//     (qfront.Frontend.Normalize: case-folded keywords and identifiers,
//     collapsed whitespace and comments), so trivially re-spelled
//     statements share one artifact; the dialect, result mode, and the
//     catalog's metadata generation complete the key, so two dialects
//     can never collide on identical text and a catalog invalidation, a
//     refresh that changes a table, or a degradation event silently
//     retires every artifact compiled before it;
//   - single-flight population — concurrent misses on one key share one
//     compile;
//   - size bounds — at most MaxEntries artifacts are retained, evicted in
//     least-recently-used order;
//   - failures are never cached — a statement that fails to translate or
//     check recompiles (and re-fails) on each attempt, matching the
//     catalog cache's rule that only answers are cacheable.
package qcache

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obsv"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// DefaultMaxEntries bounds the cache when Config.MaxEntries is zero.
const DefaultMaxEntries = 256

// CompiledQuery is the compiled artifact every execution layer consumes:
// the completed translation (generated AST, result schema, parameter
// info, query contexts), the evaluator's immutable plan, and the stage
// trace recorded while compiling. It is immutable after Compile returns;
// any number of concurrent evaluations may share it.
type CompiledQuery struct {
	// Dialect names the front end the statement text is written in.
	Dialect qfront.Dialect
	// SQL is the statement text the artifact was compiled from, in the
	// artifact's dialect (the field predates the second front end).
	SQL string
	// NormalizedSQL is the canonical key form (set when cached).
	NormalizedSQL string
	// Mode is the §4 result-handling mode the query was generated for.
	Mode translator.ResultMode
	// Generation is the catalog metadata epoch the artifact was keyed
	// under (zero when the metadata source does not version itself).
	Generation uint64
	// StatsGen is the evaluator's source-statistics epoch the artifact's
	// plan was costed under; a stats refresh retires the cache entry.
	StatsGen uint64
	// Res is the completed translation: AST, result schema, contexts.
	Res *translator.Result
	// Plan is the evaluator's immutable execution plan over Res.Query. It
	// carries the streaming decomposition (Plan.Stream) built at compile
	// time, so a cached statement streams rows without re-analyzing the
	// query shape on each execution.
	Plan *xqeval.Plan
	// Trace holds the compile-time stage spans (lex … serialize, compile);
	// EXPLAIN renders it instead of re-translating.
	Trace *obsv.Trace
	// Sources lists the federation backends the statement's table
	// references resolved against, in first-touch order (nil outside a
	// federation). SourceGens records the per-source generation each was
	// at when the artifact was stored; a hit revalidates them so one
	// backend's invalidation retires only the artifacts that touched it.
	Sources    []string
	SourceGens map[string]uint64
	// CostScore is the plan's admission score (Plan.CostEstimate), computed
	// once at compile time so cost-aware admission is cache-hot: the server
	// weighs a statement without touching the plan again.
	CostScore int64
}

// Cost returns the artifact's admission score, always ≥ 1.
func (cq *CompiledQuery) Cost() int64 {
	if cq == nil || cq.CostScore < 1 {
		return 1
	}
	return cq.CostScore
}

// XQuery serializes the generated query — the textual form the legacy
// boundary ships; the compiled path never needs it to execute.
func (cq *CompiledQuery) XQuery() string { return cq.Res.XQuery() }

// ExternalVars lists the external variable names ($p1…$pN) the artifact's
// plan expects bound at evaluation time.
func (cq *CompiledQuery) ExternalVars() []string { return externalVars(cq.Res.ParamCount) }

// Streamable reports whether executions of this artifact deliver rows
// through a pull cursor (compile-time decomposition succeeded) rather than
// materializing the full result before the first row.
func (cq *CompiledQuery) Streamable() bool { return cq.Plan.Stream.Streamable() }

// Columns is the artifact's result schema in the decoders' terms.
func (cq *CompiledQuery) Columns() []resultset.Column { return ResultColumns(cq.Res) }

// ResultColumns maps a translation's result schema to the decoders'
// column descriptors, declared facets (VARCHAR(n), DECIMAL(p,s)) included.
func ResultColumns(res *translator.Result) []resultset.Column {
	cols := make([]resultset.Column, len(res.Columns))
	for i, c := range res.Columns {
		cols[i] = resultset.Column{Label: c.Label, ElementName: c.ElementName,
			Type: c.Type, Nullable: c.Nullable, Precision: c.Precision, Scale: c.Scale}
	}
	return cols
}

// Open executes the artifact: it binds args to $p1…$pN, starts the
// streaming evaluation on engine (recording into trace, which may be nil),
// primes it, and returns the result mode's row decoder over the cursor.
// Errors that precede the first row — a wrong argument count, an
// unconvertible argument, sources failing at open — are returned here;
// later ones surface from the cursor's Next. Closing the returned cursor
// stops the evaluation.
func (cq *CompiledQuery) Open(ctx context.Context, engine *xqeval.Engine, args []any, trace *obsv.Trace) (resultset.RowCursor, error) {
	if len(args) != cq.Res.ParamCount {
		return nil, fmt.Errorf("aqualogic: statement has %d parameter(s), got %d value(s)", cq.Res.ParamCount, len(args))
	}
	ext := make(map[string]xdm.Sequence, len(args))
	for i, a := range args {
		v, err := xdm.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("aqualogic: parameter %d: %w", i+1, err)
		}
		ext["p"+strconv.Itoa(i+1)] = xdm.SequenceOf(v)
	}
	cur := engine.EvalStream(ctx, cq.Plan, ext, trace)
	// Priming pulls the first chunk, so errors raised before any row exists
	// surface synchronously rather than on the first Next.
	if err := cur.Prime(); err != nil {
		cur.Close()
		return nil, err
	}
	if cq.Res.Mode == translator.ModeText {
		return resultset.StreamText(cur, cq.Columns()), nil
	}
	return resultset.StreamXML(cur, cq.Columns()), nil
}

func externalVars(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "p" + strconv.Itoa(i+1)
	}
	return out
}

// Compile runs the whole compile pipeline once: translate (traced), then
// statically check and plan the generated AST against the engine —
// recorded as the compile stage span. It is the canonical CompileFunc
// body; callers wrap it to choose the translator and trace hook.
func Compile(ctx context.Context, tr *translator.Translator, engine *xqeval.Engine, fe qfront.Frontend, text string, trace *obsv.Trace) (*CompiledQuery, error) {
	res, err := tr.TranslateFrontend(ctx, fe, text, trace)
	if err != nil {
		return nil, err
	}
	sp := trace.StartStage(obsv.StageCompile)
	sp.SetInput(len(text))
	plan, err := engine.CompileAST(res.Query, externalVars(res.ParamCount))
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.Add("external", int64(res.ParamCount))
	sp.End()
	return &CompiledQuery{Dialect: fe.Dialect(), SQL: text, Mode: res.Mode, Res: res, Plan: plan, Trace: trace, CostScore: plan.CostEstimate()}, nil
}

// GenerationSource is the metadata-versioning surface the cache keys on;
// catalog.Cache implements it.
type GenerationSource interface {
	Generation() uint64
}

// CompileFunc populates one cache miss. It receives the original (not
// normalized) query text.
type CompileFunc func(ctx context.Context, sql string) (*CompiledQuery, error)

// Config parameterizes a Cache.
type Config struct {
	// MaxEntries bounds the cache (LRU eviction beyond it). Zero means
	// DefaultMaxEntries; negative disables caching entirely — every Get
	// compiles (the degraded configuration, for memory-starved embedders).
	MaxEntries int
	// Generation supplies the catalog metadata epoch for keying; nil pins
	// generation zero (unversioned metadata).
	Generation func() uint64
	// StatsGeneration supplies the evaluator's source-statistics epoch
	// (xqeval.Engine.StatsGeneration); nil pins it to zero. Keying on it
	// retires artifacts whose plans were costed against stale statistics:
	// the next Get recompiles and picks up the fresh numbers.
	StatsGeneration func() uint64
	// SourceGeneration supplies the per-backend epoch for one named
	// federation source (typically the backend's metadata generation plus
	// its source-scoped statistics generation — both monotonic, so their
	// sum changes whenever either does). When set, cache hits revalidate
	// every source the artifact touched, so invalidating one backend
	// retires only the artifacts compiled against it while the rest of
	// the cache stays warm. Nil disables per-source validation (the
	// single-source configuration, where the global Generation covers
	// everything).
	SourceGeneration func(source string) uint64
}

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Shared        int64
	Evictions     int64
	Invalidations int64
	// SourceRetirements counts entries dropped because one of their
	// federation sources advanced its generation since the store.
	SourceRetirements int64
	// Size is the current entry count; MaxEntries the configured bound.
	Size       int
	MaxEntries int
	// Generation is the metadata epoch current lookups key under;
	// StatsGeneration is the statistics epoch.
	Generation      uint64
	StatsGeneration uint64
}

// Key identifies one cached artifact. Dialect is part of the key, so
// identical query text submitted under two front ends can never share
// (or clobber) an artifact.
type Key struct {
	Dialect    qfront.Dialect
	SQL        string // normalized form, in the key's dialect
	Mode       translator.ResultMode
	Generation uint64
	// StatsGen is the source-statistics epoch the artifact's plan was
	// costed under.
	StatsGen uint64
}

// Cache is the shared compiled-query cache. It is safe for concurrent
// use; one instance is shared by every connection of a driver Server and
// by the facade of the owning Platform.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *entry
	flights map[Key]*flight
	epoch   uint64 // advanced by Invalidate; in-flight compiles from an older epoch are not stored
	stats   Stats
}

type entry struct {
	key Key
	cq  *CompiledQuery
}

// flight is one in-progress compile; concurrent lookups of the same key
// wait on done and share the result.
type flight struct {
	done chan struct{}
	cq   *CompiledQuery
	err  error
}

// New builds a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		flights: make(map[Key]*flight),
	}
}

func (c *Cache) generation() uint64 {
	if c.cfg.Generation == nil {
		return 0
	}
	return c.cfg.Generation()
}

func (c *Cache) statsGeneration() uint64 {
	if c.cfg.StatsGeneration == nil {
		return 0
	}
	return c.cfg.StatsGeneration()
}

// Get returns the compiled artifact for sql in the given mode, compiling
// (at most once per key, however many callers race) on a miss. hit
// reports whether the artifact was reused — from the cache or from
// another caller's in-flight compile — rather than compiled by this call.
// SQL that does not lex bypasses the cache so compile surfaces the
// canonical error.
func (c *Cache) Get(ctx context.Context, fe qfront.Frontend, text string, mode translator.ResultMode, compile CompileFunc) (*CompiledQuery, bool, error) {
	norm, err := fe.Normalize(text)
	if err != nil {
		cq, cerr := compile(ctx, text)
		return cq, false, cerr
	}
	if c.cfg.MaxEntries < 0 {
		cq, cerr := compile(ctx, text)
		if cq != nil {
			cq.NormalizedSQL = norm
		}
		return cq, false, cerr
	}
	// The generation reads happen before c.mu so a Generation func that
	// consults other locks (the platform's metadata stack) never nests
	// inside the cache's.
	key := Key{Dialect: fe.Dialect(), SQL: norm, Mode: mode, Generation: c.generation(), StatsGen: c.statsGeneration()}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		cq := el.Value.(*entry).cq
		if len(cq.SourceGens) == 0 || c.cfg.SourceGeneration == nil {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			c.mu.Unlock()
			obsv.Global.CompileCacheHits.Inc()
			return cq, true, nil
		}
		// Per-source validation calls the SourceGeneration func, which may
		// take platform locks — release c.mu around it, like the key reads.
		c.mu.Unlock()
		fresh := c.sourcesFresh(cq)
		c.mu.Lock()
		if fresh {
			if el, ok := c.entries[key]; ok {
				c.lru.MoveToFront(el)
			}
			c.stats.Hits++
			c.mu.Unlock()
			obsv.Global.CompileCacheHits.Inc()
			return cq, true, nil
		}
		// One of the artifact's backends invalidated: retire this entry
		// (only this entry — artifacts over other sources stay warm) and
		// fall through to the miss path.
		if el, ok := c.entries[key]; ok && el.Value.(*entry).cq == cq {
			c.lru.Remove(el)
			delete(c.entries, key)
			c.stats.SourceRetirements++
			c.reportSizeLocked()
		}
	}
	if fl, ok := c.flights[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		obsv.Global.CompileCacheShared.Inc()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.cq, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	epoch := c.epoch
	c.stats.Misses++
	c.mu.Unlock()
	obsv.Global.CompileCacheMisses.Inc()

	cq, err := compile(ctx, text)
	if err == nil {
		// Stamp the per-source generations the artifact was stored under.
		// The sources are only known after translation, so the gens are
		// read post-compile: an invalidation racing the compile can stamp
		// a generation the compile's lookups mostly preceded — the same
		// narrow window the global key accepts between its pre-compile
		// read and the store, and closed the same way (the next
		// invalidation advances the gen again and retires the entry).
		c.stampSources(cq)
	}

	c.mu.Lock()
	if err == nil {
		cq.NormalizedSQL = norm
		cq.Generation = key.Generation
		cq.StatsGen = key.StatsGen
		if c.epoch == epoch {
			c.storeLocked(key, cq)
		}
	}
	fl.cq, fl.err = cq, err
	delete(c.flights, key)
	c.mu.Unlock()
	close(fl.done)
	return cq, false, err
}

// stampSources copies the translation's resolved source list onto the
// artifact and records each source's current generation. Called outside
// c.mu (the SourceGeneration func may take platform locks).
func (c *Cache) stampSources(cq *CompiledQuery) {
	if c.cfg.SourceGeneration == nil || cq == nil || cq.Res == nil || len(cq.Res.Sources) == 0 {
		return
	}
	cq.Sources = cq.Res.Sources
	cq.SourceGens = make(map[string]uint64, len(cq.Sources))
	for _, s := range cq.Sources {
		cq.SourceGens[s] = c.cfg.SourceGeneration(s)
	}
}

// sourcesFresh reports whether every backend the artifact touched is
// still at the generation it was stored under. Called outside c.mu.
func (c *Cache) sourcesFresh(cq *CompiledQuery) bool {
	for s, gen := range cq.SourceGens {
		if c.cfg.SourceGeneration(s) != gen {
			return false
		}
	}
	return true
}

// Peek reports whether an artifact for text/mode in fe's dialect is
// cached under the current generation, without populating or promoting
// it.
func (c *Cache) Peek(fe qfront.Frontend, text string, mode translator.ResultMode) (*CompiledQuery, bool) {
	norm, err := fe.Normalize(text)
	if err != nil || c.cfg.MaxEntries < 0 {
		return nil, false
	}
	key := Key{Dialect: fe.Dialect(), SQL: norm, Mode: mode, Generation: c.generation(), StatsGen: c.statsGeneration()}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	cq := el.Value.(*entry).cq
	c.mu.Unlock()
	if len(cq.SourceGens) > 0 && c.cfg.SourceGeneration != nil && !c.sourcesFresh(cq) {
		return nil, false
	}
	return cq, true
}

// storeLocked inserts (or refreshes) an artifact and evicts beyond the
// size bound. Callers hold c.mu.
func (c *Cache) storeLocked(key Key, cq *CompiledQuery) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).cq = cq
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, cq: cq})
	for c.lru.Len() > c.cfg.MaxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.Evictions++
		obsv.Global.CompileCacheEvictions.Inc()
	}
	c.reportSizeLocked()
}

// reportSizeLocked keeps the process-wide size gauge in step with this
// cache's contribution. Callers hold c.mu.
func (c *Cache) reportSizeLocked() {
	if delta := c.lru.Len() - c.stats.Size; delta != 0 {
		obsv.Global.CompileCacheSize.Add(int64(delta))
	}
	c.stats.Size = c.lru.Len()
}

// Invalidate drops every cached artifact (a data service redeployment,
// resilience-layer rebuild, or explicit flush). In-flight compiles that
// started before the flush complete but are not stored.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*list.Element)
	c.lru = list.New()
	c.epoch++
	c.stats.Invalidations++
	obsv.Global.CompileCacheInvalidations.Inc()
	c.reportSizeLocked()
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	gen := c.generation()
	sgen := c.statsGeneration()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	s.MaxEntries = c.cfg.MaxEntries
	s.Generation = gen
	s.StatsGeneration = sgen
	return s
}
