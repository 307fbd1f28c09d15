// Package aqualogic is a from-scratch reproduction of the system described
// in "SQL to XQuery Translation in the AquaLogic Data Services Platform"
// (ICDE 2006): a SQL-92 SELECT → XQuery translator, the JDBC-style driver
// built around it, and the substrates it needs — an XQuery data model and
// evaluator standing in for the AquaLogic DSP server, and a catalog of data
// service metadata standing in for the platform's remote metadata API.
//
// The package is a facade over the internal packages:
//
//	internal/qfront     frontend-neutral typed query AST + Frontend seam
//	internal/sqlparser  SQL-92 SELECT lexer/parser (translation stage one)
//	internal/pathfront  path-template front end over the same AST
//	internal/translator three-stage translation kernel (the paper's
//	                    core contribution: contexts, resultset nodes,
//	                    typed generation, §4 result wrappers)
//	internal/catalog    application/data-service metadata + cache
//	internal/xquery     generated-XQuery AST and serializer
//	internal/xqeval     XQuery engine executing generated queries
//	internal/resultset  XML and text-mode result decoding
//	internal/driver     database/sql driver ("the JDBC driver")
//
// Quick start:
//
//	p := aqualogic.Demo()
//	rows, err := p.QueryDialect(context.Background(), aqualogic.DialectSQL, aqualogic.ModeText,
//		"SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE CUSTOMERID < ?", 1010)
//
// or through database/sql:
//
//	aqualogic.Demo().RegisterDriver("demo")
//	db, err := sql.Open("aqualogic", "demo")
package aqualogic

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/demo"
	"repro/internal/driver"
	"repro/internal/faultnet"
	"repro/internal/obsv"
	_ "repro/internal/pathfront" // register the path-template dialect
	"repro/internal/qcache"
	"repro/internal/qfront"
	"repro/internal/resilient"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
	"repro/internal/xqeval"
)

// Dialect names a registered query language front end. Every query-text
// entry point takes one; DialectSQL is the platform's historical (and
// wire-default) surface.
type Dialect = qfront.Dialect

// Built-in dialects: the SQL-92 front end (internal/sqlparser) and the
// path-template front end (internal/pathfront).
const (
	DialectSQL  = qfront.DialectSQL
	DialectPath = qfront.DialectPath
)

// Dialects lists the registered query dialects.
func Dialects() []Dialect { return qfront.Dialects() }

// Re-exported core types, so library users need only this package for the
// common paths.
type (
	// Application is DSP application metadata: the SQL catalog.
	Application = catalog.Application
	// DSFile is one data service (.ds) file: the SQL schema.
	DSFile = catalog.DSFile
	// Function is a data service function: a SQL table (parameterless)
	// or stored procedure (parameterized).
	Function = catalog.Function
	// Column is one column of a function's flat row type.
	Column = catalog.Column
	// Parameter is a formal parameter of a parameterized function.
	Parameter = catalog.Parameter
	// Engine is the XQuery engine data service functions register with.
	Engine = xqeval.Engine
	// Translation is a completed SQL→XQuery translation.
	Translation = translator.Result
	// ResultColumn describes one output column of a translation.
	ResultColumn = translator.ResultColumn
	// Rows is a decoded, scrollable result set.
	Rows = resultset.Rows
	// Element is a row element of the XML data model (for implementing
	// custom data service functions).
	Element = xdm.Element
	// Sequence is an XQuery value sequence.
	Sequence = xdm.Sequence
	// Trace is a per-query stage trace (lex → … → evaluate) recorded by
	// the observability layer.
	Trace = obsv.Trace
	// StageEvent is one completed stage record; install a hook on a Trace
	// to stream them.
	StageEvent = obsv.StageEvent
	// PipelineStats is a snapshot of pipeline metrics (counters plus
	// per-stage timing aggregates).
	PipelineStats = obsv.Snapshot
	// ConnStats is the per-connection snapshot the driver exposes through
	// database/sql's Conn.Raw (see driver.StatsReporter).
	ConnStats = driver.ConnStats
	// QueryPlan is the evaluator's optimized execution plan for a
	// translation: hash equi-joins, pushed predicates, hoisted invariants.
	QueryPlan = xqeval.Plan
	// CompiledQuery is the compiled-query artifact: the completed
	// translation, the evaluator's plan (checked and built straight from
	// the generated AST — no serialize→reparse round trip), and the
	// compile-time stage trace. CompileDialect returns it; the shared
	// compile cache stores it.
	CompiledQuery = qcache.CompiledQuery
	// CompileCacheStats snapshots the shared compile cache's counters
	// (hits, misses, single-flight shares, evictions, invalidations, size,
	// current metadata generation).
	CompileCacheStats = qcache.Stats
	// QueryError is the typed error the resilience layer raises: every
	// failure carries a Kind (transient, permanent, unavailable, timeout,
	// resource limit, internal) the caller can switch on with errors.As.
	QueryError = aqerr.QueryError
	// ErrorKind classifies a QueryError.
	ErrorKind = aqerr.Kind
	// ResilienceConfig is the knob set EnableResilience applies: retries,
	// circuit breakers, metadata staleness, result-size caps, and the
	// default statement timeout.
	ResilienceConfig = resilient.Config
	// FaultConfig parameterizes the fault-injection net EnableFaults
	// installs (seed, rate, fault kinds).
	FaultConfig = faultnet.Config
	// FaultInjector is the installed chaos layer; its Report lists every
	// registered fault point with per-kind injection counts.
	FaultInjector = faultnet.Injector
	// FaultKind is one injectable fault class.
	FaultKind = faultnet.Kind
	// EvalLimits caps evaluator resources (rows, tuples, recursion depth).
	EvalLimits = xqeval.Limits
	// ExecConfig configures the evaluator's morsel-style parallel
	// execution (worker count, morsel size, minimum scan size); install it
	// with Platform.ConfigureExec.
	ExecConfig = xqeval.ExecConfig
	// SourceStats is one data service's collected statistics (row count,
	// per-column distinct estimates, average row width) — the cost model's
	// input, populated lazily on first scan or eagerly by AnalyzeStats.
	SourceStats = xqeval.SourceStats
	// Federation is the multi-backend catalog AddSource builds: named
	// metadata sources resolved together, each behind its own cache and
	// generation.
	Federation = catalog.Federation
	// PartitionSpec declares a horizontally partitioned data service:
	// shard functions (possibly on different sources), the shard key, and
	// an optional shard-routing function enabling partition pruning.
	PartitionSpec = xqeval.PartitionSpec
	// ShardSpec names one shard of a partitioned data service.
	ShardSpec = xqeval.ShardSpec
	// Atomic is an XQuery atomic value — what PartitionSpec.ShardFor
	// routes on (compare with its Lexical form or a typed accessor).
	Atomic = xdm.Atomic
	// BreakerState is a circuit breaker's position (closed, open,
	// half-open); FederationStats reports one per data service breaker.
	BreakerState = resilient.BreakerState
)

// Error kinds a QueryError can carry.
const (
	ErrTransient     = aqerr.KindTransient
	ErrPermanent     = aqerr.KindPermanent
	ErrUnavailable   = aqerr.KindUnavailable
	ErrTimeout       = aqerr.KindTimeout
	ErrResourceLimit = aqerr.KindResourceLimit
	ErrInternal      = aqerr.KindInternal
)

// Injectable fault kinds for FaultConfig.Kinds.
const (
	FaultTransient = faultnet.KindTransient
	FaultPermanent = faultnet.KindPermanent
	FaultLatency   = faultnet.KindLatency
	FaultStall     = faultnet.KindStall
	FaultTruncate  = faultnet.KindTruncate
	FaultPanic     = faultnet.KindPanic
)

// SQL column types for building catalogs.
const (
	SQLInteger   = catalog.SQLInteger
	SQLSmallint  = catalog.SQLSmallint
	SQLDecimal   = catalog.SQLDecimal
	SQLDouble    = catalog.SQLDouble
	SQLVarchar   = catalog.SQLVarchar
	SQLChar      = catalog.SQLChar
	SQLBoolean   = catalog.SQLBoolean
	SQLDate      = catalog.SQLDate
	SQLTime      = catalog.SQLTime
	SQLTimestamp = catalog.SQLTimestamp
)

// ResultMode selects §4 result handling.
type ResultMode = translator.ResultMode

// Result modes.
const (
	ModeXML  = translator.ModeXML
	ModeText = translator.ModeText
)

// NewEngine creates an empty XQuery engine.
func NewEngine() *Engine { return xqeval.New() }

// NewRelationalImport builds the function metadata a DSP relational import
// would produce for a table (paper Example 2).
func NewRelationalImport(path, name string, cols []Column) *Function {
	return catalog.NewRelationalImport(path, name, cols)
}

// Platform bundles an application's metadata with the engine serving its
// data: one AquaLogic-DSP-shaped deployment.
type Platform struct {
	App    *Application
	Engine *Engine

	// MetadataLatency, when set, simulates the round trip of the remote
	// metadata API on every uncached lookup.
	MetadataLatency time.Duration

	cacheMu    sync.Mutex
	cache      *catalog.Cache
	qc         *qcache.Cache
	resilience *resilient.Config
	injector   *faultnet.Injector
	guard      *resilient.EngineGuard

	// sources are the extra federation backends added with AddSource; when
	// non-empty the metadata stack is a catalog.Federation with the App as
	// its first backend (named App.Name), each behind its own cache.
	sources []namedSource
	fed     *catalog.Federation
}

// namedSource is one federation backend registered with AddSource.
type namedSource struct {
	name string
	src  catalog.Source
}

// New creates a platform over application metadata and an engine.
func New(app *Application, engine *Engine) *Platform {
	return &Platform{App: app, Engine: engine}
}

// Demo builds the paper's example application (CUSTOMERS, PAYMENTS,
// PO_CUSTOMERS, PO_ITEMS plus the getCustomerById procedure) with the
// default synthetic dataset.
func Demo() *Platform {
	app, _, engine := demo.Setup(demo.DefaultSizes)
	return New(app, engine)
}

// EnableFaults installs the fault-injection net: the metadata source and
// every data service call become registered fault points that misbehave
// (transient/permanent errors, latency, stalls, truncation, panics) on the
// injector's deterministic seeded schedule. Call it during setup, before
// EnableResilience, so the defenses wrap the faults the way they would
// wrap a real flaky network. The returned injector's Report lists every
// fault point with per-kind injection counts.
func (p *Platform) EnableFaults(cfg FaultConfig) *FaultInjector {
	inj := faultnet.New(cfg)
	p.cacheMu.Lock()
	p.injector = inj
	p.cache = nil // rebuild the metadata stack with the chaos layer inside
	p.fed = nil
	p.qc = nil // artifacts compiled over the old stack are stale
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // sources now misbehave; observations are stale
	p.Engine.Use(inj.Middleware())
	return inj
}

// EnableResilience arms the platform's defenses: retries with backoff
// around metadata lookups and data service calls, a circuit breaker per
// data service, panic containment, stale-while-revalidate metadata
// serving (StaleTTL), evaluator resource caps (MaxRows), and a default
// statement deadline (QueryTimeout) for the driver. Call it during setup,
// after any EnableFaults.
func (p *Platform) EnableResilience(cfg ResilienceConfig) {
	cfg = cfg.WithDefaults()
	guard := resilient.NewEngineGuard(cfg)
	p.cacheMu.Lock()
	p.resilience = &cfg
	p.guard = guard
	p.cache = nil // rebuild the metadata stack with retries + staleness
	p.fed = nil
	p.qc = nil // rebuild the compile cache with CompileCacheEntries applied
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // the rebuilt stack may change what scans observe
	p.Engine.Use(guard.Middleware())
	if cfg.MaxRows > 0 {
		lim := p.Engine.Limits()
		lim.MaxRows = cfg.MaxRows
		p.Engine.SetLimits(lim)
	}
}

// ConfigureExec installs the evaluator's parallel-execution settings:
// Workers caps the per-query morsel worker pool (0 = GOMAXPROCS, 1 =
// serial), MorselSize the scan partition size, MinParallelItems the
// smallest scan worth fanning out. Serial and parallel execution are
// byte-identical; the knob trades coordination overhead for scan/join
// throughput.
func (p *Platform) ConfigureExec(cfg ExecConfig) {
	p.Engine.SetExec(cfg)
}

// AnalyzeStats eagerly collects source statistics for every table-shaped
// data service in the catalog — the explicit ANALYZE counterpart to the
// lazy collection that happens on first scan. Statistics feed the
// planner's cost model (EXPLAIN's cost annotations, hash-key selection);
// collecting them advances the statistics generation, which retires
// compiled artifacts costed against older numbers. Returns the number of
// sources analyzed; a failing source is skipped and reported in err after
// the rest have been attempted.
func (p *Platform) AnalyzeStats(ctx context.Context) (int, error) {
	tables, err := p.metaSource().Tables()
	if err != nil {
		return 0, err
	}
	analyzed := 0
	var firstErr error
	for _, tm := range tables {
		if tm.Function == nil || !tm.Function.IsTable() {
			continue
		}
		if _, err := p.Engine.CollectSourceStats(ctx, tm.Function.Namespace, tm.Function.Name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("aqualogic: analyze %s: %w", tm.Function.Name, err)
			}
			continue
		}
		analyzed++
	}
	return analyzed, firstErr
}

// AddSource registers an extra federation backend under a name: its
// tables and procedures become resolvable alongside the App's, behind
// the backend's own metadata cache and generation. The first AddSource
// turns the platform's metadata stack into a catalog.Federation with the
// App as its first backend (named App.Name); unqualified table names
// resolve across every backend (colliding names raise a typed
// AmbiguousError listing the sources), and a source-qualified name
// (`billing.INVOICES`) pins resolution to one backend without touching
// the others. Call during setup; adding a source rebuilds the metadata
// stack and retires compiled artifacts.
func (p *Platform) AddSource(name string, src catalog.Source) error {
	if name == "" || src == nil {
		return fmt.Errorf("aqualogic: AddSource requires a name and a source")
	}
	p.cacheMu.Lock()
	if strings.EqualFold(name, p.App.Name) {
		p.cacheMu.Unlock()
		return fmt.Errorf("aqualogic: source %s collides with the application name", name)
	}
	for _, ns := range p.sources {
		if strings.EqualFold(ns.name, name) {
			p.cacheMu.Unlock()
			return fmt.Errorf("aqualogic: source %s already registered", name)
		}
	}
	p.sources = append(p.sources, namedSource{name: name, src: src})
	p.fed = nil // rebuild the federation with the new backend
	p.cache = nil
	p.qc = nil
	p.cacheMu.Unlock()
	p.Engine.InvalidateSourceStats() // new names may shadow observed sources
	return nil
}

// SourceNames lists the federation's backends in registration order (the
// App first). A platform with no added sources reports just the App.
func (p *Platform) SourceNames() []string {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	out := []string{p.App.Name}
	for _, ns := range p.sources {
		out = append(out, ns.name)
	}
	return out
}

// InvalidateSourceMetadata drops one backend's cached metadata and
// advances that backend's generation, retiring only the compiled
// artifacts whose statements touched it — the other backends' caches and
// artifacts stay warm. Outside a federation it flushes the single
// metadata cache.
func (p *Platform) InvalidateSourceMetadata(name string) {
	if fed := p.federation(); fed != nil {
		fed.InvalidateSource(name)
		return
	}
	if c := p.metaCache(); c != nil {
		c.Invalidate()
	}
}

// metaSource builds the metadata stack, inside out: application
// (→ simulated remote) (→ fault injection) (→ retries) → client-side
// cache with stale-serving. With added sources the stack is a
// Federation instead: each backend gets its own injection/retry stack
// and its own cache, so one backend's faults or invalidations stay its
// own. Lazy construction is guarded so concurrent callers (parallel
// TranslateDialect/QueryDialect, RegisterDriver) share one cache.
func (p *Platform) metaSource() catalog.Source {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if len(p.sources) > 0 {
		if p.fed == nil {
			fed := catalog.NewFederation(p.App.Name)
			if p.resilience != nil {
				fed.FreshFor = p.resilience.StaleTTL
			}
			var appSrc catalog.Source = p.App
			if p.MetadataLatency > 0 {
				appSrc = &catalog.Remote{Inner: p.App, Latency: p.MetadataLatency}
			}
			fed.Register(p.App.Name, p.backendStackLocked(p.App.Name, appSrc))
			for _, ns := range p.sources {
				fed.Register(ns.name, p.backendStackLocked(ns.name, ns.src))
			}
			p.fed = fed
		}
		return p.fed
	}
	if p.cache == nil {
		var src catalog.Source = p.App
		if p.MetadataLatency > 0 {
			src = &catalog.Remote{Inner: p.App, Latency: p.MetadataLatency}
		}
		if p.injector != nil {
			src = p.injector.Source(src)
		}
		if p.resilience != nil {
			src = resilient.NewSource(src, *p.resilience)
		}
		p.cache = catalog.NewCache(src)
		if p.resilience != nil {
			p.cache.FreshFor = p.resilience.StaleTTL
		}
	}
	return p.cache
}

// backendStackLocked wraps one federation backend in the per-source
// chaos and retry layers (the Federation itself adds the per-source
// cache). Callers hold cacheMu.
func (p *Platform) backendStackLocked(name string, src catalog.Source) catalog.Source {
	if p.injector != nil {
		src = p.injector.SourceNamed(name, src)
	}
	if p.resilience != nil {
		src = resilient.NewSource(src, *p.resilience)
	}
	return src
}

// federation returns the platform's federation, building the metadata
// stack if needed; nil when no sources have been added.
func (p *Platform) federation() *catalog.Federation {
	p.cacheMu.Lock()
	has := len(p.sources) > 0
	fed := p.fed
	p.cacheMu.Unlock()
	if fed == nil && has {
		p.metaSource()
		p.cacheMu.Lock()
		fed = p.fed
		p.cacheMu.Unlock()
	}
	return fed
}

// sourceGeneration is the per-backend epoch the compile cache validates
// hits against: the backend's metadata generation plus its source-scoped
// statistics generation. Both are monotonic, so the sum changes whenever
// either does.
func (p *Platform) sourceGeneration(source string) uint64 {
	var gen uint64
	if fed := p.federation(); fed != nil {
		gen = fed.SourceGeneration(source)
	}
	return gen + p.Engine.SourceStatsGeneration(source)
}

// queryCache lazily builds the platform's shared compiled-query cache,
// keyed on the metadata cache's generation so catalog changes retire
// stale artifacts. The same instance backs CompileDialect/QueryDialect on
// the facade and every connection of a registered driver.
func (p *Platform) queryCache() *qcache.Cache {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.qc == nil {
		cfg := qcache.Config{Generation: p.metadataGeneration, StatsGeneration: p.Engine.StatsGeneration}
		if len(p.sources) > 0 {
			// Federated: hits additionally revalidate each backend the
			// artifact touched, so one source's invalidation never churns
			// artifacts compiled purely over the others.
			cfg.SourceGeneration = p.sourceGeneration
		}
		if p.resilience != nil {
			cfg.MaxEntries = p.resilience.CompileCacheEntries
		}
		p.qc = qcache.New(cfg)
	}
	return p.qc
}

// metadataGeneration reads the metadata cache's current epoch (building
// the stack if needed). Zero when the source does not version itself.
func (p *Platform) metadataGeneration() uint64 {
	if gs, ok := p.metaSource().(qcache.GenerationSource); ok {
		return gs.Generation()
	}
	return 0
}

// CompileDialect translates, statically checks, and plans a statement
// once, returning the compiled-query artifact — the AST handed to the
// evaluator directly, with no serialize→reparse round trip. The text is
// parsed by the dialect's registered front end, and the artifact is
// cached in the platform's shared compile cache under (dialect,
// normalized text, mode, generations): repeated CompileDialect and
// QueryDialect calls of equivalent statements reuse one compilation, and
// two dialects can never share or clobber an entry, even on identical
// text. ctx is observed during metadata fetches.
func (p *Platform) CompileDialect(ctx context.Context, dialect Dialect, text string, mode ResultMode) (*CompiledQuery, error) {
	fe, err := qfront.Lookup(dialect)
	if err != nil {
		return nil, err
	}
	cq, _, err := p.queryCache().Get(ctx, fe, text, mode, func(ctx context.Context, text string) (*qcache.CompiledQuery, error) {
		tr := obsv.NewTrace(text)
		tr.Hook = obsv.Global.ObserveStage
		return qcache.Compile(ctx, p.Translator(mode), p.Engine, fe, text, tr)
	})
	return cq, err
}

// CompileStats reports the shared compile cache's counters. Process-wide
// figures (all platforms) are also in Stats().
func (p *Platform) CompileStats() CompileCacheStats {
	return p.queryCache().Stats()
}

// MetadataSource answers table/procedure metadata lookups — the
// catalog-facing surface the network server re-exports over the wire and
// the remote client implements on the other side.
type MetadataSource = catalog.Source

// Metadata returns the platform's metadata source: the full stack built
// by metaSource (remote simulation, fault injection, retries, client-side
// cache), shared with every translator and driver connection. The network
// server front end (internal/server) serves its metadata endpoints from
// exactly this source, so remote and in-process metadata browsing see the
// same cache, the same staleness behavior, and the same fault points.
func (p *Platform) Metadata() MetadataSource {
	return p.metaSource()
}

// Translator returns a translator over the platform's (cached) metadata.
func (p *Platform) Translator(mode ResultMode) *translator.Translator {
	tr := translator.New(p.metaSource())
	tr.Options.Mode = mode
	tr.Options.DefaultCatalog = p.App.Name
	return tr
}

// TranslateDialect converts a statement in the given dialect into XQuery,
// returning the full translation (generated query, result schema,
// parameter info); its XQuery method renders the text `cmd/sql2xq`
// prints.
func (p *Platform) TranslateDialect(dialect Dialect, text string, mode ResultMode) (*Translation, error) {
	fe, err := qfront.Lookup(dialect)
	if err != nil {
		return nil, err
	}
	return p.Translator(mode).TranslateFrontend(context.Background(), fe, text, nil)
}

// QueryDialect translates and executes a statement end to end: compile
// through the shared compile cache (a repeated query reuses the cached
// plan and skips translation, checking, and planning entirely), bind the
// given values to the `?` markers, start the evaluation, and return a Rows
// over the row cursor. ModeText is the §4 text-mode path, the driver's
// default. The returned Rows is a thin view over a pull cursor: the
// evaluation runs concurrently with consumption — ORDER BY and GROUP BY
// segments are the only materialization barriers — so the first row is
// available long before the last one is computed, and FETCH FIRST n stops
// the evaluation after n rows. Cancelling ctx aborts the evaluation at the
// next tuple boundary, and Close cancels any remaining evaluation. Call
// rows.Materialize() — or any scroll operation (Len, Reset), which
// materializes implicitly — for a scrollable result. Errors that precede
// the first row (unknown tables, bad parameters, sources failing at open)
// are returned here synchronously; later ones via rows.Err(), so check it
// after iterating.
func (p *Platform) QueryDialect(ctx context.Context, dialect Dialect, mode ResultMode, text string, args ...any) (*Rows, error) {
	cq, err := p.CompileDialect(ctx, dialect, text, mode)
	if err != nil {
		return nil, err
	}
	rc, err := cq.Open(ctx, p.Engine, args, nil)
	if err != nil {
		return nil, err
	}
	return resultset.NewStreaming(rc), nil
}

// RegisterDriver exposes the platform through database/sql under the given
// DSN name: sql.Open("aqualogic", name).
func (p *Platform) RegisterDriver(name string) {
	srv := &driver.Server{
		App:        p.App,
		Engine:     p.Engine,
		Meta:       p.metaSource(),
		Cache:      p.queryCache(), // one compile cache across facade + all connections
		DefineView: p.DefineView,
	}
	p.cacheMu.Lock()
	if p.resilience != nil {
		srv.QueryTimeout = p.resilience.QueryTimeout
	}
	p.cacheMu.Unlock()
	driver.RegisterServer(name, srv)
}

// metaCache returns the platform's cache if it has been built yet.
func (p *Platform) metaCache() *catalog.Cache {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return p.cache
}

// MetadataStats reports the metadata cache's hit/miss counters. In a
// federation the per-backend counters are summed; FederationStats breaks
// them out per source.
func (p *Platform) MetadataStats() catalog.CacheStats {
	if fed := p.federation(); fed != nil {
		var sum catalog.CacheStats
		for _, name := range fed.SourceNames() {
			if st, ok := fed.SourceStats(name); ok {
				sum.Hits += st.Hits
				sum.Misses += st.Misses
				sum.StaleServes += st.StaleServes
				sum.Shared += st.Shared
				sum.Degraded = sum.Degraded || st.Degraded
			}
		}
		return sum
	}
	if c := p.metaCache(); c != nil {
		return c.Stats()
	}
	return catalog.CacheStats{}
}

// SourceHealth is one federation backend's health snapshot: its metadata
// cache counters, its current generation, and the circuit breakers of
// the data services registered against it.
type SourceHealth struct {
	// Name is the backend's registration name.
	Name string
	// Generation is the backend's metadata epoch (advanced by
	// invalidations, refresh changes, and degradation transitions).
	Generation uint64
	// Metadata is the backend's cache counters.
	Metadata catalog.CacheStats
	// Breakers maps data service names to breaker state for services
	// registered against this source (the App owns services registered
	// without a source tag). Nil until EnableResilience has installed the
	// guard and calls have exercised it.
	Breakers map[string]BreakerState
}

// FederationStats snapshots every backend's health in registration
// order; nil when no sources have been added.
func (p *Platform) FederationStats() []SourceHealth {
	fed := p.federation()
	if fed == nil {
		return nil
	}
	p.cacheMu.Lock()
	guard := p.guard
	p.cacheMu.Unlock()
	var breakers map[string]resilient.BreakerState
	if guard != nil {
		breakers = guard.Snapshot()
	}
	names := fed.SourceNames()
	out := make([]SourceHealth, 0, len(names))
	for _, name := range names {
		h := SourceHealth{Name: name, Generation: fed.SourceGeneration(name)}
		if st, ok := fed.SourceStats(name); ok {
			h.Metadata = st
		}
		for svc, state := range breakers {
			// Source-tagged registrations name breakers "<source>/<local>";
			// untagged ones (in-process App functions) have no slash.
			if i := strings.IndexByte(svc, '/'); i >= 0 {
				if !strings.EqualFold(svc[:i], name) {
					continue
				}
			} else if !strings.EqualFold(name, p.App.Name) {
				continue
			}
			if h.Breakers == nil {
				h.Breakers = map[string]BreakerState{}
			}
			h.Breakers[svc] = state
		}
		out = append(out, h)
	}
	return out
}

// ExplainDialect runs a traced translation: the returned Trace holds one
// stage record per pipeline stage (the dialect's own lex and parse, then
// semantic-validate, restructure, generate, serialize) with wall time,
// sizes, and stage detail — the programmatic form of the driver's EXPLAIN
// statement.
func (p *Platform) ExplainDialect(dialect Dialect, text string, mode ResultMode) (*Translation, *Trace, error) {
	fe, err := qfront.Lookup(dialect)
	if err != nil {
		return nil, nil, err
	}
	tr := obsv.NewTrace(text)
	tr.Hook = obsv.Global.ObserveStage
	res, err := p.Translator(mode).TranslateFrontend(context.Background(), fe, text, tr)
	return res, tr, err
}

// PlanQuery builds the evaluator's execution plan for a translation — the
// plan the driver caches per prepared statement. Its Describe method
// renders the clause pipeline (hash joins, pushed filters, hoisted
// invariants) that EXPLAIN and sql2xq -explain print.
func PlanQuery(t *Translation) *QueryPlan {
	return xqeval.NewPlan(t.Query)
}

// Stats snapshots the process-wide pipeline metrics: every metric of the
// obsv registry by name (queries translated and executed, metadata- and
// compile-cache hits/misses/evictions, rows materialized, evaluator
// steps, planner, federation, resilience and remote-client counters),
// plus per-stage timing aggregates; Render prints it. A network server's
// session and admission counters are its own (server.Server.Stats).
// Per-connection figures are available via the driver's Stats() (see
// driver.StatsReporter); the platform's own metadata-cache counters via
// MetadataStats, and its compile-cache counters via CompileStats.
func Stats() PipelineStats {
	return obsv.Global.Snapshot()
}

// ToAtomic converts a Go value to an XQuery atomic value, accepting the
// types database/sql users pass as parameters.
func ToAtomic(v any) (xdm.Atomic, error) {
	return xdm.FromGo(v)
}

// RegisterRows installs a parameterless data service function returning
// fixed rows on an engine — the quickest way to serve custom data.
func RegisterRows(e *Engine, namespace, local string, rows []*Element) {
	e.RegisterRows(namespace, local, rows)
}

// NewRow builds a flat row element: NewRow("CUSTOMERS", "CUSTOMERID", "55",
// "CUSTOMERNAME", "Joe"). Empty values are skipped (SQL NULL).
func NewRow(rowElement string, colValuePairs ...string) *Element {
	row := xdm.NewElement(rowElement)
	for i := 0; i+1 < len(colValuePairs); i += 2 {
		if colValuePairs[i+1] != "" {
			row.AddChild(xdm.NewTextElement(colValuePairs[i], colValuePairs[i+1]))
		}
	}
	return row
}

// DefineView registers a logical data service: a new data service function
// whose body is a SQL view over existing data services — the paper's §2
// layering, where logical data services are authored on top of physical
// ones and are themselves queryable (and further composable). The view is
// translated once; each call evaluates the stored query and returns flat
// rows shaped like any physical function's.
//
// The view appears as table `name` in schema `path/name`, with columns
// named by the view's (necessarily unique) output labels.
func (p *Platform) DefineView(path, name, sql string) error {
	res, err := p.TranslateDialect(DialectSQL, sql, ModeXML)
	if err != nil {
		return fmt.Errorf("aqualogic: define view %s: %w", name, err)
	}
	if res.ParamCount != 0 {
		return fmt.Errorf("aqualogic: define view %s: views cannot contain parameter markers", name)
	}
	seen := map[string]bool{}
	cols := make([]Column, len(res.Columns))
	for i, c := range res.Columns {
		label := strings.ToUpper(c.Label)
		if seen[label] {
			return fmt.Errorf("aqualogic: define view %s: duplicate output column %s (alias the columns uniquely)", name, label)
		}
		seen[label] = true
		cols[i] = Column{Name: label, Type: c.Type, Nullable: c.Nullable,
			Precision: c.Precision, Scale: c.Scale}
	}
	if _, err := p.metaSource().Lookup(catalog.TableRef{Table: name}); err == nil {
		return fmt.Errorf("aqualogic: define view %s: a table with that name already exists", name)
	}

	fn := catalog.NewRelationalImport(path, name, cols)
	p.App.AddDSFile(&DSFile{Path: path, Name: name, Functions: []*Function{fn}})
	// The metadata cache may hold a negative entry for the new name; the
	// generation bump from Invalidate retires compiled artifacts by keying,
	// and flushing the compile cache frees them immediately. In a
	// federation only the App backend changed, so only it is invalidated —
	// artifacts over the other backends stay cached (per-source hit
	// validation retires the ones that touched the App).
	if fed := p.federation(); fed != nil {
		fed.InvalidateSource(p.App.Name)
	} else {
		if c := p.metaCache(); c != nil {
			c.Invalidate()
		}
		p.cacheMu.Lock()
		qc := p.qc
		p.cacheMu.Unlock()
		if qc != nil {
			qc.Invalidate()
		}
	}
	// Catalog contents changed: collected statistics may describe sources
	// the view now shadows or composes over.
	p.Engine.InvalidateSourceStats()

	query := res.Query
	resCols := res.Columns
	p.Engine.Register(fn.Namespace, fn.Name, func(args []Sequence) (Sequence, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("view %s takes no arguments", name)
		}
		out, err := p.Engine.Eval(query)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", name, err)
		}
		it, err := out.Singleton()
		if err != nil {
			return nil, fmt.Errorf("view %s: %v", name, err)
		}
		recordset, ok := it.(*xdm.Element)
		if !ok {
			return nil, fmt.Errorf("view %s: unexpected result shape", name)
		}
		var rows Sequence
		for _, rec := range recordset.ChildElements("RECORD") {
			row := xdm.NewElement(name)
			for i, c := range resCols {
				src := rec.FirstChildElement(c.ElementName)
				if src == nil {
					continue // NULL stays absent
				}
				row.AddChild(xdm.NewTextElement(cols[i].Name, src.StringValue()))
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	return nil
}
