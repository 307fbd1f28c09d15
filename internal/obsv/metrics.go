package obsv

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. a cache's current size) —
// unlike Counter it can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max is a max-gauge: a concurrency-safe high-water mark (e.g. peak
// in-flight rows across cursors).
type Max struct {
	v atomic.Int64
}

// SetMax raises the mark to n if n is larger.
func (g *Max) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current mark.
func (g *Max) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two latency buckets: bucket i
// holds observations in [2^i µs, 2^(i+1) µs), bucket 0 holds < 2 µs, and
// the last bucket holds everything from ~2.1 s up.
const histBuckets = 22

// Histogram is a lock-free duration histogram with power-of-two
// microsecond buckets — coarse, but enough to find a hot path's shape
// without a metrics dependency.
type Histogram struct {
	count   atomic.Int64
	sumNano atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNano.Add(d.Nanoseconds())
	h.buckets[bucketFor(d)].Add(1)
}

func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := bits.Len64(uint64(us)) // 1µs → 1, 2-3µs → 2, …
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (the last
// bucket is unbounded and reports a negative duration).
func BucketBound(i int) time.Duration {
	if i >= histBuckets-1 {
		return -1
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	SumNano int64
	Buckets [histBuckets]int64
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNano / s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q ≤ 1)
// from the bucket boundaries. The rank rounds up, so small counts behave
// sensibly (p99 of 3 observations is the maximum, not the 2nd-smallest).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= target {
			if b := BucketBound(i); b >= 0 {
				return b
			}
			break
		}
	}
	// Landed in the unbounded bucket: the mean is the best cheap bound.
	return time.Duration(s.SumNano / s.Count)
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNano = h.sumNano.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// LabeledCounter is a counter partitioned by a string label (e.g. scans
// per federated source). It trades the plain counters' lock-freedom for a
// mutex-guarded map — fine for per-scan granularity, wrong for per-row.
type LabeledCounter struct {
	mu sync.Mutex
	v  map[string]int64
}

// Add adds n under label.
func (c *LabeledCounter) Add(label string, n int64) {
	c.mu.Lock()
	if c.v == nil {
		c.v = make(map[string]int64)
	}
	c.v[label] += n
	c.mu.Unlock()
}

// Snapshot copies the per-label values (nil when nothing was counted).
func (c *LabeledCounter) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.v) == 0 {
		return nil
	}
	out := make(map[string]int64, len(c.v))
	for k, v := range c.v {
		out[k] = v
	}
	return out
}

// Metrics aggregates pipeline activity. The zero value is ready to use;
// every field updates atomically, so one Metrics may be shared by any
// number of goroutines. The process-wide instance is Global; the driver
// additionally keeps one per connection for its Stats() surface.
//
// Each Counter, Gauge or Max field is one registered metric and its only
// declaration: the field name is the metric's name, the field type its
// kind, and the `group` tag the Render group it prints in. Snapshot, the
// /v1/stats JSON and Render all iterate the registry, so a new metric is
// one field here plus its increment site.
type Metrics struct {
	// Pipeline: completed translations and translations rejected at any
	// stage; engine evaluations; metadata-cache lookups (§3.5); result-set
	// rows decoded whole (§4) and rows delivered one pull at a time by the
	// streaming decoders; the high-water mark of rows buffered between
	// producer and consumer across cursors; evaluator expression steps
	// (the engine's unit of work).
	QueriesTranslated Counter `group:"pipeline"`
	TranslateErrors   Counter `group:"pipeline"`
	QueriesExecuted   Counter `group:"pipeline"`
	CacheHits         Counter `group:"pipeline"`
	CacheMisses       Counter `group:"pipeline"`
	RowsMaterialized  Counter `group:"pipeline"`
	RowsStreamed      Counter `group:"pipeline"`
	PeakInFlightRows  Max     `group:"pipeline"`
	EvalSteps         Counter `group:"pipeline"`

	// Planner: evaluator query plans constructed and the static decisions
	// aggregated across them; tuples the planned executor skipped relative
	// to the naive nested-loop pipeline (hash-join misses plus
	// pushed-predicate rejections); statistics lookups (stats.go), where a
	// miss means a plan was built before its sources were observed.
	PlansBuilt            Counter `group:"planner"`
	PlanHashJoins         Counter `group:"planner"`
	PlanPredicatesPushed  Counter `group:"planner"`
	PlanInvariantsHoisted Counter `group:"planner"`
	TuplesPruned          Counter `group:"planner"`
	SourceStatsHits       Counter `group:"planner"`
	SourceStatsMisses     Counter `group:"planner"`

	// Parallel (internal/xqeval parallel.go): morsel workers spawned,
	// morsels flushed through the ordered merge, and the high-water mark
	// of completed morsels waiting on the merge point.
	ParallelWorkers  Counter `group:"parallel"`
	MorselsProcessed Counter `group:"parallel"`
	MergeBacklog     Max     `group:"parallel"`

	// Federation (internal/xqeval partition.go): scatter-gather
	// evaluations of partitioned scans, the shard calls they made, shards
	// a pinned shard key let the executor skip, and degraded shards a
	// partial-tolerant scan dropped.
	FederatedScans Counter `group:"federation"`
	ShardScans     Counter `group:"federation"`
	ShardsPruned   Counter `group:"federation"`
	ShardsSkipped  Counter `group:"federation"`

	// Compile cache (internal/qcache): CompiledQuery lookups that reused
	// an artifact, compiled one, or coalesced onto another caller's
	// in-flight compile; LRU drops under the size bound; whole-cache
	// flushes (catalog change or degradation); current entries across the
	// process.
	CompileCacheHits          Counter `group:"compile_cache"`
	CompileCacheMisses        Counter `group:"compile_cache"`
	CompileCacheShared        Counter `group:"compile_cache"`
	CompileCacheEvictions     Counter `group:"compile_cache"`
	CompileCacheInvalidations Counter `group:"compile_cache"`
	CompileCacheSize          Gauge   `group:"compile_cache"`

	// Resilience: chaos-layer injections (internal/faultnet) and the
	// production-side reactions — retry attempts beyond the first try,
	// operations rescued by them, breaker transitions to open, calls
	// rejected fast by an open breaker, metadata lookups served stale
	// during an outage, lookups coalesced onto another in-flight fetch,
	// panics converted to typed errors, queries aborted by a resource
	// guard.
	FaultsInjected     Counter `group:"resilience"`
	Retries            Counter `group:"resilience"`
	RetrySuccesses     Counter `group:"resilience"`
	BreakerOpens       Counter `group:"resilience"`
	BreakerFastFails   Counter `group:"resilience"`
	StaleServes        Counter `group:"resilience"`
	SingleFlightShared Counter `group:"resilience"`
	PanicsRecovered    Counter `group:"resilience"`
	ResourceLimitHits  Counter `group:"resilience"`

	// Remote client (internal/remoteclient): retry attempts beyond the
	// first and the operations they rescued, hedged fetch duplicates and
	// how often the hedge beat the primary. Server-side counters are the
	// server's own (wire.ServerStats), not metrics here.
	RemoteRetries        Counter `group:"remote_client"`
	RemoteRetrySuccesses Counter `group:"remote_client"`
	FetchHedges          Counter `group:"remote_client"`
	HedgeWins            Counter `group:"remote_client"`

	// TimeToFirstRow observes the latency from opening a streaming cursor
	// to its first row; SourceScans attributes shard calls to their
	// federated source. Both are reported beside the registry (Snapshot
	// keeps their figures as fields).
	TimeToFirstRow Histogram
	SourceScans    LabeledCounter

	stageTime [NumStages]Histogram
}

// Groups lists the render groups in Render's order.
var Groups = []string{"pipeline", "planner", "parallel", "federation", "compile_cache", "resilience", "remote_client"}

// Def describes one registered metric.
type Def struct {
	Name  string
	Kind  string // "counter", "gauge" or "max"
	Group string // one of Groups
	field int    // index into Metrics
}

// registry is derived once from the Metrics fields, in declaration order.
var registry = func() []Def {
	kinds := map[reflect.Type]string{
		reflect.TypeOf(Counter{}): "counter",
		reflect.TypeOf(Gauge{}):   "gauge",
		reflect.TypeOf(Max{}):     "max",
	}
	t := reflect.TypeOf(Metrics{})
	var defs []Def
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		kind, ok := kinds[f.Type]
		if !ok {
			continue
		}
		group := f.Tag.Get("group")
		if !slices.Contains(Groups, group) {
			panic(fmt.Sprintf("obsv: metric %s has render group %q, want one of %v", f.Name, group, Groups))
		}
		defs = append(defs, Def{Name: f.Name, Kind: kind, Group: group, field: i})
	}
	return defs
}()

// Registry returns every registered metric in declaration order.
func Registry() []Def { return slices.Clone(registry) }

// Global is the process-wide metrics instance the pipeline reports into.
var Global = &Metrics{}

// ObserveStage folds one completed stage event into the per-stage
// histograms (usable directly as a Trace hook).
func (m *Metrics) ObserveStage(ev StageEvent) {
	if ev.Stage < 0 || ev.Stage >= NumStages {
		return
	}
	m.stageTime[ev.Stage].Observe(ev.Duration)
}

// StageTime returns the histogram for one stage.
func (m *Metrics) StageTime(s Stage) *Histogram { return &m.stageTime[s] }

// StageSnapshot is the exported view of one stage's aggregate timing.
type StageSnapshot struct {
	Stage   string
	Count   int64
	TotalNS int64
	MeanNS  int64
	P99NS   int64
}

// Snapshot is a point-in-time copy of a Metrics — the scrape surface for
// embedders and the pipeline half of /v1/stats (plain values, no atomics).
type Snapshot struct {
	// Metrics maps every registered metric's name to its value.
	Metrics map[string]int64
	// TimeToFirstRow* summarize the streaming first-row histogram.
	TimeToFirstRowCount  int64
	TimeToFirstRowMeanNS int64
	TimeToFirstRowP99NS  int64
	// SourceScans maps federated source name → shard calls attributed to
	// it; nil when the process never ran a federated scan.
	SourceScans map[string]int64

	Stages []StageSnapshot // pipeline order; stages never seen are omitted
}

// Get returns one registered metric's value. It panics on a name no
// Metrics field declares, so a misspelt name fails instead of reading 0.
func (s Snapshot) Get(name string) int64 {
	v, ok := s.Metrics[name]
	if !ok && !slices.ContainsFunc(registry, func(d Def) bool { return d.Name == name }) {
		panic("obsv: no metric named " + name)
	}
	return v
}

// Snapshot captures the current values.
func (m *Metrics) Snapshot() Snapshot {
	fields := reflect.ValueOf(m).Elem()
	s := Snapshot{Metrics: make(map[string]int64, len(registry)), SourceScans: m.SourceScans.Snapshot()}
	for _, d := range registry {
		s.Metrics[d.Name] = fields.Field(d.field).Addr().Interface().(interface{ Load() int64 }).Load()
	}
	if ttfr := m.TimeToFirstRow.Snapshot(); ttfr.Count > 0 {
		s.TimeToFirstRowCount = ttfr.Count
		s.TimeToFirstRowMeanNS = ttfr.Mean().Nanoseconds()
		s.TimeToFirstRowP99NS = ttfr.Quantile(0.99).Nanoseconds()
	}
	for st := Stage(0); st < NumStages; st++ {
		hs := m.stageTime[st].Snapshot()
		if hs.Count == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageSnapshot{
			Stage:   st.String(),
			Count:   hs.Count,
			TotalNS: hs.SumNano,
			MeanNS:  hs.Mean().Nanoseconds(),
			P99NS:   hs.Quantile(0.99).Nanoseconds(),
		})
	}
	return s
}

// Render writes the named groups, one line of name=value pairs each,
// zeros included so what has NOT happened is visible too. The pipeline
// group adds the first-row latency line once a cursor has streamed, and
// federation the per-source scans once a scan has scattered. With no
// groups it writes every group followed by the per-stage timing table —
// aqlshell's `\s`.
func (s Snapshot) Render(w io.Writer, groups ...string) {
	full := len(groups) == 0
	if full {
		groups = Groups
	}
	for _, g := range groups {
		fmt.Fprintf(w, "%s:", g)
		for _, d := range registry {
			if d.Group == g {
				fmt.Fprintf(w, " %s=%d", d.Name, s.Metrics[d.Name])
			}
		}
		fmt.Fprintln(w)
		switch {
		case g == "pipeline" && s.TimeToFirstRowCount > 0:
			fmt.Fprintf(w, "  first row: cursors=%d mean=%s p99<=%s\n", s.TimeToFirstRowCount,
				time.Duration(s.TimeToFirstRowMeanNS).Round(time.Microsecond),
				time.Duration(s.TimeToFirstRowP99NS).Round(time.Microsecond))
		case g == "federation" && len(s.SourceScans) > 0:
			fmt.Fprintf(w, "  per-source scans:")
			for _, n := range SortedKeys(s.SourceScans) {
				fmt.Fprintf(w, " %s=%d", n, s.SourceScans[n])
			}
			fmt.Fprintln(w)
		}
	}
	if full && len(s.Stages) > 0 {
		fmt.Fprintf(w, "%-18s %-8s %-12s %-12s %s\n", "stage", "count", "total", "mean", "p99<=")
		for _, st := range s.Stages {
			fmt.Fprintf(w, "%-18s %-8d %-12s %-12s %s\n", st.Stage, st.Count,
				time.Duration(st.TotalNS).Round(time.Microsecond),
				time.Duration(st.MeanNS).Round(time.Microsecond),
				time.Duration(st.P99NS).Round(time.Microsecond))
		}
	}
}
