// Package obsv is the observability layer of the translation pipeline: a
// lightweight stage tracer plus process-wide metrics, threaded through
// every stage the paper's architecture names (§3.4.1's progressive
// translation, the §3.5 metadata cache, §4 result materialization, and the
// engine standing in for the DSP server).
//
// The design has two halves:
//
//   - Trace — a per-query record of stage spans (lex, parse,
//     semantic-validate, restructure, generate, serialize, evaluate,
//     decode) with wall time, input/output sizes, and stage-specific
//     detail counters (wildcards expanded, contexts created, variables
//     generated, evaluator steps, …). A nil *Trace is a valid no-op
//     tracer, so pipeline code threads it unconditionally.
//
//   - Metrics — the one registry of pipeline metrics: process- or
//     connection-scoped atomic counters, gauges and max-gauges (queries
//     translated, cache hits/misses, rows materialized, evaluator steps,
//     …) plus duration histograms of cumulative per-stage time. Each
//     metric is declared once, as a group-tagged Metrics field, and
//     counted once, by the component that owns the event; a server's own
//     session and admission counters are not here but on the server.
//     Metrics values are updated with atomics only; they are safe for
//     concurrent use from any number of goroutines.
//
// Consumers observe the layer three ways: EXPLAIN-style rendered traces
// (Trace.Render), snapshot scraping (Metrics.Snapshot, name-keyed, with
// the one renderer Snapshot.Render), and structured hooks (Trace.Hook, a
// func(StageEvent) invoked as each stage closes).
package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage identifies one pipeline stage, in pipeline order.
type Stage int

// The pipeline stages. Lex through Serialize are the translator's
// (§3.4.1); Evaluate is the engine's; Decode is the result-set
// materialization of §4; Compile is the post-translation static check +
// plan construction that turns a translation into an executable
// CompiledQuery (the internal/qcache boundary).
const (
	StageLex Stage = iota
	StageParse
	StageValidate
	StageRestructure
	StageGenerate
	StageSerialize
	StageEvaluate
	StageDecode
	StageCompile
	NumStages // count sentinel, not a stage
)

var stageNames = [NumStages]string{
	"lex",
	"parse",
	"semantic-validate",
	"restructure",
	"generate",
	"serialize",
	"evaluate",
	"decode",
	"compile",
}

// String returns the stage's wire name (stable: golden tests and the
// bench JSON schema depend on these).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Detail is one stage-specific counter, e.g. {"wildcards", 4}.
type Detail struct {
	Key   string
	Value int64
}

// StageEvent is the completed record of one stage — what hooks receive
// and what a Trace accumulates.
type StageEvent struct {
	Stage    Stage
	Duration time.Duration
	// InSize and OutSize are stage input/output sizes in natural units
	// (bytes for lex/serialize, tokens for parse, rows for evaluate …);
	// zero when not meaningful.
	InSize  int
	OutSize int
	Detail  []Detail
}

// DetailValue returns the named detail counter (0 if absent).
func (ev StageEvent) DetailValue(key string) int64 {
	for _, d := range ev.Detail {
		if d.Key == key {
			return d.Value
		}
	}
	return 0
}

// Trace records the stage spans of one query's trip through the pipeline.
// All methods are safe on a nil receiver (no-ops), so pipeline code can
// thread a *Trace without nil checks. A non-nil Trace is safe for use
// from one goroutine at a time per span, which matches the pipeline: the
// stages of one query run sequentially.
type Trace struct {
	// SQL is the traced statement (for rendering).
	SQL string
	// Hook, when set, is invoked synchronously with each completed
	// StageEvent — the structured-observation surface the bench harness
	// and the driver's per-connection metrics use.
	Hook func(StageEvent)

	mu     sync.Mutex
	stages []StageEvent
}

// NewTrace starts an empty trace for a statement.
func NewTrace(sql string) *Trace { return &Trace{SQL: sql} }

// Span is an open stage measurement; End closes it into the trace.
// A nil *Span (from a nil Trace) ignores all calls.
type Span struct {
	t      *Trace
	stage  Stage
	start  time.Time
	in     int
	out    int
	detail []Detail
}

// StartStage opens a span for a stage. On a nil Trace it returns a nil
// Span, which is itself a no-op.
func (t *Trace) StartStage(s Stage) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, stage: s, start: time.Now()}
}

// SetInput records the stage's input size.
func (sp *Span) SetInput(n int) {
	if sp != nil {
		sp.in = n
	}
}

// SetOutput records the stage's output size.
func (sp *Span) SetOutput(n int) {
	if sp != nil {
		sp.out = n
	}
}

// Add records (or accumulates into) a stage-specific detail counter.
func (sp *Span) Add(key string, v int64) {
	if sp == nil {
		return
	}
	for i := range sp.detail {
		if sp.detail[i].Key == key {
			sp.detail[i].Value += v
			return
		}
	}
	sp.detail = append(sp.detail, Detail{Key: key, Value: v})
}

// End closes the span, appending its StageEvent to the trace and firing
// the trace hook.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	ev := StageEvent{
		Stage:    sp.stage,
		Duration: time.Since(sp.start),
		InSize:   sp.in,
		OutSize:  sp.out,
		Detail:   sp.detail,
	}
	sp.t.mu.Lock()
	sp.t.stages = append(sp.t.stages, ev)
	hook := sp.t.Hook
	sp.t.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// Record appends an externally measured stage event (used when a stage is
// timed by code that cannot hold a Span, e.g. accumulated sub-steps).
func (t *Trace) Record(ev StageEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, ev)
	hook := t.Hook
	t.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// Stages returns the recorded events in completion order.
func (t *Trace) Stages() []StageEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageEvent, len(t.stages))
	copy(out, t.stages)
	return out
}

// Stage returns the first recorded event for a stage (zero event, false
// if the stage never ran).
func (t *Trace) Stage(s Stage) (StageEvent, bool) {
	for _, ev := range t.Stages() {
		if ev.Stage == s {
			return ev, true
		}
	}
	return StageEvent{}, false
}

// Total sums the recorded stage durations.
func (t *Trace) Total() time.Duration {
	var d time.Duration
	for _, ev := range t.Stages() {
		d += ev.Duration
	}
	return d
}

// Render writes the trace as the fixed-width stage table EXPLAIN and the
// CLIs print. withDurations=false replaces times with "-" (golden tests
// normalize this way; EXPLAIN output is normalized by regex instead).
func (t *Trace) Render(w io.Writer, withDurations bool) {
	events := t.Stages()
	fmt.Fprintf(w, "%-18s %-10s %-8s %-8s %s\n", "stage", "time", "in", "out", "detail")
	for _, ev := range events {
		dur := "-"
		if withDurations {
			dur = ev.Duration.Round(100 * time.Nanosecond).String()
		}
		fmt.Fprintf(w, "%-18s %-10s %-8s %-8s %s\n",
			ev.Stage, dur, sizeCell(ev.InSize), sizeCell(ev.OutSize), renderDetail(ev.Detail))
	}
	if withDurations {
		fmt.Fprintf(w, "total: %s\n", t.Total().Round(100*time.Nanosecond))
	}
}

// RenderString is Render into a string.
func (t *Trace) RenderString(withDurations bool) string {
	var b strings.Builder
	t.Render(&b, withDurations)
	return b.String()
}

func sizeCell(n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", n)
}

func renderDetail(details []Detail) string {
	if len(details) == 0 {
		return "-"
	}
	parts := make([]string, len(details))
	for i, d := range details {
		parts[i] = fmt.Sprintf("%s=%d", d.Key, d.Value)
	}
	return strings.Join(parts, " ")
}

// MergeStageNanos folds a trace's durations into a per-stage-name
// nanosecond map — the accumulation shape the bench harness writes to
// JSON.
func (t *Trace) MergeStageNanos(into map[string]int64) {
	for _, ev := range t.Stages() {
		into[ev.Stage.String()] += ev.Duration.Nanoseconds()
	}
}

// SortedKeys returns a detail/stage map's keys sorted (stable JSON and
// rendering order for aggregated maps).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
