package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.StartStage(StageLex)
	sp.SetInput(10)
	sp.SetOutput(20)
	sp.Add("x", 1)
	sp.End() // must not panic
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil trace Stages() = %v, want nil", got)
	}
	if tr.Total() != 0 {
		t.Fatalf("nil trace Total() = %v", tr.Total())
	}
	tr.Record(StageEvent{Stage: StageParse})
}

func TestTraceRecordsStagesInOrder(t *testing.T) {
	tr := NewTrace("SELECT 1")
	var hooked []Stage
	tr.Hook = func(ev StageEvent) { hooked = append(hooked, ev.Stage) }

	for _, s := range []Stage{StageLex, StageParse, StageGenerate} {
		sp := tr.StartStage(s)
		sp.Add("n", int64(s))
		sp.End()
	}
	events := tr.Stages()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	want := []Stage{StageLex, StageParse, StageGenerate}
	for i, ev := range events {
		if ev.Stage != want[i] {
			t.Fatalf("event %d = %v, want %v", i, ev.Stage, want[i])
		}
		if ev.DetailValue("n") != int64(want[i]) {
			t.Fatalf("event %d detail = %d", i, ev.DetailValue("n"))
		}
	}
	if len(hooked) != 3 || hooked[2] != StageGenerate {
		t.Fatalf("hook saw %v", hooked)
	}
}

func TestSpanAddAccumulates(t *testing.T) {
	tr := NewTrace("")
	sp := tr.StartStage(StageRestructure)
	sp.Add("tables", 1)
	sp.Add("tables", 2)
	sp.Add("wildcards", 5)
	sp.End()
	ev := tr.Stages()[0]
	if ev.DetailValue("tables") != 3 || ev.DetailValue("wildcards") != 5 {
		t.Fatalf("detail = %+v", ev.Detail)
	}
	if ev.DetailValue("absent") != 0 {
		t.Fatalf("absent detail should read 0")
	}
}

func TestStageNames(t *testing.T) {
	// Wire names are a stable surface (golden tests, BENCH JSON).
	want := map[Stage]string{
		StageLex:         "lex",
		StageParse:       "parse",
		StageValidate:    "semantic-validate",
		StageRestructure: "restructure",
		StageGenerate:    "generate",
		StageSerialize:   "serialize",
		StageEvaluate:    "evaluate",
		StageDecode:      "decode",
		StageCompile:     "compile",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if !strings.HasPrefix(Stage(99).String(), "stage(") {
		t.Errorf("out-of-range stage renders as %q", Stage(99).String())
	}
}

func TestRenderWithoutDurations(t *testing.T) {
	tr := NewTrace("SELECT 1")
	sp := tr.StartStage(StageLex)
	sp.SetInput(8)
	sp.SetOutput(3)
	sp.End()
	out := tr.RenderString(false)
	if !strings.Contains(out, "lex") || !strings.Contains(out, "8") {
		t.Fatalf("render = %q", out)
	}
	for _, line := range strings.Split(out, "\n")[1:] {
		if strings.Contains(line, "µs") || strings.Contains(line, "ms") {
			t.Fatalf("duration leaked into normalized render: %q", line)
		}
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if m := s.Mean(); m < 500*time.Microsecond || m > 2*time.Millisecond {
		t.Fatalf("mean = %v", m)
	}
	// p50 should land in a small bucket, the max in a big one.
	if q := s.Quantile(0.5); q > 64*time.Microsecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := s.Quantile(1.0); q < 50*time.Millisecond {
		t.Fatalf("p100 = %v", q)
	}
	// The rank rounds up: p99.9 of 100 observations is the maximum.
	if q := s.Quantile(0.999); q < 50*time.Millisecond {
		t.Fatalf("p99.9 = %v", q)
	}
	// Small-count sanity: p99 of 3 observations is the maximum, never
	// below the mean.
	var small Histogram
	small.Observe(2 * time.Microsecond)
	small.Observe(2 * time.Microsecond)
	small.Observe(40 * time.Microsecond)
	ss := small.Snapshot()
	if q := ss.Quantile(0.99); q < ss.Mean() {
		t.Fatalf("p99 %v below mean %v", q, ss.Mean())
	}
}

func TestBucketForRange(t *testing.T) {
	if b := bucketFor(0); b != 0 {
		t.Fatalf("bucketFor(0) = %d", b)
	}
	if b := bucketFor(time.Hour); b != histBuckets-1 {
		t.Fatalf("bucketFor(hour) = %d", b)
	}
	if BucketBound(histBuckets-1) != -1 {
		t.Fatalf("last bucket should be unbounded")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := &Metrics{}
	m.QueriesTranslated.Add(5)
	m.CacheHits.Inc()
	m.CacheMisses.Add(2)
	m.RowsMaterialized.Add(100)
	m.EvalSteps.Add(999)
	m.ObserveStage(StageEvent{Stage: StageParse, Duration: time.Millisecond})
	m.ObserveStage(StageEvent{Stage: StageParse, Duration: 3 * time.Millisecond})

	s := m.Snapshot()
	if s.Get("QueriesTranslated") != 5 || s.Get("CacheHits") != 1 || s.Get("CacheMisses") != 2 ||
		s.Get("RowsMaterialized") != 100 || s.Get("EvalSteps") != 999 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Stages) != 1 || s.Stages[0].Stage != "parse" || s.Stages[0].Count != 2 {
		t.Fatalf("stages = %+v", s.Stages)
	}
	if s.Stages[0].MeanNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("mean = %d", s.Stages[0].MeanNS)
	}

	var b strings.Builder
	s.Render(&b)
	if !strings.Contains(b.String(), "CacheHits=1 CacheMisses=2") {
		t.Fatalf("render = %q", b.String())
	}
}

func TestMetricsConcurrent(t *testing.T) {
	// Exercised under -race: concurrent observation and snapshotting must
	// be safe.
	m := &Metrics{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.QueriesTranslated.Inc()
				m.ObserveStage(StageEvent{Stage: StageEvaluate, Duration: time.Microsecond})
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if m.QueriesTranslated.Load() != 4000 {
		t.Fatalf("count = %d", m.QueriesTranslated.Load())
	}
	if m.StageTime(StageEvaluate).Snapshot().Count != 4000 {
		t.Fatalf("stage count = %d", m.StageTime(StageEvaluate).Snapshot().Count)
	}
}

func TestMergeStageNanosAndSortedKeys(t *testing.T) {
	tr := NewTrace("")
	tr.Record(StageEvent{Stage: StageLex, Duration: 5 * time.Nanosecond})
	tr.Record(StageEvent{Stage: StageParse, Duration: 7 * time.Nanosecond})
	tr.Record(StageEvent{Stage: StageLex, Duration: 3 * time.Nanosecond})
	into := map[string]int64{}
	tr.MergeStageNanos(into)
	if into["lex"] != 8 || into["parse"] != 7 {
		t.Fatalf("merged = %v", into)
	}
	keys := SortedKeys(into)
	if len(keys) != 2 || keys[0] != "lex" || keys[1] != "parse" {
		t.Fatalf("keys = %v", keys)
	}
}
