package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sample is one completed client op.
type sample struct {
	class    string
	done     time.Duration // completion time, from the start of the phase
	lat      time.Duration
	ttfr     time.Duration // -1 for the metadata browse
	rows     int64
	failed   bool
	mismatch bool
	traced   bool
}

// phase is one closed-loop measurement: every lane sends its next
// statement as soon as the previous one has completed, until the deadline.
type phase struct {
	samples    []sample
	elapsed    time.Duration
	allocBytes uint64
	gcCPU      float64 // share of the process's busy CPU time spent in GC
	firstErr   string
}

func (ph *phase) ops() int { return len(ph.samples) }

func (ph *phase) failures() int {
	n := 0
	for _, s := range ph.samples {
		if s.failed || s.mismatch {
			n++
		}
	}
	return n
}

// runPhase drives lanes for d, each drawing statements from its stream.
func runPhase(lanes []client, streams []func() stmt, d time.Duration) *phase {
	per := make([][]sample, len(lanes))
	errs := make([]string, len(lanes))
	for i := range per {
		per[i] = make([]sample, 0, 1<<15)
	}
	ctx := context.Background()
	runtime.GC()
	cpu0 := readCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := streams[i]()
				out := lanes[i].run(ctx, s)
				smp := sample{class: s.class, done: time.Since(start), lat: out.lat, ttfr: out.ttfr, rows: out.rows, failed: out.err != nil, traced: out.traced}
				smp.mismatch = !smp.failed && out.got != s.want
				if errs[i] == "" && (smp.failed || smp.mismatch) {
					if smp.failed {
						errs[i] = fmt.Sprintf("%s: %v", s.class, out.err)
					} else {
						errs[i] = fmt.Sprintf("%s %q %v: %d rows, oracle expects %d", s.class, s.sql, s.args, out.got.rows, s.want.rows)
					}
				}
				per[i] = append(per[i], smp)
			}
		}(i)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	ph.gcCPU = readCPU().gcShareSince(cpu0)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i := range per {
		ph.samples = append(ph.samples, per[i]...)
		if ph.firstErr == "" {
			ph.firstErr = errs[i]
		}
	}
	sort.Slice(ph.samples, func(a, b int) bool { return ph.samples[a].done < ph.samples[b].done })
	return ph
}

type cpuClasses struct{ gc, total, idle float64 }

var cpuMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readCPU() cpuClasses {
	s := make([]metrics.Sample, len(cpuMetricNames))
	for i, n := range cpuMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return cpuClasses{gc: v(0), total: v(1), idle: v(2)}
}

func (c cpuClasses) gcShareSince(c0 cpuClasses) float64 {
	busy := (c.total - c.idle) - (c0.total - c0.idle)
	if busy <= 0 {
		return 0
	}
	return (c.gc - c0.gc) / busy
}

// latencies returns the sorted latencies in milliseconds of the ops that
// completed without error, optionally of one class only.
func latencies(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed && (class == "" || s.class == class) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// Windows: the machines the benchmark runs on are shared, and other
// tenants' load arrives in bursts. Throughput and the tail are therefore
// taken per window of the phase and reported as the median over windows,
// so a burst that hits one window does not move the run's figure. Each
// window holds about windowOps ops or more, which leaves hundreds of
// samples beyond a window's tail percentile; a run too short for two
// windows is one window.
const (
	maxWindows = 5
	windowOps  = 2000
)

func (ph *phase) windows() [][]sample {
	k := max(1, min(maxWindows, ph.ops()/windowOps))
	out := make([][]sample, k)
	width := ph.elapsed / time.Duration(k)
	for _, s := range ph.samples {
		w := min(k-1, int(s.done/width))
		out[w] = append(out[w], s)
	}
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the gated metrics of an untraced phase, with tail_ms
// at the workload's tail percentile, and the lines that explain them
// (sample counts, the highest percentile the samples support, the
// per-class medians). tailOK is false when fewer than minBeyond samples
// lie beyond the tail percentile; such a run is not correct.
func endToEnd(ph *phase, setup []float64, pct float64) (m map[string]metric, notes []string, tailOK bool) {
	m = map[string]metric{}
	ops := float64(ph.ops())
	lat := latencies(ph.samples, "")
	beyond := len(lat) - rank(pct/100, len(lat))
	tailOK = beyond >= minBeyond
	if !tailOK {
		notes = append(notes, fmt.Sprintf("not correct: %d samples leave %d beyond p%g, fewer than %d", len(lat), beyond, pct, minBeyond))
	}
	if p, b, ok := tailPercentile(len(lat)); ok {
		notes = append(notes, fmt.Sprintf("p%g_ms %.4f ms: the highest percentile with at least %d samples beyond (%d)", p, quantile(lat, p/100), minBeyond, b))
	}
	wins := ph.windows()
	width := ph.elapsed.Seconds() / float64(len(wins))
	var opsW, rowsW, tailW []float64
	for _, w := range wins {
		var rows int64
		for _, s := range w {
			rows += s.rows
		}
		opsW = append(opsW, float64(len(w))/width)
		rowsW = append(rowsW, float64(rows)/width)
		tailW = append(tailW, quantile(latencies(w, ""), pct/100))
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["ops_per_s"] = metric{median(opsW), "1/s"}
	m["rows_per_s"] = metric{median(rowsW), "1/s"}
	m["p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["tail_ms"] = metric{median(tailW), "ms"}
	notes = append(notes, fmt.Sprintf("latency: n=%d; tail_ms is p%g (%d samples beyond it over the run), the median over %d windows", len(lat), pct, beyond, len(wins)))
	notes = append(notes, fmt.Sprintf("windows: ops_per_s %v tail_ms %v", roundAll(opsW), roundAll(tailW)))
	errRate := float64(ph.failures()) / ops
	m["success_rate"] = metric{1 - errRate, "ratio"}
	notes = append(notes, fmt.Sprintf("error_rate %.6f ratio: (failed + oracle-mismatched) / attempted = %d / %d", errRate, ph.failures(), ph.ops()))
	m["alloc_kb_per_op"] = metric{float64(ph.allocBytes) / 1024 / ops, "KiB"}
	var tt []float64
	for _, s := range ph.samples {
		if s.ttfr >= 0 && !s.failed {
			tt = append(tt, float64(s.ttfr)/1e6)
		}
	}
	// Time to first row is printed, not gated: on export it rests on under
	// a hundred ops whose first fetch a collection may or may not overlap
	// (9 to 38 ms within one run), and its median moved with the host's
	// load by up to 47% over five minutes of runs, well past any bound.
	notes = append(notes, fmt.Sprintf("ttfr_ms %.4f ms (n=%d statements; time to the first row, or to the end of an empty result)", median(tt), len(tt)))
	notes = append(notes, fmt.Sprintf("setup_s: median of %d set-ups %v", len(setup), roundAll(setup)))
	for _, c := range ph.classes() {
		l := latencies(ph.samples, c)
		p, b, ok := tailPercentile(len(l))
		tail := "no tail percentile"
		if ok {
			tail = fmt.Sprintf("p%g %.4f ms with %d beyond", p, quantile(l, p/100), b)
		}
		notes = append(notes, fmt.Sprintf("%s_p50_ms %.4f ms (n=%d; %s)", c, quantile(l, 0.5), len(l), tail))
	}
	return m, notes, tailOK
}

// classes lists the op classes seen, sorted.
func (ph *phase) classes() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range ph.samples {
		if !seen[s.class] {
			seen[s.class] = true
			out = append(out, s.class)
		}
	}
	sort.Strings(out)
	return out
}

func roundAll(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int64(x*1e4+0.5)) / 1e4
	}
	return out
}
