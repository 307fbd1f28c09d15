package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/qcache"
)

// layers are the modules the work share is split over, in print order.
var layers = []string{"remoteclient", "driver", "server", "qcache", "sqlparser", "translator", "catalog", "xqeval", "resultset"}

// traceRun is everything a traced phase leaves behind.
type traceRun struct {
	tracers    []*tracer
	obs        traceObs
	ph         *phase // every other op traced
	qc0, qc1   qcache.Stats
	md0, md1   catalog.CacheStats
	queuePeak  int64
	admRejects int64
}

// perOp gathers the spans of one client op.
type perOp struct {
	remoteSelf  int64 // client round trip minus server handler spans
	serverSelf  int64 // handler spans minus backend calls
	hasServer   bool
	latency     int64 // the client-observed latency: the op's root span
	backend     int64 // backend calls the server made for the op
	replayWork  int64 // in-process work the replay measured
	eval        int64
	remote, drv bool
}

// perLayer turns the traced phase into the per-layer metrics, the lines
// that explain them, and the number of fidelity violations found.
func perLayer(tr *traceRun) (map[string]metric, []string, int) {
	durs := map[string][]float64{} // per-call figures in µs, by metric name
	shareNs := map[string]int64{}
	ops := map[int64]*perOp{}
	var fetchBytes, fetches, decodeSelf, decodeRows int64
	// Replay timing against the served op, over the replayed ops.
	var replaySum, latencySum, backendSum int64
	var overLatency int
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	for _, t := range tr.tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.dur()
			}
		}
		for i, s := range t.spans {
			op := ops[s.Op]
			if op == nil {
				op = &perOp{}
				ops[s.Op] = op
			}
			self := s.dur() - child[i]
			layer, verb, _ := strings.Cut(s.Name, ".")
			switch {
			case s.Parent < 0 && layer == "remoteclient":
				op.remote = true
				op.latency = s.dur()
				op.remoteSelf = self
				shareNs[layer] += self
			case s.Parent < 0 && layer == "driver":
				op.drv = true
				op.latency = s.dur()
			case s.Name == "replay":
				op.replayWork = child[i]
			case layer == "backend", layer == "driver":
				// Opaque in-process calls: the replay measures what they contain.
				if layer == "backend" {
					op.backend += s.dur()
				} else {
					durs[s.Name+"_us"] = append(durs[s.Name+"_us"], us(s.dur()))
				}
			case layer == "server":
				durs[s.Name+"_us"] = append(durs[s.Name+"_us"], us(s.dur()))
				op.serverSelf += self
				op.hasServer = true
				shareNs[layer] += self
				if verb == "fetch" {
					fetches++
					fetchBytes += s.Attr
				}
			default:
				shareNs[layer] += self
				switch s.Name {
				case "qcache.get":
					if s.Attr == 1 {
						durs["qcache.hit_us"] = append(durs["qcache.hit_us"], us(s.dur()))
					} else {
						durs["qcache.miss_us"] = append(durs["qcache.miss_us"], us(s.dur()))
					}
				case "translator.translate":
					durs["translator.translate_us"] = append(durs["translator.translate_us"], us(self))
				case "resultset.decode":
					decodeSelf += self
					decodeRows += s.Attr
				case "xqeval.eval":
					op.eval += s.dur()
				default:
					durs[s.Name+"_us"] = append(durs[s.Name+"_us"], us(s.dur()))
				}
			}
		}
	}

	var clientSelf, serverSelf, evals []float64
	for _, op := range ops {
		if op.remote {
			clientSelf = append(clientSelf, us(op.remoteSelf))
		}
		if op.hasServer {
			serverSelf = append(serverSelf, us(op.serverSelf))
		}
		if op.drv {
			// database/sql and driver work: the op minus the in-process
			// work its replay measured. Not clamped at 0: the replay is a
			// second execution, and an op it outlasts counts against the
			// driver's share rather than vanishing from it.
			shareNs["driver"] += op.latency - op.replayWork
		}
		if op.replayWork > 0 {
			evals = append(evals, us(op.eval))
			replaySum += op.replayWork
			latencySum += op.latency
			backendSum += op.backend
			if op.replayWork > op.latency {
				overLatency++
			}
		}
	}

	m := map[string]metric{}
	med := func(name string) float64 { return median(durs[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Span figures cover the traced ops; the platform's cache counters
	// cover every statement of the phase.
	stmtOps := float64(tr.obs.replayed)
	var rowsOut, phaseStmts float64
	for _, s := range tr.ph.samples {
		if s.traced {
			rowsOut += float64(s.rows)
		}
		if s.ttfr >= 0 || s.failed {
			phaseStmts++
		}
	}

	m["remoteclient.client_us"] = metric{median(clientSelf), "us"}
	for _, v := range []string{"prepare", "execute", "fetch", "lookup"} {
		m["server."+v+"_us"] = metric{med("server." + v + "_us"), "us"}
	}
	m["server.self_us"] = metric{median(serverSelf), "us"}
	m["server.queue_peak"] = metric{float64(tr.queuePeak), "count"}
	m["server.admission_rejected"] = metric{float64(tr.admRejects), "count"}
	if fetches == 0 {
		rowsOut = 0 // rows that did not cross the wire
	}
	m["wire.bytes_per_row"] = metric{ratio(float64(fetchBytes), rowsOut), "B/row"}
	m["wire.fetches_per_op"] = metric{ratio(float64(fetches), stmtOps), "count"}
	m["driver.query_us"] = metric{med("driver.query_us"), "us"}
	m["driver.next_us"] = metric{med("driver.next_us"), "us"}

	q0, q1 := tr.qc0, tr.qc1
	gets := float64((q1.Hits + q1.Misses + q1.Shared) - (q0.Hits + q0.Misses + q0.Shared))
	m["qcache.hit_ratio"] = metric{ratio(float64(q1.Hits+q1.Shared-q0.Hits-q0.Shared), gets), "ratio"}
	m["qcache.evictions_per_op"] = metric{ratio(float64(q1.Evictions-q0.Evictions), phaseStmts), "count"}
	m["qcache.gets_per_op"] = metric{ratio(gets, phaseStmts), "count"}
	m["qcache.hit_us"] = metric{med("qcache.hit_us"), "us"}
	m["qcache.miss_us"] = metric{med("qcache.miss_us"), "us"}
	m["sqlparser.normalize_us"] = metric{med("sqlparser.normalize_us"), "us"}
	m["sqlparser.parse_us"] = metric{med("sqlparser.parse_us"), "us"}
	m["translator.translate_us"] = metric{med("translator.translate_us"), "us"}
	m["translator.xquery_bytes"] = metric{ratio(float64(tr.obs.xqueryBytes), float64(tr.obs.compiled)), "B"}
	m["catalog.lookup_us"] = metric{med("catalog.lookup_us"), "us"}
	d0, d1 := tr.md0, tr.md1
	lookups := float64((d1.Hits + d1.Misses + d1.Shared) - (d0.Hits + d0.Misses + d0.Shared))
	m["catalog.hit_ratio"] = metric{ratio(float64(d1.Hits+d1.Shared-d0.Hits-d0.Shared), lookups), "ratio"}
	m["xqeval.plan_us"] = metric{med("xqeval.plan_us"), "us"}
	m["xqeval.prime_us"] = metric{med("xqeval.prime_us"), "us"}
	m["xqeval.eval_us"] = metric{median(evals), "us"}
	m["xqeval.tuples_per_op"] = metric{ratio(float64(tr.obs.tuples), stmtOps), "count"}
	m["xqeval.steps_per_op"] = metric{ratio(float64(tr.obs.steps), stmtOps), "count"}
	m["resultset.decode_ns_per_row"] = metric{ratio(float64(decodeSelf), float64(decodeRows)), "ns"}
	m["runtime.gc_cpu_frac"] = metric{tr.ph.gcCPU, "ratio"}
	var plain, traced []sample
	for _, s := range tr.ph.samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	baseP50, tracedP50 := quantile(latencies(plain, ""), 0.5), quantile(latencies(traced, ""), 0.5)
	m["trace.overhead_frac"] = metric{ratio(tracedP50, baseP50) - 1, "ratio"}

	var total int64
	for _, l := range layers {
		total += shareNs[l]
	}
	shares := make([]string, 0, len(layers))
	for _, l := range layers {
		f := ratio(float64(shareNs[l]), float64(total))
		m["share."+l] = metric{f, "ratio"}
		shares = append(shares, fmt.Sprintf("%s %.1f%%", l, 100*f))
	}

	notes := []string{
		"work share (self time by layer): " + strings.Join(shares, ", "),
		fmt.Sprintf("tracing overhead: served p50 %.4f ms traced vs %.4f ms untraced (%+.1f%%)", tracedP50, baseP50, 100*(ratio(tracedP50, baseP50)-1)),
		fmt.Sprintf("fidelity: %d statements replayed, %d replay digests differ from the served digest, %d row-aligned streams decoded out of step",
			tr.obs.replayed, tr.obs.replayMismatches, tr.obs.misaligned),
		// The served spans of an op nest on the lane's goroutine, so they
		// always fit inside the client latency. The replay runs after the
		// op and re-executes its in-process work, so its time is an
		// estimate: it is shown against what it explains, not gated.
		fmt.Sprintf("replay timing (not gated): replay work is %.3f of the client latency summed over the replayed ops (%d of %d ops alone exceed it) and %s of the backend calls the server made for them",
			ratio(float64(replaySum), float64(latencySum)), overLatency, tr.obs.replayed, backendShare(replaySum, backendSum)),
	}
	if tr.obs.firstErr != "" {
		notes = append(notes, "first replay mismatch: "+tr.obs.firstErr)
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		notes = append(notes, fmt.Sprintf("span %s: n=%d median %.2f us", n, len(durs[n]), median(durs[n])))
	}
	return m, notes, int(tr.obs.replayMismatches + tr.obs.misaligned)
}

func backendShare(replay, backend int64) string {
	if backend == 0 {
		return "n/a (no wire)"
	}
	return fmt.Sprintf("%.3f", float64(replay)/float64(backend))
}
