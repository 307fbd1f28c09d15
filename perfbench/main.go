// Command perfbench is the repository's benchmark. It drives one workload
// closed-loop through the surfaces real clients use — remoteclient over
// the in-process loopback transport of server.Handler(), or database/sql
// over internal/driver — checks every result against an oracle computed
// from the generated rows, and prints the metrics as one JSON line:
//
//	bash perfbench/run.sh --workload reporting --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it traces every other op and prints the per-layer
// metrics, the tracing overhead (traced against untraced ops of the same
// run) and the work share of each layer; the spans go to
// .bench_build/trace-<workload>-<seed>.jsonl. Run it from the repository
// root, where .bench_build/ lives.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
)

// setupRuns is how many times a run builds its stack; setup_s is the
// median, and the last stack built is the one measured.
const setupRuns = 5

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: reporting, adhoc or export")
	seed := flag.Uint64("seed", 1, "seed for the generated rows and the statement stream")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that yields per-layer metrics")
	flag.Parse()
	w := findWorkload(*workloadName)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload reporting|adhoc|export, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	env := collectEnv(seed)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	fmt.Printf("workload %s (%d client lanes): %s\n", w.name, w.lanes, w.why)

	var setups []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = build(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if traced {
			break // setup_s is not reported by the traced run
		}
	}
	defer st.close()
	streams := make([]func() stmt, w.lanes)
	for i := range streams {
		streams[i] = w.stream(st.oracle, seed, i)
	}

	if !traced {
		ph := runPhase(st.lanes, streams, d)
		m, notes, tailOK := endToEnd(ph, setups, w.tailPct)
		printNotes(notes, ph.firstErr)
		return &result{Correct: ph.failures() == 0 && tailOK, Attempted: ph.ops(), Failed: ph.failures(), Metrics: m}, nil
	}

	tr, err := runTraced(st, streams, d)
	if err != nil {
		return nil, err
	}
	m, notes, violations := perLayer(tr)
	printNotes(notes, tr.ph.firstErr)
	if err := writeSpans(w.name, env, tr.tracers); err != nil {
		return nil, err
	}
	return &result{Correct: tr.ph.failures() == 0 && violations == 0, Attempted: tr.ph.ops(), Failed: tr.ph.failures(), Metrics: m}, nil
}

// alternating sends every other op through the traced client, so traced
// and untraced ops share the phase, the heap and the machine's state, and
// their latencies compare as the tracing overhead. Untraced ops are
// replayed too, with nothing recorded, so both kinds leave the same
// garbage behind for the op after them.
type alternating struct {
	plain, traced client
	rp            *replayer
	n             int
}

func (a *alternating) close() {}

func (a *alternating) run(ctx context.Context, s stmt) outcome {
	a.n++
	if a.n%2 == 1 {
		out := a.traced.run(ctx, s)
		out.traced = true
		return out
	}
	out := a.plain.run(ctx, s)
	if s.sql != "" && out.err == nil {
		a.rp.run(ctx, &tracer{}, s)
	}
	return out
}

func printNotes(notes []string, firstErr string) {
	for _, n := range notes {
		fmt.Println(n)
	}
	if firstErr != "" {
		fmt.Println("first failure: " + firstErr)
	}
}

// runTraced gives every lane its own tracer, and on the wire workloads its
// own server over the shared platform, so every backend call is
// attributed to the op that caused it. It warms the traced lanes with the
// workload's warm-up statements, then measures.
func runTraced(st *stack, streams []func() stmt, d time.Duration) (*traceRun, error) {
	rp, err := newReplayer(st.p)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	tr := &traceRun{}
	var lanes []client
	var servers []*server.Server
	var obs []*traceObs
	defer func() {
		for _, c := range lanes {
			c.close()
		}
		for _, s := range servers {
			s.Close()
		}
	}()
	for range st.lanes {
		t := &tracer{epoch: epoch}
		tc := &tracedClient{t: t, rp: rp, obs: &traceObs{}}
		if st.w.driver {
			tc.inner, tc.layer = &driverClient{db: st.db, t: t}, "driver"
		} else {
			srv := server.New(&tracedBackend{p: st.p, t: t, meta: &tracedSource{inner: st.p.Metadata(), t: t}}, server.Config{})
			servers = append(servers, srv)
			rc, err := newRemoteClient(&tracedHandler{h: srv.Handler(), t: t}, st.w.prepared)
			if err != nil {
				return nil, err
			}
			tc.inner, tc.layer = rc, "remoteclient"
		}
		lanes = append(lanes, tc)
		tr.tracers = append(tr.tracers, t)
		obs = append(obs, tc.obs)
	}
	for _, c := range lanes {
		tc := c.(*tracedClient)
		for _, s := range st.w.warmup(st.oracle, st.seed) {
			tc.run(context.Background(), s)
		}
		tc.t.spans = tc.t.spans[:0]
		*tc.obs = traceObs{}
		// Prepare again inside a traced op, so server.prepare has spans.
		if rc, ok := tc.inner.(*remoteClient); ok && len(st.w.prepared) > 0 {
			tc.t.op = opIDs.Add(1)
			root := tc.t.begin("remoteclient.prepare")
			err := rc.prepare(st.w.prepared)
			tc.t.end(root)
			tc.t.op = 0
			if err != nil {
				return nil, err
			}
		}
	}

	mixed := make([]client, len(lanes))
	for i, c := range lanes {
		mixed[i] = &alternating{plain: st.lanes[i], traced: c, rp: rp}
	}
	tr.qc0, tr.md0 = st.p.CompileStats(), st.p.MetadataStats()
	tr.ph = runPhase(mixed, streams, d)
	tr.qc1, tr.md1 = st.p.CompileStats(), st.p.MetadataStats()
	for _, o := range obs {
		tr.obs.replayed += o.replayed
		tr.obs.replayMismatches += o.replayMismatches
		tr.obs.misaligned += o.misaligned
		tr.obs.steps += o.steps
		tr.obs.tuples += o.tuples
		tr.obs.xqueryBytes += o.xqueryBytes
		tr.obs.compiled += o.compiled
		if tr.obs.firstErr == "" {
			tr.obs.firstErr = o.firstErr
		}
	}
	if st.srv != nil {
		servers = append(servers, st.srv)
	}
	for _, s := range servers {
		ss := s.Stats()
		tr.queuePeak = max(tr.queuePeak, ss.QueuePeak)
		tr.admRejects += ss.AdmissionRejected
	}
	return tr, nil
}

// writeSpans writes every span of the traced phase, one JSON object a
// line, after a line holding the environment block.
func writeSpans(workload string, env environment, tracers []*tracer) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, env.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	for lane, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Lane int `json:"lane"`
				span
			}{lane, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return nil
}
