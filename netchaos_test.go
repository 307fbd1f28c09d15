// Differential soak for the network-level chaos proxy: the full remote
// stack — resilient client, real HTTP, real TCP — speaks to a real
// server through a netchaos proxy injecting resets, slow links, black
// holes, and mid-response truncation underneath HTTP. The contract under
// that abuse is absolute: every query either delivers rows
// byte-identical to the in-process oracle, or fails with a typed error —
// never a silently short, doubled, or reordered result. Runs under -race
// via the soak CI target.
package aqualogic

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/netchaos"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

func TestNetChaosDifferential(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := Demo()

	// Fault-free oracle: every (statement, mode) result, rendered
	// canonically.
	type key struct {
		sql  string
		mode ResultMode
	}
	modes := []ResultMode{ModeText, ModeXML}
	oracle := make(map[key]string)
	for _, sql := range chaosCorpus() {
		for _, mode := range modes {
			rows, err := p.QueryDialect(context.Background(), DialectSQL, mode, sql, chaosArgs(strings.Count(sql, "?"))...)
			if err != nil {
				t.Fatalf("oracle %q: %v", sql, err)
			}
			if oracle[key{sql, mode}], err = drain(rows); err != nil {
				t.Fatalf("oracle %q: %v", sql, err)
			}
		}
	}

	// Real server on a real socket; the chaos proxy in front of it.
	srv := server.New(p, server.Config{FetchRows: 3, SessionIdleTimeout: time.Minute})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = hs.Serve(ln)
	}()

	inj := faultnet.New(faultnet.Config{
		Seed:         41,
		Rate:         0.06,
		Latency:      300 * time.Microsecond,
		StallTimeout: 25 * time.Millisecond, // black holes resolve fast in-test
	})
	px, err := netchaos.New(netchaos.Config{Target: ln.Addr().String(), Faults: inj, ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	iters := 3
	if testing.Short() {
		iters = 1
	}
	var attempts, failures, successes int
	for round := 0; round < iters; round++ {
		c, err := remoteclient.DialOptions("http://"+px.Addr(), remoteclient.Options{
			MaxRetries:  4,
			BaseBackoff: time.Millisecond,
			// The soak wants retried successes, not fast-fails: the wire
			// really is flaky here, so the breaker must tolerate a burst.
			BreakerThreshold: 1000,
		})
		if err != nil {
			if !typedFailure(err) {
				t.Fatalf("dial through chaos failed untyped: %v", err)
			}
			failures++
			continue
		}
		for _, sql := range chaosCorpus() {
			for _, mode := range modes {
				attempts++
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				rows, err := c.QueryDialect(ctx, "", mode, sql, chaosArgs(strings.Count(sql, "?"))...)
				var got string
				if err == nil {
					got, err = marshalStreamed(rows)
					rows.Close()
				}
				cancel()
				if err != nil {
					failures++
					if !typedFailure(err) {
						t.Fatalf("%q: untyped failure through net chaos: %v", sql, err)
					}
					continue
				}
				successes++
				if want := oracle[key{sql, mode}]; got != want {
					t.Fatalf("%q (%v): success through net chaos diverged from oracle\ngot:  %s\nwant: %s",
						sql, mode, got, want)
				}
			}
		}
		_ = c.Close() // may itself be severed; the server reaps the session
	}
	if successes == 0 {
		t.Fatalf("no query survived the chaos net across %d attempts — defenses dead", attempts)
	}
	var injected int64
	for _, site := range inj.Report() {
		if strings.HasPrefix(site.Name, "net/") {
			injected += site.Total()
		}
	}
	if injected == 0 {
		t.Fatalf("proxy injected nothing across %d attempts — schedule dead", attempts)
	}
	t.Logf("net chaos: %d attempts, %d successes, %d typed failures, %d net faults injected, %d conns severed",
		attempts, successes, failures, injected, px.Severed())

	// Heal the wire and prove the same client path is fully alive.
	inj.SetRate(0)
	c, err := remoteclient.Dial("http://" + px.Addr())
	if err != nil {
		t.Fatalf("post-chaos dial: %v", err)
	}
	sql := "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS"
	rows, err := c.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("post-chaos query: %v", err)
	}
	got, err := marshalStreamed(rows)
	rows.Close()
	if err != nil || got != oracle[key{sql, ModeText}] {
		t.Fatalf("post-chaos rows diverged (err=%v)", err)
	}
	_ = c.Close()

	// Full teardown must leak nothing: proxy first (severing pooled
	// keep-alive conns), then the HTTP server.
	if err := px.Close(); err != nil {
		t.Fatalf("proxy close: %v", err)
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	<-serveDone
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
