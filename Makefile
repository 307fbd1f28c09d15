GO ?= go
FUZZTIME ?= 10s

.PHONY: ci vet build test race chaos soak federate-smoke fuzz bench bench-smoke serve-smoke perfbench-check loc clean

ci: vet build perfbench-check race chaos soak federate-smoke serve-smoke bench-smoke fuzz

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos soak: the fault-injection net at several fault rates under the
# race detector — zero escaped panics, typed errors only, retried
# successes byte-identical to the fault-free run.
chaos:
	$(GO) test -race -count=1 -run='TestChaos' .

# Network chaos soak: the netchaos TCP proxy unit suite plus the full
# remote stack (resilient client over real HTTP/TCP) under injected
# connection resets, slow links, black holes, and mid-response
# truncation — every query byte-identical to the oracle or a typed
# error, zero leaked goroutines, all under the race detector. Also
# gates the overload-resilience harness and the replay/hedging
# regression net.
soak:
	$(GO) test -race -count=1 ./internal/netchaos/
	$(GO) test -race -count=1 -run='TestNetChaosDifferential|TestShedVsCancel|TestExecuteReplay|TestFetchSeqReplay|TestFetchAgainstRestarted|TestHedgedFetch' .
	$(GO) test -race -count=1 -run='TestOverloadSweepSmall' ./internal/bench/

# Federation smoke: the multi-source mediation stack end-to-end — the
# federated catalog, shard-pinned pushdown, and the per-source stats
# surface — against the single-source oracle.
federate-smoke:
	$(GO) test -race -count=1 -run='TestFederated' .

# Fuzz smoke: run each native fuzz target briefly. Corpus crashers found
# by longer runs land in testdata/fuzz/ and replay as regular tests.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseSelect -fuzztime=$(FUZZTIME) ./internal/sqlparser/
	$(GO) test -run='^$$' -fuzz=FuzzPathFrontend -fuzztime=$(FUZZTIME) ./internal/pathfront/
	$(GO) test -run='^$$' -fuzz=FuzzTranslate -fuzztime=$(FUZZTIME) ./internal/translator/
	$(GO) test -run='^$$' -fuzz=FuzzFaultedEval -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzCompiledDifferential -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzStreamDifferential -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzServeDifferential -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzParallelDifferential -fuzztime=$(FUZZTIME) ./internal/xqeval/
	$(GO) test -run='^$$' -fuzz=FuzzFederatedDifferential -fuzztime=$(FUZZTIME) .

bench:
	$(GO) run ./cmd/benchharness -stagejson BENCH_stages.json -evaljson BENCH_eval.json -faultjson BENCH_faults.json -compilejson BENCH_compile.json -streamjson BENCH_stream.json -servejson BENCH_serve.json -overloadjson BENCH_overload.json -federatejson BENCH_federate.json

# Serve smoke: the network front end end-to-end — loopback and real-TCP
# conformance against the in-process oracle, the wire session-state
# machine, and a clean shutdown with no leaked goroutines.
serve-smoke:
	$(GO) test -count=1 -run='TestServe|TestRowsErr' .

# Benchmark smoke: one iteration of every benchmark, so CI catches
# benchmarks that no longer compile or fail at runtime.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# perfbench is its own module, so the root module's vet and build never
# compile it; this gate catches API changes that break the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Non-test Go lines outside perfbench/ — the size figure every change
# reports next to its net lines removed.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l

clean:
	$(GO) clean -testcache
