# Developer entry points; CI runs the same steps (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race bench bench-serve bench-admit crash-smoke serve fmt vet check clean integration experiments-smoke perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Engine + GN2 analysis benchmarks, results archived under bench-results/
# (uploaded as a CI workflow artifact — the BENCH_*.json trajectory for
# future perf PRs). BENCH_core.json tracks the numeric-layer kernels:
# the production fast path next to its frozen big.Rat reference build
# (internal/core/bigref) plus the internal/rat and internal/interval
# micro-benchmarks, so the speedup and allocation reduction are
# re-measured on every archive. The GN2/GN1/DP patterns also match the
# *Screened variants (interval pre-filter on, the serving default) next
# to the screen-off baselines. BenchmarkCold is the served analyze-cold
# mix in-process (any-nf Analyze and Decide), run for one pass over its
# 512 sets. Each result records the GOMAXPROCS it ran at.
# `make bench-all` runs every benchmark in the repo.
bench:
	mkdir -p bench-results
	$(GO) test -bench 'BenchmarkAnalyze' -benchtime 100x -run XXX ./internal/engine/ | tee bench-results/BENCH_engine.txt
	$(GO) test -bench 'BenchmarkTable|BenchmarkAnalysisScaling|BenchmarkCompositeVsSingle' -benchtime 100x -run XXX . | tee bench-results/BENCH_gn2.txt
	$(GO) test -bench 'BenchmarkGN2Sweep|BenchmarkGN2xSweep|BenchmarkGN1|BenchmarkDP' -benchtime 10x -run XXX ./internal/core/ | tee bench-results/BENCH_core.txt
	$(GO) test -bench 'BenchmarkCold' -benchtime 512x -run XXX ./internal/core/ | tee -a bench-results/BENCH_core.txt
	$(GO) test -bench 'BenchmarkRat' -run XXX ./internal/rat/ | tee -a bench-results/BENCH_core.txt
	$(GO) test -bench 'BenchmarkInterval' -run XXX ./internal/interval/ | tee -a bench-results/BENCH_core.txt
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_engine.txt -out bench-results/BENCH_engine.json
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_gn2.txt -out bench-results/BENCH_gn2.json
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_core.txt -out bench-results/BENCH_core.json

bench-all:
	$(GO) test -bench . -benchtime 100x -run XXX ./...

# Serving-path load benchmark: cmd/loadgen replays a deterministic mixed
# analyze/admit/stream workload against a 1-node and a 2-node in-process
# fleet (HTTP + routing + cache sharding, not just the engine), and the
# throughput + p50/p95/p99 numbers join the BENCH_*.json trajectory.
# The wal=* runs replay the same admit-heavy stream with the durable
# store off, fsync-per-append and interval-flushed, so the WAL's cost on
# admission p99 is re-measured (and the always-vs-interval comparison
# reproducible) on every archive.
bench-serve:
	mkdir -p bench-results
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -label fleet=1 | tee bench-results/BENCH_serve.txt
	$(GO) run ./cmd/loadgen -inprocess 2 -requests 400 -seed 1 -label fleet=2 | tee -a bench-results/BENCH_serve.txt
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -label wal=off | tee -a bench-results/BENCH_serve.txt
	waldir=$$(mktemp -d) && \
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -state-dir $$waldir/always -fsync always -label wal=always | tee -a bench-results/BENCH_serve.txt && \
	$(GO) run ./cmd/loadgen -inprocess 1 -requests 400 -seed 1 -mix admit-heavy -state-dir $$waldir/interval -fsync interval -label wal=interval | tee -a bench-results/BENCH_serve.txt && \
	rm -rf $$waldir
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_serve.txt -out bench-results/BENCH_serve.json

# Admission-path benchmark: one warm admit+release round trip against a
# GN2 controller, incremental (persistent sweep state) vs scratch (full
# re-analysis, the pre-incremental behavior), on paper-sized (10-task
# Figure-3b profile) and 100/200-task resident sets, with and without a
# durable-store append per mutation. The from-scratch serving baseline
# is the wal=* admit-heavy series in BENCH_serve.json. BenchmarkAdmitChurn
# is perfbench's admit-churn write path in process (DP/GN1/GN2, 30
# residents), reporting rejected and admitted Request latency apart.
# BenchmarkAdmitResponseCodec and BenchmarkAnalyzeCodec time the admit
# and analyze wire codecs against reflective encoding/json.
bench-admit:
	mkdir -p bench-results
	$(GO) test -bench 'BenchmarkAdmitRelease' -benchtime 200x -run XXX ./internal/admission/ | tee bench-results/BENCH_admit.txt
	$(GO) test -bench 'BenchmarkAdmitChurn' -benchtime 2000x -run XXX ./internal/admission/ | tee -a bench-results/BENCH_admit.txt
	$(GO) test -bench 'BenchmarkAdmitResponseCodec|BenchmarkAnalyzeCodec' -benchtime 2000x -run XXX ./api/ | tee -a bench-results/BENCH_admit.txt
	$(GO) run ./cmd/benchjson -in bench-results/BENCH_admit.txt -out bench-results/BENCH_admit.json

crash-smoke: ## live-daemon kill -9 + WAL replay smoke, archives BENCH_recovery.json
	bash scripts/crash_recovery_smoke.sh

serve: ## run the analysis daemon on :8080
	$(GO) run ./cmd/fpgaschedd -addr :8080

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

integration: ## api golden-file wire tests + client<->server end-to-end
	$(GO) test ./api/ ./client/ -count=1
	$(GO) build ./examples/...

# perfbench is a nested module (replace fpgasched => ../), so the root
# ./... patterns never build it; vet and test it on its own.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

experiments-smoke: ## quick local evaluation pass + local/remote parity
	$(GO) run ./cmd/experiments -samples 10 fig3b
	$(GO) test ./cmd/experiments/ -run TestRemoteParity -count=1

check: vet build race integration perfbench-check
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	$(GO) test ./internal/server/ -run TestWarmSpeedup -count=1

clean:
	$(GO) clean ./...
