GO ?= go

.PHONY: build vet test race fuzz bench bench-diff check docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs the traceparent and job-store-load fuzz targets for a
# minute each, for longer local runs than the committed corpus replay
# that `go test` does; not part of check.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 60s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzJobStoreLoad -fuzztime 60s ./internal/serve

# bench runs the micro benchmarks only (the figure benchmarks regenerate
# the whole evaluation and are slow); use `go test -bench .` for all.
# It also refreshes BENCH_parallel.json, the committed worker-scaling
# baseline (speedup at 4/8 workers is bounded by the cores available),
# and BENCH_serve.json, the cold-vs-warm serving baseline (the warm row
# must stay >= 2x faster than cold), and BENCH_traced.json, the
# request-tracing overhead baseline (traced must stay <= 1.5x untraced),
# and BENCH_index.json, the quadratic-vs-LSH-indexed DRG-construction
# baseline (indexed must stay >= 5x faster at 256 tables), and
# BENCH_cluster.json, the coordinator/worker throughput baseline (the
# 2-worker row must reach >= 1.5x jobs/sec on multi-core hosts; on one
# core the ratio is core-bound near 1x), and BENCH_federation.json, the
# federated-scrape overhead baseline (one coordinator /v1/cluster/metrics
# scrape, idle vs under a running workload; the loaded row must stay
# under 1s per scrape), and BENCH_columnar.json, the columnar cold-open
# baseline (packed .afc files vs CSV at 64/256 tables; the columnar row
# must stay >= 3x faster at 256 tables).
bench:
	$(GO) test -run xxx -bench 'BenchmarkMicro' -benchmem .
	AUTOFEAT_BENCH_OUT=BENCH_parallel.json $(GO) test -run TestWriteParallelBench -v .
	AUTOFEAT_SERVE_BENCH_OUT=BENCH_serve.json $(GO) test -run TestWriteServeBench -v .
	AUTOFEAT_TRACED_BENCH_OUT=BENCH_traced.json $(GO) test -run TestWriteTracedBench -v .
	AUTOFEAT_INDEX_BENCH_OUT=BENCH_index.json $(GO) test -run TestWriteIndexBench -v .
	AUTOFEAT_CLUSTER_BENCH_OUT=BENCH_cluster.json $(GO) test -run TestWriteClusterBench -v .
	AUTOFEAT_FEDERATION_BENCH_OUT=BENCH_federation.json $(GO) test -run TestWriteFederationBench -v .
	AUTOFEAT_COLUMNAR_BENCH_OUT=BENCH_columnar.json $(GO) test -run TestWriteColumnarBench -v .

# bench-diff regenerates candidate baselines and diffs them against the
# committed BENCH_parallel.json and BENCH_serve.json; the exit code fails
# the make on a >5% wall-clock regression (tune with `go run
# ./cmd/benchdiff -threshold N OLD NEW` directly).
bench-diff:
	AUTOFEAT_BENCH_OUT=BENCH_candidate.json $(GO) test -run TestWriteParallelBench .
	$(GO) run ./cmd/benchdiff BENCH_parallel.json BENCH_candidate.json
	AUTOFEAT_SERVE_BENCH_OUT=BENCH_serve_candidate.json $(GO) test -run TestWriteServeBench .
	$(GO) run ./cmd/benchdiff BENCH_serve.json BENCH_serve_candidate.json
	AUTOFEAT_TRACED_BENCH_OUT=BENCH_traced_candidate.json $(GO) test -run TestWriteTracedBench .
	$(GO) run ./cmd/benchdiff BENCH_traced.json BENCH_traced_candidate.json
	AUTOFEAT_INDEX_BENCH_OUT=BENCH_index_candidate.json $(GO) test -run TestWriteIndexBench .
	$(GO) run ./cmd/benchdiff BENCH_index.json BENCH_index_candidate.json
	AUTOFEAT_CLUSTER_BENCH_OUT=BENCH_cluster_candidate.json $(GO) test -run TestWriteClusterBench .
	$(GO) run ./cmd/benchdiff BENCH_cluster.json BENCH_cluster_candidate.json
	AUTOFEAT_FEDERATION_BENCH_OUT=BENCH_federation_candidate.json $(GO) test -run TestWriteFederationBench .
	$(GO) run ./cmd/benchdiff BENCH_federation.json BENCH_federation_candidate.json
	AUTOFEAT_COLUMNAR_BENCH_OUT=BENCH_columnar_candidate.json $(GO) test -run TestWriteColumnarBench .
	$(GO) run ./cmd/benchdiff BENCH_columnar.json BENCH_columnar_candidate.json

# docs-check is the documentation gate: a godoc audit over the
# public-facing packages (exported identifiers must carry doc comments
# that start with their name), a relative-link check over README,
# DESIGN and docs/, the route-sync audit (every HTTP route
# registered in internal/obsrv and internal/serve must have a matching
# "### METHOD /path" heading in docs/API.md, and vice versa), and the
# format-constant audit (internal/frame's Format* constants must match
# the file-format specification in DESIGN.md, and vice versa).
docs-check:
	$(GO) run ./cmd/doccheck -md README.md,DESIGN.md,docs \
		-api docs/API.md -routes internal/obsrv,internal/serve \
		-format internal/frame=DESIGN.md \
		internal/core internal/relational internal/fselect internal/telemetry \
		internal/obsrv internal/lake internal/serve internal/frame internal/sketch .

# check is the tier-1 verification gate (see ROADMAP.md).
check: docs-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
