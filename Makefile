GO ?= go

.PHONY: build vet test race fuzz bench check docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target for a minute, for longer local runs
# than the committed corpus replay that `go test` does; not part of check.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 60s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzJobStoreLoad -fuzztime 60s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzTelemetryReply -fuzztime 60s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodeColumnar -fuzztime 60s ./internal/frame
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 60s ./internal/frame
	$(GO) test -run '^$$' -fuzz FuzzKernels -fuzztime 60s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzSelect -fuzztime 60s ./internal/fselect
	$(GO) test -run '^$$' -fuzz FuzzTrees -fuzztime 60s ./internal/ml

# bench runs the micro benchmarks (`go test -bench .` adds the slow
# figure benchmarks), then TestWriteBench, which rewrites every committed
# BENCH_*.json and checks its floor. See docs/OPERATIONS.md
# "Performance baselines".
bench:
	$(GO) test -run xxx -bench 'BenchmarkMicro' -benchmem .
	AUTOFEAT_BENCH_DIR=. $(GO) test -run TestWriteBench -v .

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

# check is the tier-1 verification gate (see ROADMAP.md). It also vets
# the benchmark/ module, which `go build ./...` skips but which compiles
# against the root API, and fails when gofmt would reformat any file.
check: docs-check
	$(GO) build ./...
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./...
