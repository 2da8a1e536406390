# Build/test entry points. CI runs the same targets.
#
# Performance is measured in one place: benchmark/ (its own Go module;
# `bash benchmark/run.sh`, workloads and metrics declared in
# BENCHMARK.json). The paper's tables regenerate via `go run
# ./cmd/syncbench` or `go test -run '^$' -bench Experiments .`, and the
# engine microbenchmarks sit next to the engines they measure.

.PHONY: build test race bench-check fmt vet

build:
	go build ./...

test: build
	go test ./...

race:
	go test -race ./internal/wire/ ./internal/slab/ ./internal/outval/ ./internal/async/ ./internal/syncrun/ ./internal/apps/ ./internal/bench/ ./internal/core/ ./internal/shard/ ./internal/ctree/ ./internal/reg/ ./internal/gather/ ./internal/abfs/

fmt:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

vet:
	go vet ./...

# benchmark/ is its own module, out of reach of root `go vet`/`go test`.
# This catches changes to what it wraps: core.NewNodeHandler, AsyncAuto,
# the Mux's state plane and Mux.Rebind (called once per handler built).
bench-check:
	cd benchmark && go vet ./... && go test ./...

