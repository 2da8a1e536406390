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
	go test -race ./internal/outval/ ./internal/async/ ./internal/syncrun/ ./internal/apps/ ./internal/bench/ ./internal/core/ ./internal/shard/

fmt:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

vet:
	go vet ./...

# benchmark/ is its own module, so `go vet ./...` and `go test ./...` at
# the root never compile it. Its decorators wrap core.NewNodeHandler,
# async.Mux's state-plane methods and execpolicy.AsyncAuto; this target is
# what notices a change to that surface before the benchmark pipeline does.
bench-check:
	cd benchmark && go vet ./... && go test ./...

