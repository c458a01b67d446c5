GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt race bench-test bench check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The experiments and benchprog packages each run ~1 min without -race and
# ~5 min with it on 2 vCPUs; a smaller machine can exceed go test's default
# 10m per-package timeout, so give the suite explicit headroom.
race:
	$(GO) test -race -timeout 25m ./...

# The end-to-end benchmark (bench/) is a nested module, so the root
# `go test ./...` never builds it or checks its golden payload digests
# (bench/testdata/golden.json); run its vet and tests from inside it.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# The end-to-end benchmark (bench/, declared in BENCHMARK.json): every
# workload, each in its own process. Add the traced per-layer pass with
# `bash bench/run.sh -trace 1`.
bench:
	bash bench/run.sh

# CI gate: formatting, static checks, the full test suite under the race
# detector, and the end-to-end benchmark's tests.
check: fmt vet race bench-test
