GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet fmt race bench-test bench fuzz check

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

# Every fuzz target for a fixed 5 s each. go test fuzzes one target per
# run, so each gets its own invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/minic
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRV64$$' -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRV64C$$' -fuzztime 5s ./internal/isa
	$(GO) test -run '^$$' -fuzz '^FuzzPredecode$$' -fuzztime 5s ./internal/gadget
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeArtifact$$' -fuzztime 5s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 5s ./internal/serve

# CI gate: formatting, static checks, the full test suite under the race
# detector, the end-to-end benchmark's tests, and a short run of every fuzz
# target.
check: fmt vet race bench-test fuzz
