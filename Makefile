# Developer entry points for the UGPU reproduction. All targets use only the
# standard Go toolchain; there are no external dependencies.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt test short race bench bench-once vet check cover smoke bench-check experiments clean

all: check

## build: compile every package and command
build:
	$(GO) build ./...

## fmt: fail when gofmt would reformat any Go file (lists the files)
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

## test: full test suite (tier-1 gate together with build)
test:
	$(GO) test ./...

## short: quick test pass (skips multi-simulation sweeps)
short:
	$(GO) test -short ./...

## race: race-detector pass (short mode keeps the heavy sweeps out; the
## cluster suites still run long under the detector with packages racing
## for cores, so give them headroom past the 10m default)
race:
	$(GO) test -race -short -timeout 20m ./...

## bench: hot-path allocation benchmarks (ReportAllocs)
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

## bench-once: every Go benchmark for one iteration (~20-25 s on 2 cores with a
## warm build cache), so a benchmark that no longer builds or runs fails the gate
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## vet: static analysis; must be clean
vet:
	$(GO) vet ./...

## check: everything the CI gate runs
check: fmt build vet test race bench-once

## cover: per-package coverage summary (short mode keeps it fast)
cover:
	$(GO) test -short -cover ./...

## smoke: the cross-mode guarantee through the CLI. Each smoke flag set (the
## five non-paper sweeps, Figure 10, and Figures 2-3, whose solo compute- and
## memory-bound runs are the compute sprints' main path) runs with tracing
## and state digests on at -parallel 1, -parallel 8 and
## -no-fastforward; stdout (figure plus folded digest note) and the trace file
## must be byte-identical across the three. This checks the flag wiring only:
## figure content and every mode pair are checked in-process by
## TestModeMatrix (internal/experiments) (CI job)
SMOKE_FLAGS = \
	"-fig faults -cycles 60000 -epoch 15000 -mixes 2 -faults sm=2,group=1,mig=0.05 -fault-seed 7" \
	"-fig serve -cycles 40000 -epoch 10000 -serve-seed 9" \
	"-fig failover -cycles 40000 -epoch 10000 -serve-seed 9 -gpu-faults 1" \
	"-fig gray -cycles 30000 -serve-seed 9 -arrival-rate 25 -digest-every 4" \
	"-fig power -cycles 40000 -epoch 10000 -serve-seed 9" \
	"-fig 10 -cycles 30000 -epoch 10000 -mixes 2" \
	"-fig 2,3 -cycles 20000"
smoke:
	$(GO) build -o smoke.bin ./cmd/experiments
	set -e; for flags in $(SMOKE_FLAGS); do \
		./smoke.bin $$flags -trace -digest -parallel 1 -trace-out smoke-ref.jsonl > smoke-ref.txt; \
		for mode in "-parallel 8" "-parallel 1 -no-fastforward"; do \
			./smoke.bin $$flags -trace -digest $$mode -trace-out smoke-got.jsonl > smoke-got.txt; \
			cmp smoke-ref.txt smoke-got.txt; \
			cmp smoke-ref.jsonl smoke-got.jsonl; \
		done; \
		cat smoke-ref.txt; \
	done
	rm -f smoke.bin smoke-ref.txt smoke-got.txt smoke-ref.jsonl smoke-got.jsonl

## bench-check: the benchmark harness's own tests (a separate module under
## bench/): smoke runs of every workload, each checked against
## bench/golden.json for output hash and folded state digest, so any change
## of model outputs fails here (CI job)
bench-check:
	$(GO) -C bench test ./...

## experiments: regenerate every figure at the recorded scale
experiments:
	$(GO) run ./cmd/experiments -fig all -cycles 150000 -epoch 25000 -mixes 3 -v

clean:
	$(GO) clean ./...
