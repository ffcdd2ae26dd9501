# Convenience targets for the o1mem reproduction.

GO ?= go

.PHONY: all build test vet bench bench-compare experiments results profile snap clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One testing.B benchmark per paper table/figure (repository root),
# plus the tracked wall-clock baseline (serial, so allocation counts
# attribute to individual experiments).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/o1bench -parallel 1 -benchjson BENCH_wallclock.json > /dev/null

# Wall-clock regression gate: re-measure the suite and diff against
# the tracked baseline. Fails on >25% slowdown of any experiment or of
# the suite; skips (exit 0) when the host shape differs from the
# baseline's, since wall-clock numbers are not comparable across hosts.
bench-compare:
	$(GO) run ./cmd/o1bench -parallel 1 -benchjson BENCH_wallclock.new.json > /dev/null
	$(GO) run ./cmd/benchdiff -old BENCH_wallclock.json -new BENCH_wallclock.new.json -max-regress 0.25
	@rm -f BENCH_wallclock.new.json

# CPU and heap profiles of the full suite (inspect with `go tool pprof`).
profile:
	$(GO) run ./cmd/o1bench -parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; try: go tool pprof -top cpu.pprof"

# Persistence smoke: checkpoint a base-only chain (a full snapshot
# plus its journal) and a chain with three dirty-extent deltas, restore
# each with a bit-identity and differential-image proof, compact the
# journal and restore again, then crash-and-recover every
# configuration with a torn journal tail.
snap:
	$(GO) run ./cmd/o1snap save -config ranges -seed 1 -ops 2000 -deltas 0 -o .o1snap.tmp
	$(GO) run ./cmd/o1snap restore -i .o1snap.tmp
	$(GO) run ./cmd/o1snap compact -i .o1snap.tmp
	$(GO) run ./cmd/o1snap info -i .o1snap.tmp
	$(GO) run ./cmd/o1snap save -config fom -seed 1 -ops 2000 -deltas 3 -o .o1snap.tmp
	$(GO) run ./cmd/o1snap restore -i .o1snap.tmp
	$(GO) run ./cmd/o1snap compact -i .o1snap.tmp
	$(GO) run ./cmd/o1snap info -i .o1snap.tmp
	$(GO) run ./cmd/o1snap restore -i .o1snap.tmp
	@rm -f .o1snap.tmp
	$(GO) run ./cmd/o1snap crash -config all -seed 2 -ops 1500 -torn

# Regenerate every experiment as terminal tables.
experiments:
	$(GO) run ./cmd/o1bench

# Regenerate RESULTS.md (markdown version of every experiment).
results:
	$(GO) run ./cmd/o1bench -format md > RESULTS.md

# Full verification artifacts (test_output.txt, bench_output.txt).
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
