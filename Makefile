# Tier-1 gate plus the stricter checks CI runs.

GO ?= go

.PHONY: build test check vet race bench benchcheck gobench lint obscheck

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint is the CI formatting/static gate, reproducible locally: gofmt
# must report no files, vet must pass, every exported identifier in the
# core packages must carry a doc comment, and ARCHITECTURE.md's package
# table must cover every internal/ package (cmd/docgate -arch).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/docgate -arch ARCHITECTURE.md -internal internal \
		./internal/sim ./internal/metrics ./internal/faults ./internal/kernel ./internal/serve \
		./internal/hafnium ./internal/mmu ./internal/mem ./internal/gic ./internal/machine

# obscheck is the observability gate. The metrics snapshot must be
# deterministic across same-seed runs, and the Perfetto trace export
# must pass schema validation (khsim trace -check exits non-zero
# otherwise). Then every experiment must hold its properties under
# -check and write a byte-identical artifact in two same-seed processes:
# cluster failover (bounded failover, converged ledgers), snapshot/fork
# (forked timelines replay bit-identically), live migration (one live
# copy per cell, converged signed ledger, downtime monotone in working
# set) and the ephemeral-VM serving sweep (end-to-end job flow, fully
# signed pool ledger, warm fork beating cold boot).
obscheck: build
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/khsim metrics -config kitten -bench stream -seed 1 > "$$tmp/a.metrics" && \
	$(GO) run ./cmd/khsim metrics -config kitten -bench stream -seed 1 > "$$tmp/b.metrics" && \
	cmp "$$tmp/a.metrics" "$$tmp/b.metrics" || { echo "obscheck: metrics snapshot not deterministic"; exit 1; }; \
	$(GO) run ./cmd/khsim trace -config kitten -bench selfish -seconds 0.1 -format perfetto -check -out "$$tmp/trace.json" || exit 1; \
	$(GO) run ./cmd/khsim cluster -seed 1 -check -artifact "$$tmp/a.cluster" > /dev/null && \
	$(GO) run ./cmd/khsim cluster -seed 1 -check -artifact "$$tmp/b.cluster" > /dev/null && \
	cmp "$$tmp/a.cluster" "$$tmp/b.cluster" || { echo "obscheck: cluster failover trace not deterministic"; exit 1; }; \
	$(GO) run ./cmd/khsim snapshot -seed 1 -check -artifact "$$tmp/a.snap" > /dev/null && \
	$(GO) run ./cmd/khsim snapshot -seed 1 -check -artifact "$$tmp/b.snap" > /dev/null && \
	cmp "$$tmp/a.snap" "$$tmp/b.snap" || { echo "obscheck: snapshot fork replay not deterministic"; exit 1; }; \
	$(GO) run ./cmd/khsim migrate -seed 1 -check -artifact "$$tmp/a.mig" > /dev/null && \
	$(GO) run ./cmd/khsim migrate -seed 1 -check -artifact "$$tmp/b.mig" > /dev/null && \
	cmp "$$tmp/a.mig" "$$tmp/b.mig" || { echo "obscheck: migration artifact not deterministic"; exit 1; }; \
	$(GO) run ./cmd/khsim serve -seed 1 -check -artifact "$$tmp/a.serve" > /dev/null && \
	$(GO) run ./cmd/khsim serve -seed 1 -check -artifact "$$tmp/b.serve" > /dev/null && \
	cmp "$$tmp/a.serve" "$$tmp/b.serve" || { echo "obscheck: serving artifact not deterministic"; exit 1; }; \
	echo "obscheck: ok"

# check is the full pre-merge gate: build, vet, the test suite under the
# race detector, and the observability gate.
check: build vet race obscheck

# bench refreshes the committed engine-throughput trajectory
# (BENCH_sim.json), preserving its pinned pre-optimization baseline
# block. benchcheck is the CI regression gate against the committed file.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_sim.json

benchcheck:
	$(GO) run ./cmd/benchjson -reps 5 -check BENCH_sim.json

# gobench runs the paper-figure go-test benchmarks (bench_test.go).
gobench:
	$(GO) test -bench=. -benchtime=1x ./...
