# Tier-1 gate plus the stricter checks CI runs.

GO ?= go

.PHONY: build test check vet race race-core bench benchcheck gobench lint obscheck

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-core is the focused race gate over the packages the parallel
# cluster engine actually shares between goroutines: the event engine,
# the fabric's deferred-send windows, the cluster window scheduler, and
# the harness experiments whose callbacks run on the node goroutines.
race-core:
	$(GO) test -race ./internal/sim/... ./internal/net/... ./internal/machine/...
	$(GO) test -race -run Parallel ./internal/harness/

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

# obscheck is the observability gate: the metrics snapshot must be
# deterministic across same-seed runs, the Perfetto trace export must
# pass schema validation (khsim trace -check exits non-zero otherwise),
# the cluster failover experiment must hold its properties (bounded
# failover, converged ledgers) with a byte-identical merged trace
# artifact across two same-seed runs, and the snapshot/fork contract
# must hold: forked timelines replay bit-identically (khsim snapshot
# -check), with the experiment artifact itself byte-identical across
# two same-seed processes. The live-migration experiment joins the same
# contract: khsim migrate -check must hold its invariants (one live
# copy per cell, converged signed ledger, downtime monotone in working
# set) and two same-seed runs must render byte-identical artifacts.
# The conservative parallel engine carries the strongest form of the
# contract: same-seed artifacts must be byte-identical sequential vs
# parallel (3 and 8 nodes) and parallel vs parallel (8 nodes), so the
# goroutine schedule leaves no fingerprint. The ephemeral-VM serving
# sweep closes the list: khsim serve -check must hold its invariants
# (end-to-end job flow, fully signed pool ledger, warm fork beating
# cold boot) and two same-seed sweeps must write byte-identical
# artifacts.
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
	$(GO) run ./cmd/khsim cluster -seed 1 -parallel -check -artifact "$$tmp/p3.cluster" > /dev/null && \
	cmp "$$tmp/a.cluster" "$$tmp/p3.cluster" || { echo "obscheck: 3-node parallel run diverges from sequential"; exit 1; }; \
	$(GO) run ./cmd/khsim cluster -seed 1 -nodes 8 -artifact "$$tmp/s8.cluster" > /dev/null && \
	$(GO) run ./cmd/khsim cluster -seed 1 -nodes 8 -parallel -check -artifact "$$tmp/p8a.cluster" > /dev/null && \
	$(GO) run ./cmd/khsim cluster -seed 1 -nodes 8 -parallel -artifact "$$tmp/p8b.cluster" > /dev/null && \
	cmp "$$tmp/s8.cluster" "$$tmp/p8a.cluster" || { echo "obscheck: 8-node parallel run diverges from sequential"; exit 1; }; \
	cmp "$$tmp/p8a.cluster" "$$tmp/p8b.cluster" || { echo "obscheck: 8-node parallel runs diverge from each other"; exit 1; }; \
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
