# Tier-1 gate plus the stricter checks CI runs.

GO ?= go

.PHONY: build test check vet race bench benchcheck gobench lint obscheck prop sweep examples fuzz identity

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint is the CI formatting/static gate, reproducible locally: gofmt
# must report no files, vet must pass in the root module and in the
# nested bench/ module (which the root ./... does not reach), every
# exported identifier in every package under internal/ must carry a doc
# comment, and ARCHITECTURE.md's package table must cover every
# internal/ package (cmd/docgate -arch).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) run ./cmd/docgate -arch ARCHITECTURE.md -internal internal \
		$$($(GO) list -f '{{.Dir}}' ./internal/...)

# obscheck is the observability gate. `khsim obscheck` prints the
# seed-1 metrics snapshot and the artifact of every experiment in
# harness.Experiments, each once its Check passes, and validates a
# Perfetto export; two processes must print the same bytes.
obscheck: build
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/khsim" ./cmd/khsim && \
	"$$tmp/khsim" obscheck > "$$tmp/a" && "$$tmp/khsim" obscheck > "$$tmp/b" || exit 1; \
	cmp "$$tmp/a" "$$tmp/b" || { echo "obscheck: two same-seed processes printed different bytes"; exit 1; }; \
	echo "obscheck: ok"

# prop repeats the randomized property tests (TestQuick*, TestProp*).
# testing/quick draws fresh cases on every run, so twenty passes find a
# failure that needs a rare random case before it reaches a tier-1 run.
prop:
	$(GO) test -run '^(TestQuick|TestProp)' -count=20 ./internal/...

# sweep runs the cluster failover experiment's Check at seeds 1-200
# and the serving sweep under its crash campaign
# (manifests/serving-crash.manifest) at seeds 1-50, from one khsim
# build. Each cluster seed is another interleaving of fault timing,
# elections and the signed-proposal path; each serve seed another
# schedule of environment crashes, head-of-queue requeues and replays.
# The first failing seed prints its report.
sweep: build
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/khsim" ./cmd/khsim || exit 1; \
	for s in $$(seq 1 200); do \
		"$$tmp/khsim" cluster -seed $$s -check > "$$tmp/out" || { \
			cat "$$tmp/out"; echo "sweep: khsim cluster -seed $$s -check failed"; exit 1; }; \
	done; \
	echo "sweep: khsim cluster -check ok at seeds 1-200"; \
	for s in $$(seq 1 50); do \
		"$$tmp/khsim" serve -manifest manifests/serving-crash.manifest -seed $$s -check > "$$tmp/out" || { \
			cat "$$tmp/out"; echo "sweep: khsim serve -manifest manifests/serving-crash.manifest -seed $$s -check failed"; exit 1; }; \
	done; \
	echo "sweep: khsim serve -manifest manifests/serving-crash.manifest -check ok at seeds 1-50"

# fuzz runs the serve pool's message fuzzer (FuzzPoolMessages) for 10 s
# past its seed corpus (internal/serve/testdata/fuzz): arbitrary payloads
# into the primary's mailbox of a running pool, from the login VM or an
# environment VM. A failing input is written under that corpus directory;
# commit it with the fix.
fuzz:
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzPoolMessages$$' -fuzztime 10s

# examples runs every program under examples/ and fails on the first
# one that exits non-zero (memshare, for one, exits through log.Fatal
# when an isolation check fails). Their output goes to /dev/null; a
# failing program's error still reaches stderr.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

# identity checks that this tree prints the same bytes as the commit
# BASE (default HEAD, so an uncommitted change is compared with its
# parent). It builds khsim from `git archive $(BASE)` and from this tree,
# then runs in each: obscheck, every experiment of harness.Experiments
# (the names obscheck prints) at seeds 1, 2, 3 and 42 with -artifact, and
# the serving sweep under its crash campaign at seeds 1-5, each tree with
# its own manifest. It cmp's every stdout, exit status and artifact and
# fails at the first difference. A declared model change fails it by
# design, so CI does not run it.
BASE ?= HEAD
identity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" "$$tmp/out-base" "$$tmp/out-new" && \
	git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/khsim-base" ./cmd/khsim) && \
	$(GO) build -o "$$tmp/khsim-new" ./cmd/khsim || exit 1; \
	for b in base new; do \
		"$$tmp/khsim-$$b" obscheck > "$$tmp/out-$$b/obscheck" 2>&1; echo "exit $$?" >> "$$tmp/out-$$b/obscheck"; \
	done; \
	exps=$$(sed -n 's/^# experiment //p' "$$tmp/out-new/obscheck"); \
	[ -n "$$exps" ] || { echo "identity: obscheck named no experiment"; exit 1; }; \
	for b in base new; do \
		k="$$tmp/khsim-$$b"; o="$$tmp/out-$$b"; tree=.; [ $$b = base ] && tree="$$tmp/base"; \
		for s in 1 2 3 42; do \
			for x in $$exps; do \
				"$$k" $$x -seed $$s -artifact "$$o/$$x.$$s.art" > "$$o/$$x.$$s.out" 2>&1; echo "exit $$?" >> "$$o/$$x.$$s.out"; \
			done; \
		done; \
		for s in 1 2 3 4 5; do \
			"$$k" serve -manifest "$$tree/manifests/serving-crash.manifest" -seed $$s \
				-artifact "$$o/serve-crash.$$s.art" > "$$o/serve-crash.$$s.out" 2>&1; echo "exit $$?" >> "$$o/serve-crash.$$s.out"; \
		done; \
	done; \
	n=0; for f in "$$tmp/out-new"/*; do \
		name=$${f##*/}; \
		cmp -s "$$tmp/out-base/$$name" "$$f" || { \
			diff "$$tmp/out-base/$$name" "$$f" | head -20; \
			echo "identity: $$name differs from $(BASE)"; exit 1; }; \
		n=$$((n+1)); \
	done; \
	echo "identity: $$n outputs identical to $(BASE)"

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
