# Tier-1 verification: everything CI gates on.
.PHONY: all check race bench bench-answer bench-ground bench-ivm bench-load bench-test bench-smoke bench-runs bench-pair fuzz-smoke test test-server serve vet lint lines docs-fresh build clean

all: check

# check is the tier-1 job: build, vet, full test suite.
check: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# test-server runs just the serving stack: the query compiler shared by the
# CLIs and the daemon, the HTTP service (e2e matrix, singleflight, eviction,
# cancellation, drain, fact mutations, subscription streams, and the
# disk-backed server's differential, recovery, snapshot/restore and
# copy-on-write tests), the storage engine (conformance suite on both
# backends, disk-format property tests, crash-recovery fault injection), and
# the incremental maintenance engine behind the subscriptions and the
# relational rule kernel under both (its fact base is shared by concurrent
# requests), plus the three front-ends' golden tests — under the race
# detector, twice, because the subscription writer/maintainer handoff and the
# lazily built per-version fact base are where races would live.
test-server:
	go test -race -count=2 ./internal/query ./internal/server ./internal/storage ./internal/ivm ./internal/datalog/rel ./cmd/algrecd ./cmd/algq ./cmd/dlog

# serve starts the query daemon on the default address (:8372) with the
# bundled example graph registered as database "g". See docs/server.md.
serve:
	go run ./cmd/algrecd -db g=internal/server/testdata/graph.alg

# lint gates documentation: every package needs a package doc comment and
# must document every exported declaration. The benchmark, a module of its
# own, is held to the package doc comment only. doccheck is stdlib-only
# (tools/doccheck).
lint: vet
	go run ./tools/doccheck .

# lines prints the ROADMAP's size yardstick: non-test Go lines outside
# benchmark/, per package directory and in total.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); pkg[d] += $$1; sum += $$1 } \
		END { for (d in pkg) printf "%7d %s\n", pkg[d], d; printf "%7d total\n", sum }' | sort -k2

# docs-fresh regenerates EXPERIMENTS.md's tables from the committed record
# (internal/expt/recorded/run.json) and fails if the committed document was
# stale — the CI freshness gate.
docs-fresh:
	go generate ./internal/expt
	git diff --exit-code EXPERIMENTS.md

# race runs, under the race detector, the packages whose code or tests start
# goroutines: the query server (singleflight plan compilation, LRU eviction,
# graceful drain and subscription streams, each hammered by concurrent
# clients in its tests), the storage engine's concurrent materialization and
# background compaction, and what concurrent requests share — compiled plans and the
# per-version fact base (query, datalog/rel), the intern arena and the
# observability collectors. The algebra's interrupt tests cancel from a
# timer goroutine, and diffcheck's clean sweep drives every engine from
# parallel subtests.
race:
	go test -race ./internal/server ./internal/storage ./internal/query ./internal/datalog/rel ./internal/value/intern ./internal/obsv ./internal/algebra ./internal/diffcheck

# bench runs the full benchmark suite once per target (see also cmd/bench).
bench:
	go test -run XXX -bench . -benchtime 1x -timeout 1200s

# bench-test vets and tests the benchmark itself (benchmark/, the served-
# request ladder BENCHMARK.json declares). It is a Go module of its own, so
# `go build ./... && go test ./...`, vet, doccheck and the coverage floor do
# not see it; this target is what keeps the instrument compiling against the
# repository and its own tests green — generator goldens, references,
# statistics, every workload at toy size, one workload against a spawned
# algrecd — under the race detector.
bench-test:
	go -C benchmark vet ./...
	go -C benchmark test -race ./...

# bench-smoke runs the benchmark end to end at toy sizes against an
# in-process server: all five workloads, the traced run and the report, with
# every answer checked against the plain-Go references (~4 s).
bench-smoke:
	go run -C benchmark algrec/benchmark -smoke

# bench-runs records one point of the per-PR curve: the benchmark's five
# workloads end to end plus the traced run, five times, into BENCH_<PR>.json
# at the repository root — `make bench-runs PR=20` (compare two of them with
# `go run -C benchmark algrec/benchmark -compare OLD NEW`). About a quarter of
# an hour. Two records made in different sessions drift apart by up to 25-30 %
# on unchanged code, so the file a PR commits and cites is bench-pair's.
bench-runs:
	@test -n "$(PR)" || { echo "usage: make bench-runs PR=<number of the PR being measured>"; exit 2; }
	go run -C benchmark algrec/benchmark -seed 1 -runs 5 -out ../BENCH_$(PR).json

# bench-pair records a PR's point of the curve together with its own baseline:
# BASE, the commit the change starts from (required: a change may be several
# commits, and the working tree may be dirty, so no guess from HEAD is
# right), is checked out beside the working tree (a git clone in a temporary
# directory, removed on every way out; a clone writes nothing into this
# repository's .git, so TMPDIR alone decides where the run writes), both trees
# run the benchmark — all five workloads
# and the traced run — once per seed 1..5, alternately, whichever went first on
# one seed going second on the next, and the runs are stored per side in
# BENCH_<PR>_parent.json and BENCH_<PR>.json at the repository root
# (tools/benchjoin), which -compare then judges: the pair shares a session, so
# it resolves ~3 % where two sessions' files resolve ~15. `make bench-pair
# PR=23 BASE=<rev>`, about 35 minutes; commit both files.
bench-pair:
	@test -n "$(PR)" && test -n "$(BASE)" || { echo "usage: make bench-pair PR=<number of the PR being measured> BASE=<the commit the change starts from>"; exit 2; }
	@tmp=$$(mktemp -d) || exit 1; parent="$$tmp/parent"; \
	trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' INT TERM; \
	rev=$$(git rev-parse --verify "$(BASE)^{commit}") || exit 1; \
	echo "parent: $$rev ($(BASE)); change: the working tree"; \
	git clone -q "$(CURDIR)" "$$parent" && git -C "$$parent" checkout -q --detach $$rev || exit 1; \
	for seed in 1 2 3 4 5; do \
		sides="parent change"; test $$((seed % 2)) = 1 || sides="change parent"; \
		for side in $$sides; do \
			tree="$(CURDIR)"; test $$side = change || tree="$$parent"; \
			echo "seed $$seed: $$side"; \
			(cd "$$tree" && go run -C benchmark algrec/benchmark -seed $$seed -runs 1 -out "$$tmp/$$side-$$seed.json") >"$$tmp/log" 2>&1 || { cat "$$tmp/log"; exit 1; }; \
		done; \
	done; \
	go run ./tools/benchjoin -out BENCH_$(PR)_parent.json "$$tmp"/parent-*.json && \
	go run ./tools/benchjoin -out BENCH_$(PR).json "$$tmp"/change-*.json && \
	go run -C benchmark algrec/benchmark -compare ../BENCH_$(PR)_parent.json ../BENCH_$(PR).json

# fuzz-smoke gives every differential oracle (internal/diffcheck) and both
# parsers (FuzzParseProgram, FuzzParseScript: print ∘ parse is idempotent) a
# short coverage-guided run; CI runs the same targets one per job in a
# matrix, and plain `go test` already replays the committed corpora. The
# targets are listed from each package's test binary, so the loop cannot
# drift from the Fuzz functions.
FUZZ_PKGS = ./internal/diffcheck ./internal/datalog ./internal/algebra/parse

fuzz-smoke:
	@for p in $(FUZZ_PKGS); do \
		targets=$$(go test -list '^Fuzz' $$p | grep '^Fuzz') || exit 1; \
		for t in $$targets; do \
			go test $$p -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s || exit 1; \
		done; \
	done

# bench-ivm measures incremental view maintenance alone, as Go benchmarks
# with allocation counts: the write workload's leaf-churn batch, a delete
# that over-deletes a 64-row cone, and the leaf-churn batch's next database
# version alone (ApplyDB), all over a 10^4-edge hierarchy.
bench-ivm:
	go test ./internal/ivm -run '^$$' -bench 'LeafChurn|InteriorDelete|ApplyDB' -benchmem

# bench-load measures what a PUT and a recovery cost in parsing and
# interning, as Go benchmarks with allocation counts: parsing a script of 10^5
# distinct random integer pairs over 5·10^4 nodes into its database, the
# PUT's eager intern of such pairs already consed (InternReload), and a fresh
# interner consing them from their IDs as recovery does (InternBulk).
bench-load:
	go test ./internal/server ./internal/value/intern -run '^$$' -bench 'LoadDBScript|InternBulk|InternReload' -benchmem

# bench-answer measures what turns a served answer into its text, as Go
# benchmarks with allocation counts: a datalog answer's keys (3·10^4 integer
# pairs sorted and rendered, the size of the read workload's reach answer), a
# fresh fact base's keys of 2·10^4 stored pairs (once per database version),
# alg-2hop's 4·10^4 pairs on the kernel, written from their rows beside
# converted to a set and printed, and the read workload's reach, win and tc2
# served whole through Server.Handler on a 2·10^4-edge random graph.
bench-answer:
	go test ./internal/datalog/rel ./internal/query ./internal/server -run '^$$' -bench 'SortedKeys|BaseKeys|KernelText|KernelConvert|ServeDatalog' -benchmem

# bench-ground measures the grounder and the semantics engines, the plain
# reference every datalog oracle compares against, as Go benchmarks with
# allocation counts: grounding a 128-edge transitive-closure chain, its
# minimal model, the well-founded and valid models of a 64-position win
# cycle, and the stable models of an 8-position one.
bench-ground:
	go test . -run '^$$' -bench '^Benchmark(GroundTC|MinimalSemiNaive|WellFoundedWinCycle|ValidWinCycle|StableTwoCycles)$$' -benchmem

clean:
	go clean ./...
