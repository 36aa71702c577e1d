# Developer entry points. `make ci` is the gate: build, gofmt, vet, no
# float contraction on arm64 (fpcontract), the full test suite under the Go race detector (the kernel-execution engine
# and the bench harness are concurrent; -race keeps them honest), the
# allocation gates without it (allocs), one
# iteration of each per-layer benchmark, and a short fuzz pass. Every
# suite-wide invariant is an ordinary test, so `race` checks it: the
# committed baselines BENCH_0/1.json (TestRunAllRecordsTheSuite), the
# fault-model output invariant (TestFaultPlanKeepsEveryOutput), the
# critical path (TestLiveInvariant/TestLiveDeterminism) and service
# contention (TestSubmitMatchesSolo). No target runs a cmd/ binary. After
# an intentional change to a simulated number, rewrite the baselines with
# UPDATE_GOLDEN=1 go test -run TestRunAllRecordsTheSuite ./internal/bench;
# after one to a traced run's verb list or event log, rewrite
# internal/core/testdata/timeline.golden with
# go test ./internal/core -run TestTimelineGolden -update.

GO ?= go

.PHONY: all build vet fmtcheck fpcontract test race allocs bench interpbench interpbenchsmoke compilebench compilebenchsmoke commbench commbenchsmoke fuzzsmoke soak hostbench placement ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# The allocation gates, every Test*Allocations and Test*AllocatesNothing
# (compile, warm run, warm Submit, launch, the runtime verb script). The
# race detector changes allocation counts, so TestCompileAllocations
# skips under `race`; this runs them all without it.
allocs:
	$(GO) test -run 'Allocations$$|AllocatesNothing$$' ./...

# Host-side engine speedup: compare workers=1 vs workers=N.
bench:
	$(GO) test -bench 'BenchmarkEngine$$' -benchtime 3x ./internal/bench/

# The interpreter's per-layer benchmarks (internal/interp/bench_test.go):
# host ns per simulated op for each execution context and op class, and
# the cost of lowering the suite. Advisory, like hostbench — host time is
# noisy; compare two commits with the same file (it uses only the
# exported API).
interpbench:
	$(GO) test -run=NONE -bench=. -benchtime=2s -count=5 ./internal/interp/

# One iteration of each of those benchmarks, so they cannot rot.
interpbenchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/interp/

# The compiler's per-layer benchmarks: core.Compile of generated
# programs of 8 to 128 loop groups (internal/core/bench_test.go; ns/op
# that more than doubles from one size to the next is a pass that is not
# linear), each pass of the pipeline alone over srad and 16 loop groups
# (BenchmarkPipeline/<pass>/<program>, internal/core/pipeline_bench_test.go,
# which reaches the pipeline through export_test.go) and the two
# whole-module analysis builders over the suite and a 32-group module
# (internal/analysis/bench_test.go). Advisory; all but BenchmarkPipeline
# use the exported API only, like interpbench.
compilebench:
	$(GO) test -run=NONE -bench=. -benchtime=2s -count=5 ./internal/core/ ./internal/analysis/

# One iteration of each of those benchmarks, so they cannot rot.
compilebenchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/core/ ./internal/analysis/

# The communication layer's benchmarks: the map -> launch -> unmap ->
# release cycle on one unit, blocking and on streams, at 4 KiB, 64 KiB and
# 512 KiB — host ns, bytes and objects allocated per cycle
# (internal/runtime/bench_test.go) — the machine's clock alone, one
# Retime of a recorded run's verbs, in ns per verb
# (internal/machine/retime_bench_test.go) — and one critical-path Analyze
# of a recorded run's spans, in ns per span
# (internal/critpath/bench_test.go). Advisory, and exported API only,
# like interpbench.
commbench:
	$(GO) test -run=NONE -bench=. -benchtime=2s -count=5 ./internal/runtime/ ./internal/machine/ ./internal/critpath/

# One iteration of each of those benchmarks, so they cannot rot.
commbenchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/runtime/ ./internal/machine/ ./internal/critpath/

# Short native-fuzz pass over the mini-C front end, the full compile
# pipeline and the parallelizer's differential oracle (the one-verdict
# driver against the restart driver it replaced, on FuzzCompile's seed
# corpus): seeds always run; a few seconds of mutation catches easy
# panics without slowing the gate much.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime 10s ./internal/minic/parser/
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime 10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzRunMatchesRestartDriver -fuzztime 10s ./internal/doall/
	$(GO) test -run=NONE -fuzz=FuzzServerRequest -fuzztime 10s ./internal/server/

# Full-scale service soak: ≥1000 concurrent clients across ≥8 tenants
# under the race detector, mixing cache hits/misses, deadline expiries,
# quota evictions, and the standard fault plan. The short-mode soak runs
# inside `make race` / `make ci`; this is the heavyweight version.
soak:
	CGCM_SOAK=1 $(GO) test -race -timeout 30m -run 'TestSoak' -v ./internal/server/

# No float product contracted into a fused multiply-add. Go may compile
# x*y + z to one FMA instruction on arm64 and riscv64, which rounds once
# where amd64 rounds twice, so the simulated clock would depend on the
# host; an explicit float64(x*y) forbids it. This compiles internal/ for
# arm64 and fails on any FMA in the assembly (amd64 never emits one, so
# no amd64 test can catch it). hostbench/ is outside internal/.
fpcontract:
	@GOARCH=arm64 $(GO) build ./internal/...
	@if GOARCH=arm64 $(GO) build -gcflags='cgcm/internal/...=-S' ./internal/... 2>&1 | grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\s'; then \
		echo "fpcontract: contracted products above; round each with float64(...)"; exit 1; fi

# Host-clock benchmark (BENCHMARK.json, hostbench/README.md): run the four
# workloads and print each end-to-end metric. Advisory — host time is
# noisy and one run is not a measurement — so it is not part of `ci` and
# never fails the build on a verdict. For verdicts, run it at the parent
# commit on the same machine first and keep that result as
# .bench_build/base.json (hostbench/baseline.json holds the reference
# medians as a summary; it is not a -compare input).
hostbench:
	bash hostbench/run.sh -all -out .bench_build/all.json
	@if [ -f .bench_build/base.json ]; then \
		bash hostbench/run.sh -compare .bench_build/base.json .bench_build/all.json || true; \
	else \
		echo "hostbench: no .bench_build/base.json to compare against (copy a parent-commit .bench_build/all.json there for verdicts)"; \
	fi

# Where the dispatch loop sits in a hostbench binary built as
# hostbench/run.sh builds it: the address of interp.(*exec).run, that
# address mod 64 and its size in bytes. run_compute's times move by a few
# percent with the loop's alignment alone (32 mod 64 has measured faster
# than 0), so a perf claim reports this line for both commits. Advisory,
# like hostbench, and not part of `ci`.
placement:
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	GOFLAGS=-buildvcs=false $(GO) build -o "$$d/hostbench" ./hostbench && \
	$(GO) tool nm -size "$$d/hostbench" | while read -r addr size _ name; do \
		if [ "$$name" = 'cgcm/internal/interp.(*exec).run' ]; then \
			echo "interp.(*exec).run at 0x$$addr, $$((0x$$addr % 64)) mod 64, $$size bytes"; fi; \
	done

ci: build fmtcheck vet fpcontract race allocs interpbenchsmoke compilebenchsmoke commbenchsmoke fuzzsmoke
