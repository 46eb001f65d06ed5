GO ?= go

.PHONY: build test race vet fmt check freshbuild loc auditsmoke spillsmoke cachesmoke wiresmoke bench benchcompare benchfull

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is also where `make check` runs the one-record coherence test
# (internal/federation TestOneRecordPerStatement) and the mipctl printer
# test (cmd/mipctl TestPrintersRenderEveryServerField): both live in ./... .
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt (CI-friendly).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# freshbuild builds and vets the committed tree (a git archive of HEAD), not
# the working tree: a source file that .gitignore swallows builds fine
# locally forever and fails only here.
freshbuild:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		git archive HEAD | tar -x -C "$$tmp" && cd "$$tmp" && $(GO) build ./... && $(GO) vet ./...

# loc prints the non-test line counts ROADMAP.md tracks under "quality of
# design": these should go down.
loc:
	@for d in internal/engine internal/federation internal/obs internal/api cmd/mipctl \
		internal/algorithms internal/udf internal/smpc cmd/mipbench; do \
		printf '%-22s %6d non-test lines\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done

# auditsmoke exercises the tamper-evident audit chain end to end: a JSONL
# sink round-trip (the mipd -audit-log format) plus mutation detection.
auditsmoke:
	$(GO) test -count=1 -run 'TestAuditJSONLSinkRoundTrip|TestVerifyChainDetectsMutatedMiddleEntry' ./internal/obs/

# spillsmoke runs the tiny-budget spill equivalence and cleanup tests: a
# few-KB budget forces every grouped aggregate and hash join to disk, and
# the results must stay bit-identical with no run files left behind.
spillsmoke:
	$(GO) test -count=1 -run 'TestSpillSerialParallelEquivalence|TestSpillJoinEquivalence|TestSpillCleanupOnError|TestSpillCleanupOnCancel' ./internal/engine/

# cachesmoke covers both cache tiers' correctness backbone: plan-cached
# execution stays bit-identical to uncached, schema changes invalidate
# plans, dataset-version bumps and worker restarts invalidate federated
# results, and a concurrent miss herd collapses to one execution.
cachesmoke:
	$(GO) test -count=1 -race -run 'TestPlanCacheResultsUnchanged|TestPlanCacheSchemaChangeInvalidates|TestResultCacheInvalidationOnAppend|TestResultCacheWorkerRestartInvalidates|TestResultCacheSingleflight|TestParallelSortEquivalence' ./internal/engine/ ./internal/federation/

# wiresmoke covers the worker /query table stream: merge answers over HTTP
# are bit-identical to in-process ones (NaN payloads, -0.0, Int64 past 2^53,
# NULLs, pushdown, median, degraded quorum), and a body cut at any byte is
# an error, never a shorter table.
wiresmoke:
	$(GO) test -count=1 -race -run 'TestQueryHTTPMatchesInProcess|TestQueryStreamTruncation' ./internal/federation/

check: vet fmt race auditsmoke spillsmoke cachesmoke wiresmoke

# bench runs the engine perf suite and writes BENCH_engine.json (the CI
# bench job uploads it as an artifact). Use benchfull for the testing.B
# companions across every package.
bench:
	$(GO) run ./cmd/mipbench -bench-out BENCH_engine.json

# benchcompare re-runs the suite and diffs ns/op and allocs/op against the
# checked-in BENCH_engine.json, failing past the regression threshold.
benchcompare:
	$(GO) run ./cmd/mipbench -compare BENCH_engine.json

benchfull:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
