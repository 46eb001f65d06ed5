GO ?= go

.PHONY: build tools test race vet fmt check freshbuild loc smokecheck auditsmoke spillsmoke cachesmoke wiresmoke smpcsmoke mergesmoke bench benchcompare benchfull

build:
	$(GO) build ./...

# tools builds every command (mipd, mipctl, mipbench) into bin/, which git
# ignores.
tools:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

# race is also where `make check` runs the one-record coherence test
# (internal/federation TestOneRecordPerStatement), the session-pin statement
# and disclosure tests (internal/federation TestOneStatementPerSession and
# TestDisclosureCountsStepRelation) and the mipctl printer test (cmd/mipctl
# TestPrintersRenderEveryServerField): all live in ./... .
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
# design", then the engine + federation total it targets: these should go
# down.
loc:
	@for d in internal/engine internal/federation internal/obs internal/api cmd/mipctl \
		internal/algorithms internal/smpc cmd/mipbench internal/queue; do \
		printf '%-22s %6d non-test lines\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-22s %6d non-test lines\n' 'engine + federation' \
		$$(find internal/engine internal/federation -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# smokecheck fails when a name in any smoke target's -run list below
# matches no test function in the repo, so a deleted or renamed test cannot
# silently drop out of its smoke.
smokecheck:
	@fail=0; for name in $$(grep -oE "\-run '[^']+'" Makefile | grep -oE 'Test[A-Za-z0-9_]+' | sort -u); do \
		grep -rqF --include='*_test.go' "func $$name(" . || { echo "smokecheck: no test named $$name"; fail=1; }; \
	done; exit $$fail

# auditsmoke exercises the tamper-evident audit chain end to end: a JSONL
# sink round-trip (the mipd -audit-log format) plus mutation detection.
auditsmoke:
	$(GO) test -count=1 -run 'TestAuditJSONLSinkRoundTrip|TestVerifyChainDetectsMutatedMiddleEntry' ./internal/obs/

# spillsmoke runs the tiny-budget spill equivalence and cleanup tests: a
# few-KB budget forces every grouped aggregate to disk and every hash join
# into several passes, and the results must stay bit-identical with no run
# files left behind. It also runs the mid-input crossing: an aggregate
# whose budget is crossed partway keeps the partials built before it,
# spills only the later morsels, stays bit-identical and evaluates no
# morsel twice; and the mid-build crossing: a hash join whose budget is
# crossed while it admits its build partitions joins the earlier ones in
# its first pass, the later ones in later passes, and stays bit-identical,
# LEFT JOIN padding included. It runs the budgeted join+aggregate of
# engine_sql's shape: a pushed filter that keeps every row costs nothing,
# the join spends the 2 MB budget on its index, the aggregate over its
# stream spills nothing, and the statement peaks within 1.25x the budget;
# and a filter that keeps every row is its input, charging nothing. Last,
# the run files themselves: every type round-trips bit for bit, an empty
# batch survives, a session's directory goes with every run in it, and
# each kind of corrupt stream is refused with its own message. It also
# guards what the join must keep whichever pass joins a partition: a LEFT
# JOIN whose ON residual rejects every match of a left row keeps that row
# NULL-extended, in memory and under a tiny budget; and columns a
# statement never names cost it nothing, so tables with 20 unread columns
# appended give bit-identical answers with as many vectors touched and
# bytes spilled.
spillsmoke:
	$(GO) test -count=1 -run 'TestSpillSerialParallelEquivalence|TestSpillJoinEquivalence|TestSpillMidInputCrossing|TestSpillJoinMidBuildCrossing|TestSpillJoinAggStaysInBudget|TestAllPassFilterIsItsInput|TestSpillCleanupOnError|TestSpillCleanupOnCancel|TestRoundTripAllKinds|TestEmptyBatchAndZeroRuns|TestDirCleanup|TestReaderRejectsCorruptStreams|TestLeftJoinResidual|TestUnreadColumnsCostNothing' ./internal/engine/

# cachesmoke covers both cache tiers' correctness backbone: plan-cached
# execution stays bit-identical to uncached, one text is one entry shared
# by every DB, stays valid across DDL, memoizes merge SQL per part-table
# name and serves DBs of different schemas concurrently, dataset-version
# bumps and worker restarts invalidate federated results, a lookup probes
# every worker's stamp at once, and a concurrent miss herd collapses to one
# execution. It also
# runs what the versions rest on: statements read one catalog version while
# writers publish the next, and a write restamps only the datasets whose
# rows it added or removed. Last, the worker contract: a wrapped worker
# keeps caching, cancellation and query contexts, a failing stamp probe
# bypasses the cache, a flapping worker beside writers never gets a stale
# serve, and every snapshot refresh reaches availability. Last, session
# pins: a statement through an engine Snapshot reads the pinned version, a
# write between rounds leaves an iterative result equal to the one at the
# pin (plain and Shamir, in process and over HTTP) while a fresh session
# sees it, pins are released after Close and bounded, a lost pin fails
# loudly, concurrent sessions beside writers each read one version, and job
# ids never collide across masters.
cachesmoke:
	$(GO) test -count=1 -race -run 'TestPlanCacheResultsUnchanged|TestPlanCacheSharedAcrossDBs|TestPlanCacheSurvivesDDL|TestPlanCacheMergeMemoPerPartTable|TestPlanCacheConcurrentSchemas|TestResultKeyProbesConcurrently|TestResultCacheInvalidationOnAppend|TestResultCacheWorkerRestartInvalidates|TestResultCacheSingleflight|TestParallelSortEquivalence|TestCatalogSnapshotRace|TestDatasetVersionsDeclared|TestWrappedClientKeepsContract|TestStampFailureBypassesCache|TestFlappingWorkerCacheNeverStale|TestSnapshotRefreshedByEitherPath|TestSnapshotReadsPinnedVersion|TestWriteBetweenRounds|TestSessionReadsOnePinnedVersion|TestPinsReleasedAfterClose|TestPinLostFailsLoudly|TestConcurrentSessionsBesideWrites|TestJobIDsUniqueAcrossMasters' ./internal/engine/ ./internal/federation/ ./internal/algorithms/

# wiresmoke covers both wires a worker answers on. The /query table stream:
# merge answers over HTTP are bit-identical to in-process ones (NaN
# payloads, -0.0, Int64 past 2^53, NULLs, pushdown, median, degraded
# quorum), and a body cut at any byte is an error, never a shorter table.
# The /localrun step envelope: requests and answers round-trip bit for bit
# (-0.0, subnormals, nil against empty, span times), a body cut at any
# byte is an error, every algorithm's result is byte-identical in process
# and over HTTP, plain and secure, and a non-finite transfer fails the step
# with one message on both transports, as does a step body that panics (its
# replay too, and the handler finishes). A step body blocked in a loopback
# query unwinds when its job is cancelled, on both transports. Both formats
# are pinned byte for byte against recorded streams (testdata/*.mipt,
# *.mips), so any drift fails. A worker refuses a body past its cap with a final 413, while the
# largest legitimate one, a CART round's tree, still runs.
wiresmoke:
	$(GO) test -count=1 -race -run 'TestQueryHTTPMatchesInProcess|TestQueryStreamTruncation|TestStepEnvelopeRoundTrip|TestStepEnvelopeTruncation|TestTransportsAgree|TestNonFiniteTransferRejected|TestStepPanicFailsStep|TestCancelJobAbortsLoopback|TestTableStreamGolden|TestStepEnvelopeGolden|TestOversizedBodyRefused|TestLargestCartStepFitsBodyCap' ./internal/engine/ ./internal/federation/ ./internal/algorithms/

# smpcsmoke covers share import outside the cluster lock: four goroutines
# importing into two jobs while a third job aggregates (sums exact), and two
# concurrent secure experiments each within 1e-3 of the pooled answer. It
# also runs the op-tagged transfer: one round combining sum, min, max and
# union keys equally plain, full-threshold and Shamir, and workers that
# disagree on a key's op failing the round with no group's shares left.
smpcsmoke:
	$(GO) test -count=1 -race -run 'TestConcurrentImportAggregate|TestConcurrentSecureExperiments|TestMixedOpTransfer|TestOpDisagreementFails' ./internal/smpc/ ./internal/federation/

# mergesmoke guards federated ≡ pooled on the merge-table path: every
# pushed-down aggregate answers as the pooled engine does (same types, same
# NULLs, values within 1e-9, also on generated federations with empty and
# single-row parts, NULL keys and a constant column), GROUP BY-only and
# HAVING-only statements push down too, only partials ship, non-decomposable
# aggregates fall back to materializing, degraded quorums drop failing
# parts, quoted identifiers survive the per-part SQL, the merge memo is kept
# per part table, and EXPLAIN shows the plain statement's stages above the
# merge node. The federation half runs the same path over HTTP workers and
# through the tolerant master.
mergesmoke:
	$(GO) test -count=1 -race -run 'TestMergePushdownEquivalence|TestMergeMaterializeFallback|TestMergePushdownShipsOnlyAggregates|TestMergeMinPartsDegraded|TestMergeQuotedIdentifierPushdown|TestGroupedInExpr|TestExplainAnalyzeMergePushdown|TestPlanCacheMergeMemoPerPartTable|TestMergePushdownGroupOnly|TestMergeMatchesPooledGenerated|TestQueryHTTPMatchesInProcess|TestMergeQueryDegraded' ./internal/engine/ ./internal/federation/

check: vet fmt smokecheck race auditsmoke spillsmoke cachesmoke wiresmoke smpcsmoke mergesmoke

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
