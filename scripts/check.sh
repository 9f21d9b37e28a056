#!/bin/sh
# Full pre-merge gate: formatting, vet, build, and the whole test suite under
# the race detector (the parallel core.Run races and the pooled LP workspaces
# are the code this exists to police). Run from the repo root:
#
#	./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# -shuffle=on randomizes test (and subtest-parent) execution order so
# accidental inter-test coupling — a package-level cache warmed by an earlier
# test, say — fails loudly instead of riding on source order.
go test -race -shuffle=on ./...

# Robustness gate, named explicitly so a failure is attributable at a glance
# (these also ran inside the full suite above): the ledger crash-recovery
# chaos test, the server fault-injection scenarios, and the ledger-replay
# fuzz seed corpus, all under the race detector. The R2T_FAULTS spec arms an
# inert hit counter, proving the env-var chaos grammar parses and arms in a
# real test binary without perturbing any assertion.
R2T_FAULTS='ci.smoke=err,errno=EIO,on=-1' go test -race \
	-run 'TestChaos|TestServerFsync|TestServerReadyz|TestServerLPPanic|TestServerPanicInLeader|TestServerDegraded|TestServerSaturation|FuzzOpenLedger' \
	./internal/server/
go test -race -run 'TestDegrade|TestPanic|TestAllRacesFailed|TestCoreRaceFaultSite' ./internal/core/ ./internal/fault/

# LP gate, named explicitly (these also ran inside the full suite above):
# every release rests on the exact optimum of its τ-LP, so the one solve
# path (GridSolver.SolveTau, which Solve wraps) must match the test-only
# from-scratch reference pipeline bit for bit — X, Y, objective, status and
# work counters — including mixed fixed/τ rows and concurrent callers; it
# must pass its optimality certificates and stress corpora, and must surface
# iteration exhaustion instead of an overclaimed objective. Above it, the
# LP truncator must keep R2T's truncation properties and its Value/Values
# bit-identity and reject non-optimal solves, and parallel core.Run races
# must release the serial estimate — all under the race detector
# (DESIGN.md §3c).
go test -race -run 'TestGridSolveTau|TestGridMixed|TestGridConcurrent|TestQuickCertificate|TestMediumUnitProblems|TestIterationLimit|TestGridSolverIterationLimit' ./internal/lp/
go test -race -run 'TestLPProperties|TestValues|TestValueBitIdentical|TestIterationLimitPropagatesAsError' ./internal/truncation/
go test -race -run 'TestParallelBitIdenticalToSerial' ./internal/core/

# Executor equivalence gate, named explicitly (these also ran inside the
# full suite above): the optimized join executor must reproduce the frozen
# baseline bit-for-bit — row order, ψ bits, provenance refs, projection
# groups — at every worker count, and the single-join group-by must be
# indistinguishable from per-group runs, all under the race detector
# (DESIGN.md §10).
go test -race -run 'TestExecEquivalence|TestExecWorkers|TestExecSmallSide|TestIndexCache|TestRunPartitioned' ./internal/exec/
go test -race -run 'TestQueryExecWorkers|TestQueryGroupByExecWorkers|TestQueryGroupBySingleJoin|TestQueryGroupByDuplicate' .

# Join-sharing equivalence gate, named explicitly (these also ran inside the
# full suite above): the shared join core must hand every aggregate the
# bit-identical result of its own probe pass (exec level and released-answer
# level), concurrent mixed-aggregate queries must coalesce to at most one
# probe pass per (core, version) even interleaved with Append, and the r2td
# server must release identical estimates with sharing on or off — all under
# the race detector (DESIGN.md §12).
go test -race -run 'TestCoreBuildEquivalence|TestCoreSplitResultEquivalence|TestCorePartitionedResultEquivalence|TestCoreRejectsMismatchedPlan|TestCoreCache' ./internal/exec/
go test -race -run 'TestJoinSignature' ./internal/plan/
go test -race -run 'TestShareWorkloads' ./internal/experiments/
go test -race -run 'TestJoinShare|TestQueryBatch' .
go test -race -run 'TestServerJoinShare|TestAnswerCache' ./internal/server/

# Profiler gate, named explicitly (these also ran inside the full suite
# above): a disabled recorder must stay allocation-free on every hot path —
# profiling is always-on in r2td, so a nil-recorder regression is a tax on
# every query — and turning profiling ON must leave the released estimate
# bit-identical (profiling is pure observation, DESIGN.md §11).
go test -race -run 'TestRecorderDisabledAllocFree|TestRecorderConcurrent' ./internal/obs/
go test -race -run 'TestProfileBitIdenticalEstimate|TestProfileStagesSumWithinDuration|TestConcurrentAppendQuery' .

# Durable-storage gate, named explicitly (these also ran inside the full
# suite above): WAL record/header round-trip and corruption rejection, the
# segstore bootstrap/replay/torn-tail/poisoning scenarios, the 30-epoch
# crash-recovery chaos test (recovered tables are an exact prefix and serve
# bitwise-identical answers to a never-crashed twin), concurrent durable
# appends against Query/QueryBatch, the incremental index-extension
# equivalence suite (extended == freshly built, version-tag monotonicity),
# and the r2td restart-from-torn-WAL acceptance test — all under the race
# detector (DESIGN.md §13).
go test -race ./internal/segstore/
go test -race -run 'TestAppend|TestInsertChecked|TestCSV' ./internal/storage/
go test -race -run 'TestIndexExtend|TestExtendedIndexServedOnQueries' ./internal/exec/
go test -race -run 'TestServerDurableAppendRecovery' ./internal/server/

# Replication gate, named explicitly (these also ran inside the full suite
# above): the whole repl package (wire-format round-trip, hub/client
# integration, and the FuzzReplFrame seed corpus — arbitrary bytes never
# panic, never over-allocate, never apply past a failed CRC), the 30-epoch
# primary/replica failover chaos suite (injected fsync failures, torn
# writes, partitions, and mid-append panics; after every kill the replica's
# ledger must be a bitwise prefix of the dead primary's, every admitted
# charge must survive into the final ledger, and spend may only overcount),
# the catch-up/promotion/fencing acceptance scenario, the Retry-After and
# append-idempotency satellites, and the ledger mirror contract — all under
# the race detector (DESIGN.md §14).
go test -race ./internal/repl/
go test -race -run 'TestChaosFailoverPromotion|TestReplicationCatchUpServeAndPromote|TestRetryAfterOnEvery503|TestAppendIdempotency|TestAppendDedupUnit|TestLedgerMirrorContract' ./internal/server/

# Mechanisms gate, named explicitly (these also ran inside the full suite
# above): the closed-form partition truncator must be bit-identical to the
# simplex pipeline — structurally (randomized occurrence instances, both the
# integer-exact and emulation regimes) and end to end (seeded released
# answers with the fast path on vs off) — the mechanism chooser must be a
# data-independent pure function of the query shape and public parameters
# (neighboring datasets select identically), the baseline backends must pass
# their structural applicability rules, and no inapplicable or invalid
# mechanism request may ever charge ε (engine QueryWithBudget and the r2td
# pre-charge check), all under the race detector (DESIGN.md §15).
go test -race -run 'TestPartition' ./internal/truncation/
go test -race -run 'TestChoose|TestValidMechanism|TestErrorBounds|TestCostModel' ./internal/mech/
go test -race -run 'TestPartitionFastPath|TestMechanism|TestChooserDataIndependence|TestBudgetNotChargedForInapplicableMechanism' .
go test -race -run 'TestServerMechanismSelection|TestServerDatasetDefaultMechanism|TestServerInvalidDefaultMechanism' ./internal/server/

# Sharding gate, named explicitly (these also ran inside the full suite
# above): the shard package (routing classification, owner-hash stability,
# wire round-trip, pool scatter/hedge/retry), the partial-merge unit suite
# and the randomized library-level sharded-vs-unsharded bit-equality sweep
# (COUNT/SUM partials released through ReleasePartials over 1/2/4 shards),
# the router-tier acceptance tests (HTTP bit-equality against an unsharded
# twin, router-side stage profiles, append routing with X-R2T-Shard,
# charge-free structural gates, charge-stands-on-scatter-failure and 504 on
# a deadline mid-scatter), the 30-epoch kill-a-shard-mid-query chaos gate (one
# ledger record per admitted request, spent ε exact and within budget,
# 503 + Retry-After on failed scatters, every successful release bit-equal
# to the twin), and the redirect/retry satellites (always-set X-R2T-Primary
# on replica 409s, lag-scaled Retry-After, deterministic NodeName fallback)
# — all under the race detector (DESIGN.md §16).
go test -race ./internal/shard/
go test -race -run 'TestPartial|TestMergedPartition' ./internal/truncation/
go test -race -run 'TestShardedEquivalenceRandomized|TestPartialsGates' .
go test -race -run 'TestShardedEquivalence|TestRouterAppendRouting|TestRouterGates|TestRouterChargeOnScatterFailure|TestChaosShardKill|TestRetryAfterForLag|TestDefaultNodeName' ./internal/server/

# The service benchmark is its own module (svcbench/go.mod), so the ./...
# runs above skip it. Vet (which compiles it) and test it here, so a change
# to an engine API it imports fails this gate rather than the benchmark run.
(cd svcbench && GOFLAGS=-buildvcs=false go vet ./... && GOFLAGS=-buildvcs=false go test ./...)

# Benchmark-compile smoke: every benchmark builds and runs one iteration,
# so BENCH_*.json regeneration can't silently rot.
go test -run=NONE -bench=. -benchtime=1x ./...

echo "check.sh: all green"
