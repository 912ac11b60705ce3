#!/bin/sh
# Full local verification: vet, build, tests, the race detector over the
# packages with concurrent internals (the split monitor, the pipelined WAL,
# the intent queue applier, and the lock-free disk stats), and the fault
# sweeps (crash points, torn log writes, scrub/salvage under decay).
#
# The architecture rules and the gofmt gate are not here: TestArchRules
# (archrules_test.go) holds them in go test ./..., and it also fails if a
# -run name below matches no test.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# Every test runs once, here — the gates included (what each one holds is in
# its doc comment). What follows runs a test only again: under -race, many
# times over (-count > 1), or as a go run smoke.
go test ./...
# The benchmark is its own module, so the line above skips it: its smoke
# test and TestBenchmarkJSON (BENCHMARK.json == the metric catalogue).
(cd benchmarks && go test ./...)
# (internal/btree is on the list because its readers walk the pager's pages
# in place, beside mutators that copy. parscan and sim: the pFSCK pool itself.)
go test -race ./internal/core ./internal/wal ./internal/disk ./internal/bufcache ./internal/btree ./internal/intentq ./internal/crashtest ./internal/server ./internal/wire ./client
go test -race ./internal/parscan ./internal/sim -count=1
# Per-layer wall-clock benches (perf-ledger item c), one iteration each: they
# must keep compiling and running; their numbers are read with -benchtime
# left alone. (core's include BenchmarkStream256K and BenchmarkScrubPass,
# which reports a clean scrub's simulated cost as sim-s/scrub; the write rows
# are core's BenchmarkWriteAt32K and BenchmarkCreate500B, wal's
# BenchmarkAppendForce16 and disk's BenchmarkGatherWrite; the crash mount's is
# core's BenchmarkMountScan: sim-s/op and hidden-s/op at widths 1, 2 and 8;
# vam's BenchmarkFindRun/small-area is a small create's downward search below
# the log; core's BenchmarkHomeWriteSweep is one third-crossing flush of 64
# scattered due sectors, in sim-ms/flush and rot-ms/req.)
go test ./internal/btree ./internal/vam ./internal/alloc ./internal/bufcache ./internal/core ./internal/wire ./internal/server ./internal/wal ./internal/disk -run xxx -bench . -benchtime 1x
# Core under the detector, once each:
# - the check passes: scrub against readers and against files deleted,
#   recreated and extended under its leader sweep (nothing repaired, nothing
#   reported); the sim-time repeat, since the detector reschedules; the
#   device halted under each interval's decode at widths 1/2/8 (no goroutine
#   outlives the sweep, a resume at another width rebuilds the same platters);
# - a commit group's placement: six creates on one cylinder in head order,
#   the floor of the small files never crossed, the raw path placed by Alloc;
# - the health-transition hammer, mount-scheduled scrub racing a workload and
#   the composed-fault recovery tests;
# - pFSCK's determinism goldens: byte-identical Verify problems at widths
#   1/2/8, salvage crash/resume across widths, a wide Verify racing readers.
go test -race ./internal/core -count=1 -run 'TestScrubConcurrentWithReaders|TestScrubLeaderSweepUnderChurn|TestCheckPassSimTimeRepeats|TestSalvageCrashWhileDecodeInFlight|TestMountCrashWhileDecodeInFlight|TestGroupCreatesShareACylinder|TestGroupPlacementStaysAboveSmallFiles|TestRawPathPlacementIsAlloc|TestHealthTransitionHammer|TestMountWhileScrubHammer|TestMountUnderComposedFaults|TestSalvageCrashResume|TestVerifyProblemsDeterministic|TestVerifyDuplicateOwnerDeterministic|TestVerifyUnderDecay|TestVerifyParallelWithReaders|TestParallelSalvageMatchesSequential|TestScrubSweepMatchesPerPage'
# The replay under the decode (DESIGN §8) publishes its overlay while the
# mount's pool is still checking: the mount tests again under the detector.
go test -race ./internal/core -count=3 -run 'TestReplayRunsUnderTheDecode|TestMountScanDecodesBehindTheArm|TestMountRebuildIdenticalAcrossWidths|TestSweepRebuildMatchesChainWalk|TestSweepReadOnlyOverlay|TestNTSweepReadCounts|TestMountReadOnly|TestMountOrSalvageReadOnlyRung|TestParallelMountEquivalence'
# The mount scan's sim time five times over, and pipelined chunks under eight
# goroutines: every copy still on the CPU, and no copy hidden under a
# transfer that was not its own call's.
go test -race ./internal/core -count=5 -run 'TestMountScanSimTimeRepeats|TestPipelinedCopiesUnderConcurrency'
# One atomic group per operation, under the detector and uncached: the WAL
# bracket itself, a force cutting into rename / create under keep /
# empty create / a split-inducing create run, the group held across the
# applier's in-place retry, and its abort on a fatal one. (...NeverShrinks:
# two writers on one handle, staged and async — the size update of a write
# only grows the file.)
go test -race ./internal/wal ./internal/core -count=1 -run 'TestGroupForceSeesAllOrNone|TestGroupCutByCrashLeavesNothing|TestGroupSynchronousForcesOnceAtEnd|TestGroupsSideBySide|TestGroupHeldAcrossApplierRetry|TestAbortStopsForces|TestCut|TestFatalApplyAbortsGroup|TestFailedDataWriteLeavesNoEntry|TestStaleHandleOpsRefused|TestConcurrentWriteAtNeverShrinks'
# Held writes (DESIGN §12): streams, reads, deletes and forces from several
# goroutines, staged and async, the held frames' cache and the commit
# group's fresh runs under them, again and again under the detector.
go test -race ./internal/core ./internal/bufcache -count=10 -run 'TestHeld|TestHold|TestLiveCheckTreatsHeldLeaderAsPending|TestDamageKeepsHeldFrames|TestFreshUntilForce'
# One walk per lookup and one call per growing write, under the detector:
# the applier parked and resumed around each call, and handles racing past
# the allocation.
go test -race . ./internal/core -count=1 -run 'TestNewestLookupIsOneWalk|TestGrowingWriteIsOneCall|TestConcurrentWriteGrowNoOverExtend'
# The decoders of what a disk or a socket hands back are total: each fuzz
# target explores for a fixed time from its seeds and committed corpus
# (testdata/fuzz), and a malformed input is an error, never a panic. The
# targets are listed from the packages themselves, so a new one is fuzzed
# without an edit here.
go test -list '^Fuzz' ./... \
	| awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' \
	| while read -r pkg target; do
		go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime 10s || exit 1
	done
# Bounded deterministic crash-state sweep: fixed seed, strided sample of
# the full enumeration (the complete 1000+-state sweep runs in the bench
# suite); well under a minute.
go run ./cmd/fsdctl crashcheck -seed 1 -states 200
# The same oracle with every mutation riding the asynchronous intent queue:
# acked ops must stay durable, unacked ops atomic.
go run ./cmd/fsdctl crashcheck -seed 1 -states 100 -async
# Crash images composed with read decay AND write faults: the recovery
# mount must absorb or demote, never corrupt.
go run ./cmd/fsdctl crashcheck -seed 13 -states 60 -decay 0.001 -writedecay 0.01
# Bounded nested (depth-2) sweep: crash each state's recovery at its own
# barrier epochs and recover again; the full 300-outer-state run is
# BENCH_nestedcrash.json, which go test ./internal/bench regenerates.
go run ./cmd/fsdctl crashcheck -nested -depth 2 -seed 1 -states 30 -inner 4
# The composed-fault mount on a hundred fresh seeds: with a fifth of all
# reads failing once, both copies of the root page fault on about one mount
# in thirty, and the root read has to retry like every other read.
go test ./internal/core -count=100 -run 'TestMountUnderComposedFaults$'
# Mini-soak: 2000 concurrent simulated clients for 5 seconds against an
# in-process server; exits nonzero on any protocol error or if the volume
# leaves the healthy state.
go run ./cmd/soak -clients 2000 -conns 16 -duration 5s -rate 5 -json /dev/null
