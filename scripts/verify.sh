#!/bin/sh
# Full local verification: vet, build, tests, the race detector over the
# packages with concurrent internals (the split monitor, the pipelined WAL,
# the intent queue applier, and the lock-free disk stats), and the fault
# sweeps (crash points, torn log writes, scrub/salvage under decay).
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt must have nothing to say.
test -z "$(gofmt -l . | tee /dev/stderr)"

# Deprecated-name lint: the per-family Volume accessors and the WAL's
# historical recovery name were removed in favour of Stats() and Replay;
# new uses must not creep back in. (disk.FaultStats, receiver d, is a
# different, live API.)
! grep -rnE --include='*.go' '\.RecoverDry\(|(v|vol)\.(Ops|CacheStats|FaultStats)\(' . \
	|| { echo "verify: deprecated accessor resurfaced (use Stats() / Replay)"; exit 1; }
# Likewise the mount wrappers (Mount takes ReadOnly() / AllowSalvage()) and
# the second implementation every mutation once had: there is one path,
# core's mutate, and a *Async twin beside it is the fork coming back. (Whole
# identifiers only: TestMountOrSalvage is a test of Mount.)
! grep -rnE --include='*.go' '(^|[^[:alnum:]_])(MountReadOnly|MountOrSalvage|(create|touch|setKeep|delete|rename|extend|contract|setByteSize)(Class)?Async)\(' . \
	|| { echo "verify: a deleted wrapper or *Async mutation twin resurfaced (use Mount options / core's mutate)"; exit 1; }
# And the pool that could be started and left running beside its caller: it
# is how a check pass came to hand its device reads to the workers. A pass
# has one reader (DESIGN §17); parscan.Run over buffers already read is the
# only shape.
! grep -rnE --include='*.go' 'parscan\.Start\(' . \
	|| { echo "verify: parscan.Start resurfaced (one driver reads in address order, parscan.Run checks the buffers)"; exit 1; }

# One log walker (DESIGN §3.3): replay, the copy audit and Inspect read the
# records through wal's walk, the one function that decodes a record header or
# validates an end page. A call anywhere else in the package is a second record
# loop coming back by copy-paste — the three there were had drifted apart — and
# so is Log.Recover, the one-step replay a mount must not use.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/(decodeHeader|validEnd)\(/ && !/^func (decodeHeader|validEnd)\(/ && fn !~ /^func \(l \*Log\) walk\(/ { print FILENAME ":" FNR ": " $0 }' internal/wal/*.go | grep . \
	|| { echo "verify: a record header or end page is decoded outside wal's walk (read the log through walk)"; exit 1; }
! grep -rnE '\.Recover\(' internal/wal \
	|| { echo "verify: Log.Recover resurfaced (Replay, the home writes, then CompleteRecovery)"; exit 1; }

# And the lump: a check pass that reads a stretch and only then puts the pool's
# balanced CPU on the clock pays device plus pool where the overlapped pass
# pays the larger of the two. The three passes go through parscan.Overlap,
# which hands BalancedCPU to the clock's lane (DESIGN §17); their files have
# no call of it to make, and one — charged at once or summed up for later —
# is the sequential path coming back by copy-paste.
! grep -nE 'BalancedCPU\(' internal/core/salvage.go internal/core/verify.go internal/core/ntsweep.go \
	|| { echo "verify: a check pass takes BalancedCPU() into its own hands again (run it through parscan.Overlap)"; exit 1; }
# The same lump under its other name: scrub's leader pass charged the pool's
# TotalCPU() after the reads, and the mount's scan ran a pool of its own after
# the sweep. Neither file has a pool total to read any more.
! grep -nE 'TotalCPU\(' internal/core/scrub.go internal/core/volume.go \
	|| { echo "verify: scrub or mount reads a pool's TotalCPU() again (the checks ride parscan.Overlap's lane)"; exit 1; }
# And the decode after the sweep: scanForRebuild hands its per-page work to
# sweepNT's pool, which runs it behind the arm. A pool run of its own in there,
# or a pool total put on the clock, is that phase coming back by copy-paste.
! awk '/^func \(v \*Volume\) scanForRebuild\(/,/^}/' internal/core/volume.go \
	| grep -nE 'parscan\.Run\(|Charge\([^)]*(Balanced|Total|Max)CPU' \
	|| { echo "verify: scanForRebuild runs a pool after the sweep again (pass the per-page work to sweepNT)"; exit 1; }

# One copy charge on the data path (DESIGN §12, "Pipelined chunks"): core
# charges the CPU's copy of a sector only through Volume.copied, which hides
# it under the same call's next transfer and puts the rest on the clock. A
# CostPerSectorCopy anywhere else in the package is a serial copy coming back.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/CostPerSectorCopy/ && !/^[[:space:]]*\/\// && fn !~ /^func \(v \*Volume\) copied\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: CostPerSectorCopy charged outside Volume.copied (charge a data copy through copied)"; exit 1; }

# And the staging buffers of the data write path: a write lends its caller's
# buffer to the disk as a gather list (DESIGN §18), and a payload-sized copy
# on the way down is how it came to allocate 30 KB per operation.
! grep -rnE --include='*.go' '(^|[^[:alnum:]_])(joined|padded)[[:space:]]*:=' internal/core \
	|| { echo "verify: a joined/padded staging buffer resurfaced in internal/core (pass a gather list to writeSectorsFrom)"; exit 1; }

# Measured or deleted: the two Config knobs only a formula benchmark and a
# test set, the remote-file cache no product path used, and the two harnesses
# that published a modelled elapsed (disk + cpu/k) as a result. (Whole
# identifiers only.)
! grep -rnwE --include='*.go' 'SerialMonitor|ReadOneCopy|fscache|ConcurrencyReportRun|AsyncReportRun' . \
	|| { echo "verify: a deleted knob, package or formula harness resurfaced (publish a measured run, DESIGN §13)"; exit 1; }
# One clock and one bring-up (DESIGN §3.1, §15). The wall-clock Clock and the
# ticker goroutines it drove (group commit, periodic scrub) were never built
# by any binary, example or benchmark; group commit runs at operation
# boundaries on the virtual clock. The synchronous baseline is a negative
# GroupCommitInterval, not a field of its own. (Whole identifiers only: the
# unixfs and diskmodel comments that say "Synchronous" are prose.)
! grep -rnwE --include='*.go' 'RealClock|NewRealClock|RealTimeScale|startTicker|startScrubber|stopTicker' . \
	|| { echo "verify: the wall-clock ticker resurfaced (drive group commit with MaybeForce/Tick on the virtual clock)"; exit 1; }
! grep -rnE --include='*.go' '\.Synchronous([^[:alnum:]_]|$)|(^|[^[:alnum:]_])Synchronous[[:space:]]*:[[:space:]]*(true|false)|^[[:space:]]*Synchronous[[:space:]]+bool' . \
	|| { echo "verify: a Synchronous config field resurfaced (use a negative GroupCommitInterval)"; exit 1; }
# Format, both mounts and Salvage end in goLive, the one epilogue that starts
# the intent queue and marks the volume ready. A call of either anywhere else
# is a bring-up path wiring itself by hand again — how Salvage came to return
# an AsyncApply volume with no queue.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/(startIntentQueue|finishMount)\(/ && !/^[[:space:]]*\/\// && !/^func / && fn !~ /^func \(v \*Volume\) goLive\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: startIntentQueue or finishMount called outside goLive (end the bring-up in goLive)"; exit 1; }
# A detached CPU takes its charges off the clock. Two actors may do that: the
# intent-queue applier, a real second actor, and Table 5's 4.2 BSD
# delayed-write row, the paper's own model. Anywhere else it is a formula
# harness coming back.
! grep -rn --include='*.go' 'SetDetached(' . | grep -vE '^\./(internal/sim/|internal/core/intent\.go:|internal/bench/tables\.go:)' \
	|| { echo "verify: SetDetached outside the intent applier and Table 5 (measure on the clock instead)"; exit 1; }

# One record registry (DESIGN §11): bench.Records runs each BENCH file's
# experiment once, benchtab prints and writes it from that run (-json DIR),
# and go test ./internal/bench compares it with the committed file. A flag or
# a writer of its own for one record is a hand-kept list coming back. (Whole
# identifiers only: -json itself is the one flag.)
! grep -rnE --include='*.go' '"[[:alnum:]]+-json"' cmd/benchtab \
	|| { echo "verify: a per-record -<name>-json flag resurfaced in benchtab (register the record in bench.Records)"; exit 1; }
! grep -rnwE --include='*.go' 'func Write[[:alnum:]]+JSON' internal/bench \
	|| { echo "verify: a per-record Write<Name>JSON resurfaced in internal/bench (Record.Write writes every record)"; exit 1; }

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
# in place, beside mutators that copy.)
go test -race ./internal/core ./internal/wal ./internal/disk ./internal/bufcache ./internal/btree ./internal/intentq ./internal/crashtest ./internal/server ./internal/wire ./client
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
# (...UnderChurn: scrub's optimistic leader sweep against files deleted,
# recreated in place and extended under it — nothing repaired, nothing
# reported; ...SimTimeRepeats again because the detector reschedules;
# ...CrashWhileDecodeInFlight: the device halted during the read of interval
# i+1 with the decode of interval i running, at every interval and widths
# 1/2/8 — no goroutine outlives the sweep, the cursor covers nothing unmerged,
# a resume at another width rebuilds the same platters.)
# (...and the mount's twins: TestMountCrashWhileDecodeInFlight halts the device
# under each stretch's decode; TestMountScanSimTimeRepeats, five times over.)
go test -race ./internal/core -count=1 -run 'TestScrubConcurrentWithReaders|TestScrubLeaderSweepUnderChurn|TestCheckPassSimTimeRepeats|TestSalvageCrashWhileDecodeInFlight|TestMountCrashWhileDecodeInFlight'
go test -race ./internal/core -count=5 -run 'TestMountScanSimTimeRepeats'
# One atomic group per operation (ISSUE 17), under the detector and uncached:
# the WAL bracket itself, a force cutting into rename / create under keep /
# empty create / a split-inducing create run, the group held across the
# applier's in-place retry, and its abort on a fatal one. (...NeverShrinks:
# two writers on one handle, staged and async — the size update of a write
# only grows the file.)
go test -race ./internal/wal ./internal/core -count=1 -run 'TestGroup|TestAbortStopsForces|TestCut|TestFatalApplyAbortsGroup|TestFailedDataWriteLeavesNoEntry|TestStaleHandleOpsRefused|TestConcurrentWriteAtNeverShrinks'
# Pipelined chunks under eight goroutines, again and again under the
# detector: every copy still on the CPU, and no copy hidden under a transfer
# that was not its own call's.
go test -race ./internal/core -count=5 -run 'TestPipelinedCopiesUnderConcurrency'
# The concurrent health-transition hammer under the race detector.
go test -race ./internal/core -count=1 -run 'TestHealthTransitionHammer'
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
# Re-entrant recovery under the race detector: mount-scheduled scrub
# racing a workload, and the composed-fault recovery tests.
go test -race ./internal/core -count=1 -run 'TestMountWhileScrubHammer|TestMountUnderComposedFaults|TestSalvageCrashResume'
# ...and the composed-fault mount on a hundred fresh seeds: with a fifth of
# all reads failing once, both copies of the root page fault on about one
# mount in thirty, and the root read has to retry like every other read.
go test ./internal/core -count=100 -run 'TestMountUnderComposedFaults$'
# Mini-soak: 2000 concurrent simulated clients for 5 seconds against an
# in-process server; exits nonzero on any protocol error or if the volume
# leaves the healthy state.
go run ./cmd/soak -clients 2000 -conns 16 -duration 5s -rate 5 -json /dev/null
# Parallel check & repair (pFSCK pool) under the race detector: the
# parscan pool itself plus the determinism goldens — byte-identical
# Verify problems at widths 1/2/8, salvage crash/resume across widths,
# and a wide Verify racing concurrent readers.
go test -race ./internal/parscan ./internal/sim -count=1
go test -race ./internal/core -count=1 -run 'TestVerifyProblemsDeterministic|TestVerifyDuplicateOwnerDeterministic|TestVerifyUnderDecay|TestVerifyParallelWithReaders|TestParallelSalvageMatchesSequential|TestSweepRebuildMatchesChainWalk|TestScrubSweepMatchesPerPage'
