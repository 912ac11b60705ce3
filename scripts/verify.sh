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
# And the decode after the sweep: mountScan hands its per-page work to
# sweepNT's pool, which runs it behind the arm. A pool run of its own in
# there, or a pool total put on the clock, is that phase coming back by
# copy-paste.
! awk '/^func \(v \*Volume\) mountScan\(/,/^}/' internal/core/volume.go \
	| grep -nE 'parscan\.Run\(|Charge\([^)]*(Balanced|Total|Max)CPU' \
	|| { echo "verify: mountScan runs a pool after the sweep again (pass the per-page work to sweepNT)"; exit 1; }
# One replay per mount (DESIGN §8): the crash mount replays the log in
# replayScan, after the sweep's first transfers and under its decode. A
# Replay call anywhere else in core is a mount path replaying before it
# sweeps again.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/\.[Rr]eplay\(/ && fn !~ /^func \(v \*Volume\) replayScan\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: the log is replayed outside replayScan (replay in the mount scan, under the decode)"; exit 1; }

# One copy charge on the data path (DESIGN §12, "Pipelined chunks"): core
# charges the CPU's copy of a sector only through Volume.copied, which hides
# it under the same call's next transfer and puts the rest on the clock. A
# CostPerSectorCopy anywhere else in the package is a serial copy coming back.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/CostPerSectorCopy/ && !/^[[:space:]]*\/\// && fn !~ /^func \(v \*Volume\) copied\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: CostPerSectorCopy charged outside Volume.copied (charge a data copy through copied)"; exit 1; }

# One way out for file data (DESIGN §12, "Held writes"): a data write leaves
# core through writeChunk — to the platter, or into held frames — or through
# the force's pass over the held frames, writeHeld; only there is the gather
# form writeSectorsFrom called, and the data path's files (file.go, held.go,
# bytes.go, stream.go) call no other write. A write anywhere else bypasses
# the fresh-page check, and a held sector could then be overwritten behind
# the frame that the next force writes over it again.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/(writeSectorsFrom|WriteSectorsRetryFrom|WriteSectorsFrom|\.d\.WriteSectors)\(/ && fn !~ /^func \(v \*Volume\) (writeChunk|writeHeld|writeSectorsFrom|writeSectors)\(/ { print FILENAME ":" FNR ": " $0; next }
	FILENAME ~ /\/(file|held|bytes|stream)\.go$/ && /writeSectors\(/ && fn !~ /^func \(v \*Volume\) (writeChunk|writeHeld)\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: file data written outside writeChunk and the held pass (write through writeChunk)"; exit 1; }

# One walk per lookup (DESIGN §13): a call that names the newest version finds
# it in one scan of the name's versions (newestLocked), which decodes the entry
# from the value it found. The tree's Get is for a key that names its version:
# statLocked's explicit-version branch and the apply's read-modify-write of a
# touch. A Get anywhere else is the second descent coming back.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/\.nt\.Get\(/ && fn !~ /^func \(v \*Volume\) (statLocked|applyStep)\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: a name-table Get outside an explicit-version lookup (find the newest with newestLocked)"; exit 1; }
# One call per growing write (DESIGN §12, "Growing writes"): File.WriteAt grows
# the allocation itself, in the call that writes the data, under one intent. An
# Extend ahead of the write in the FS adapter or the stream writer is the
# three-call, two-intent grow coming back.
! grep -nE '\.Extend\(' localfs.go internal/core/stream.go \
	|| { echo "verify: the FS adapter or the stream writer extends before it writes (WriteAt grows the file)"; exit 1; }
# One growth path (DESIGN §3.5, "A stream's reservation"): grow and
# File.Extend take their pages from File.allocGrowth, which hands out a
# rewritten file's reservation before it asks alloc.Extend. An al.Extend call
# anywhere else in core is a growth that skips the reservation and lands in the
# lowest hole another stream is filling.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/al\.Extend\(/ && fn !~ /^func \(f \*File\) allocGrowth\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: al.Extend called outside File.allocGrowth (grow through allocGrowth)"; exit 1; }

# One placement per create (DESIGN §3.5, "A commit group's creates"):
# createClass takes its pages from placeCreate, which puts a commit group's
# small creates on one cylinder in the order the head meets them and hands
# every other create to Alloc. An allocator or VAM call of its own in there is
# a create that skips the group and lands wherever Alloc's first fit is.
! awk '/^func \(v \*Volume\) createClass\(/,/^}/' internal/core/file.go \
	| grep -vE '^[[:space:]]*//' | grep -nE '\.(al|vm)\.[[:alnum:]]+\(' \
	|| { echo "verify: createClass allocates outside placeCreate (take a create's pages from placeCreate)"; exit 1; }
awk '/^func \(v \*Volume\) createClass\(/,/^}/' internal/core/file.go | grep -q 'v\.placeCreate(' \
	|| { echo "verify: createClass no longer places through placeCreate"; exit 1; }

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
# Said once (DESIGN §12, "Held writes"): the data cache is the only list of
# held sectors (bufcache.Held), a commit group is one value (commitGroup), and
# leaderNotHome is the one question whether a leader is home yet. Each name
# below is a second copy of one of those facts that was kept by hand and
# retired. (Whole identifiers only.)
! grep -rnwE --include='*.go' 'heldSpans|noteHeld|HeldRange|freshRuns|groupPlace|leaderHeld' . \
	|| { echo "verify: a retired ledger resurfaced (take the held set from bufcache.Held, the group from commitGroup, ask leaderNotHome)"; exit 1; }
# Each counter and each trace event said once (DESIGN §11): core emits every
# event through Volume.trace, which checks, stamps and emits; the data cache's
# counters are bufcache.Stats; no gauge is kept that nothing reads; and a write
# that moves the end of file is one call (grow). Each name below is a per-kind
# emitter, a write-only gauge or the size update a write once made on its own.
# (Whole identifiers only.)
! grep -rnwE --include='*.go' 'traceCache|traceData|traceReadAhead|traceCoalesce|traceScrub|queueDepth|growOnly|Gauge' . \
	|| { echo "verify: a retired emitter, gauge or growOnly resurfaced (emit through Volume.trace, grow through WriteAt)"; exit 1; }
! awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/tracer\.Emit\(/ && fn !~ /^func \(v \*Volume\) trace\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: a trace event emitted outside Volume.trace (build the event and pass it to v.trace)"; exit 1; }
# One run walk (DESIGN §12): no run table holds two runs that meet on the
# disk — Alloc and Join make every table — so Entry.ContiguousFrom's per-run
# walk is the transfer plan, and nothing merges runs again or counts merged
# transfers. (Whole identifiers only.)
! grep -rnwE --include='*.go' 'PhysContiguousFrom|NoteCoalescedRead|NoteCoalescedWrite|EvCoalesce|CoalescedWrites' . \
	|| { echo "verify: a cross-run merge resurfaced (walk the run table with Entry.ContiguousFrom; alloc.Join keeps it merged)"; exit 1; }
# One retried read (DESIGN §14): disk.ReadSectorsRetryInto is the one loop
# that re-issues a read, resuming at the failing sector, and every retried
# read in core and the WAL reports through noteReadFault, the one place that
# counts retries and the reads they saved. A bump of either counter anywhere
# else is a second retry loop keeping its own books; a bare device read
# outside the single-pass optimistic readers (the name-table sweep, the
# meta-page probe, scrub's leader sweep, the decay injector) is a read that
# gets no retries at all, or builds its own.
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/faults\.(retries|retriedOK)\.(Add|Store|Swap|CompareAndSwap)\(/ && fn !~ /^func \(v \*Volume\) noteReadFault\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: a read-retry counter bumped outside noteReadFault (report the read through noteReadFault)"; exit 1; }
! awk 'FILENAME ~ /_test\.go$/ || FILENAME ~ /\/faultexp\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/\.ReadSectors(Into)?\(/ && fn !~ /^func \(v \*Volume\) (sweepNT|homeTable|scrubLeaders)\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: a device read outside the single-pass readers (read through readSectorsRetryInto)"; exit 1; }
# One read past damage (DESIGN §14): disk.ReadPast is the one loop that
# resumes behind a sector that stayed unreadable — the salvage sweep,
# finalize's mirror of copy A, replay's reader and the log audit read through
# it, and take a dead sector's twin instead of reading it again. readPast was
# salvage's private copy of the loop (whole identifier). A DamagedError caught
# in core outside the write classifier (noteWriteFault) and the intent
# queue's Retryable (queueConfig) is a second resume loop; a device read in
# the WAL outside readData, the audit's run read (logRuns.load) and the
# anchor audit is a sector read again on its own.
! grep -rnwE --include='*.go' 'readPast' . \
	|| { echo "verify: salvage's readPast resurfaced (read past damage with disk.ReadPast)"; exit 1; }
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/\*disk\.DamagedError/ && fn !~ /^func \(v \*Volume\) (noteWriteFault|queueConfig)\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: a DamagedError caught in core outside the write classifier and Retryable (read past damage with disk.ReadPast)"; exit 1; }
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/(\.ReadSectors(Into)?|ReadSectorsRetry(Into)?|\.VerifyRead)\(/ && fn !~ /^func \((l \*Log\) (readData|scrubAnchor)|r \*logRuns\) load)\(/ { print FILENAME ":" FNR ": " $0 }' internal/wal/*.go | grep . \
	|| { echo "verify: a WAL device read outside readData, the audit's run read and scrubAnchor (read a span past damage, once)"; exit 1; }
# One head order (DESIGN §17): a check pass's leader reads go out through
# issueByPosition — cylinders ascending, inside a cylinder the leader the head
# reaches soonest — from readLeaders, the one helper Verify and scrub share.
# In verify.go and scrub.go a read (the pass's read callback, or a device
# read) is issued only inside a closure handed to issueByPosition, readLeaders
# or sweepLeaders, or on the per-page and per-suspect paths (scrubRoots,
# scrubNTPage, scrubLeader, the retried read itself); readLeaders issues
# through issueByPosition; and core asks the disk where the head will be
# (ArrivalAngle, PositionTime) only in issueByPosition. A read loop over the
# sorted refs is address order coming back, and another caller of the
# position queries is a second ordering routine.
! awk 'FNR == 1 { fn = ""; end = "" } /^func / { fn = $0; end = "" }
	/^[[:space:]]*\/\// { next }
	end != "" { if ($0 == end) end = ""; next }
	/(issueByPosition|readLeaders|sweepLeaders)\(.*func\(/ && !/^func / { match($0, /^\t*/); end = substr($0, 1, RLENGTH) "})"; next }
	/(^|[^[:alnum:]_.])read\(|ReadSectors(Into)?\(|ReadSectorsRetry(Into)?\(|readSectorsRetry(Into)?\(/ && fn !~ /^func \(v \*Volume\) (scrubRoots|scrubNTPage|scrubLeader|readSectorsRetry|readSectorsRetryInto)\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/verify.go internal/core/scrub.go | grep . \
	|| { echo "verify: a check pass reads outside issueByPosition's order (read leaders through readLeaders)"; exit 1; }
awk '/^func \(v \*Volume\) readLeaders\(/,/^}/' internal/core/verify.go | grep -q 'v\.issueByPosition(' \
	|| { echo "verify: readLeaders no longer issues its reads through issueByPosition"; exit 1; }
! awk 'FILENAME ~ /_test\.go$/ { next } FNR == 1 { fn = "" } /^func / { fn = $0 }
	/^[[:space:]]*\/\// { next }
	/\.(ArrivalAngle|PositionTime)\(/ && fn !~ /^func \(v \*Volume\) issueByPosition\(/ { print FILENAME ":" FNR ": " $0 }' internal/core/*.go | grep . \
	|| { echo "verify: core asks where the head will be outside issueByPosition (order requests through issueByPosition)"; exit 1; }
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
# The replay under the decode (DESIGN §8) publishes its overlay while the
# mount's pool is still checking: the mount tests again under the detector.
go test -race ./internal/core -count=3 -run 'TestReplayRunsUnderTheDecode|TestMountScanDecodesBehindTheArm|TestMountRebuildIdenticalAcrossWidths|TestSweepRebuildMatchesChainWalk|TestSweepReadOnlyOverlay|TestNTSweepReadCounts|TestMountReadOnly|TestMountOrSalvageReadOnlyRung|TestParallelMountEquivalence'
# One atomic group per operation (ISSUE 17), under the detector and uncached:
# the WAL bracket itself, a force cutting into rename / create under keep /
# empty create / a split-inducing create run, the group held across the
# applier's in-place retry, and its abort on a fatal one. (...NeverShrinks:
# two writers on one handle, staged and async — the size update of a write
# only grows the file.)
go test -race ./internal/wal ./internal/core -count=1 -run 'TestGroup|TestAbortStopsForces|TestCut|TestFatalApplyAbortsGroup|TestFailedDataWriteLeavesNoEntry|TestStaleHandleOpsRefused|TestConcurrentWriteAtNeverShrinks'
# Held writes (DESIGN §12): streams, reads, deletes and forces from several
# goroutines, staged and async, the held frames' cache and the commit
# group's fresh runs under them, again and again under the detector.
go test -race ./internal/core ./internal/bufcache -count=10 -run 'TestHeld|TestHold|TestLiveCheckTreatsHeldLeaderAsPending|TestDamageKeepsHeldFrames|TestFreshUntilForce'
# A commit group's placement under the detector: six creates on one cylinder
# in head order, the floor of the small files never crossed, and the raw path
# placed by Alloc alone.
go test -race ./internal/core -count=1 -run 'TestGroupCreatesShareACylinder|TestGroupPlacementStaysAboveSmallFiles|TestRawPathPlacementIsAlloc'
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
