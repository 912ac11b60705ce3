package cedarfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Compile-time references for every re-exported type that the behavioral
// test below does not bind to a value.
var (
	_ File
	_ Entry
	_ MountStats
	_ MountOption
	_ MountReport
	_ Stats
	_ OpStats
	_ CacheStats
	_ CommitStats
	_ IntentStats
	_ SpanStats
	_ DiskStats
	_ DiskRegionStats
	_ DiskRegionIO
	_ ScrubStats
	_ SalvageStats
	_ VolumeFaultStats
	_ FaultConfig
	_ DiskFaultStats
	_ TraceEvent
	_ HistSnapshot
	_ Geometry
	_ DiskParams
)

// TestAPISurface exercises every exported name in cedarfs.go: the
// constructors, the redesigned Mount/Stats APIs, the trace hooks, and the
// error and class constants.
func TestAPISurface(t *testing.T) {
	// NewVolume: the one-call constructor.
	vol, err := NewVolume()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("api surface probe")
	f, err := vol.Create("probe.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	if e := f.Entry(); e.Class != Local {
		t.Fatalf("class = %v, want Local (%v, %v also exported)", e.Class, SymLink, Cached)
	}
	f2, err := vol.Open("probe.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f2.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("readback = %q, %v", got, err)
	}
	// Read again: the first pass filled the data cache, this one hits it.
	if _, err := f2.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := vol.Open("missing.txt", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing = %v, want ErrNotFound", err)
	}
	for _, e := range []error{ErrNotFound, ErrClosed, ErrIsSymlink, ErrReadOnly, ErrOffline} {
		if e == nil {
			t.Fatal("exported error is nil")
		}
	}

	// Stats: the one-call counter snapshot, with its nested sections.
	var st Stats = vol.Stats()
	var ops OpStats = st.Ops
	var cs CacheStats = st.Cache
	var dcs DataCacheStats = st.Cache.Data
	var cm CommitStats = st.Commit
	var ds DiskStats = st.Disk
	var fs VolumeFaultStats = st.Faults
	// The health state machine: a fresh volume is healthy and the states
	// are ordered by severity.
	var hl Health = st.Health
	if hl != HealthHealthy || hl.String() != "healthy" {
		t.Fatalf("fresh volume health = %v, want healthy", hl)
	}
	if !(HealthHealthy < HealthDegraded && HealthDegraded < HealthReadOnly &&
		HealthReadOnly < HealthOffline) {
		t.Fatal("health states not ordered by severity")
	}
	if ops.Creates != 1 || ops.Opens != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Fatalf("cache counters empty: %+v", cs)
	}
	// The data cache is on by default; the ReadAll above was served
	// through it (write-through Update at create, or a miss fill).
	if dcs.Capacity == 0 {
		t.Fatalf("data cache off by default: %+v", dcs)
	}
	if dcs.Hits+dcs.Misses == 0 {
		t.Fatalf("data cache saw no traffic: %+v", dcs)
	}
	// Config knobs for the data cache and the async pipeline are part of
	// the surface.
	_ = Config{DataCachePages: -1, ReadAhead: -1}
	_ = Config{AsyncApply: true, AdaptiveCommit: true}
	if ds.Ops == 0 {
		t.Fatalf("disk counters empty: %+v", ds)
	}
	// The per-region split of the same activity, and the home-write I/O
	// count beside the sector count.
	var regions []DiskRegionStats = st.DiskRegions
	if len(regions) != 5 || regions[0].Region != "log" || regions[0].Write.Ops == 0 || regions[0].Write.Busy <= 0 {
		t.Fatalf("disk regions = %+v", regions)
	}
	// Busy splits into the timing model's steps: seek, rotational wait and
	// transfer (no stall is injected here).
	for _, r := range regions {
		for _, io := range []DiskRegionIO{r.Read, r.Write} {
			if io.Busy != io.Seek+io.Rotation+io.Transfer || io.Ops > 0 && io.Transfer <= 0 {
				t.Fatalf("region %s: busy %v != seek %v + rotation %v + transfer %v", r.Region, io.Busy, io.Seek, io.Rotation, io.Transfer)
			}
		}
	}
	if cs.HomeWriteOps > cs.HomeWrites {
		t.Fatalf("home writes: %d I/Os carried %d sectors", cs.HomeWriteOps, cs.HomeWrites)
	}
	_ = cm
	_ = fs
	// A default volume runs the staged path: no intent queue.
	var iq IntentStats = st.Intent
	if iq.Enabled || cm.Adaptive {
		t.Fatalf("default volume reports async pipeline: %+v", iq)
	}
	var sp SpanStats = st.Spans["create"]
	if sp.Count != 1 {
		t.Fatalf("create span = %+v", sp)
	}
	var h HistSnapshot = sp.Latency
	if h.Count != 1 || h.Mean() <= 0 {
		t.Fatalf("create latency snapshot = %+v", h)
	}

	// TraceTo / TraceEvent / TraceSink: streaming plus the ring.
	var got []TraceEvent
	var sink TraceSink = func(ev TraceEvent) { got = append(got, ev) }
	vol.TraceTo(sink)
	if _, err := vol.Create("traced.txt", data); err != nil {
		t.Fatal(err)
	}
	if err := vol.Force(); err != nil {
		t.Fatal(err)
	}
	vol.TraceTo(nil)
	if len(got) == 0 || len(vol.TraceEvents()) == 0 {
		t.Fatalf("tracing produced no events (sink %d, ring %d)", len(got), len(vol.TraceEvents()))
	}

	// Stats is the one snapshot covering every counter family; the old
	// per-family accessors (Ops, CacheStats, FaultStats) are gone.
	if o := vol.Stats().Ops; o.Creates != 2 {
		t.Fatalf("Stats().Ops = %+v", o)
	}
	if err := vol.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Explicit disk construction: NewDisk, Format, and the Mount ladder.
	var _ = DefaultDiskParams
	d, clk, err := NewDisk(DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	var _ Clock = clk
	var _ *VirtualClock = clk
	var _ *Disk = d
	v2, err := Format(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Create("persist.txt", data); err != nil {
		t.Fatal(err)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	v3, rep, err := Mount(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var _ MountReport = rep
	if !rep.CleanShutdown || rep.Salvage != nil {
		t.Fatalf("default mount report = %+v", rep)
	}
	if err := v3.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// ReadOnly option: mutations refused, platters untouched.
	v4, rep4, err := Mount(d, Config{}, ReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !rep4.ReadOnly {
		t.Fatalf("read-only mount report = %+v", rep4)
	}
	if _, err := v4.Create("nope.txt", data); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("create on read-only mount = %v, want ErrReadOnly", err)
	}
	if f, err := v4.Open("persist.txt", 0); err != nil {
		t.Fatal(err)
	} else if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read-only readback = %q, %v", got, err)
	}

	// AllowSalvage on a healthy volume: the normal rung wins, no salvage.
	v5, rep5, err := Mount(d, Config{}, AllowSalvage())
	if err != nil {
		t.Fatal(err)
	}
	if rep5.Salvage != nil {
		t.Fatalf("healthy mount ran salvage: %+v", rep5.Salvage)
	}
	if err := v5.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// The async pipeline through the public surface: mutations ride the
	// intent queue, Stats reports it, and the adaptive deadline is live.
	v8, rep8, err := Mount(d, Config{AsyncApply: true, AdaptiveCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep8
	if _, err := v8.Create("async.txt", data); err != nil {
		t.Fatal(err)
	}
	if err := v8.WaitCommitted(v8.CommitSeq()); err != nil {
		t.Fatal(err)
	}
	st8 := v8.Stats()
	if !st8.Intent.Enabled || st8.Intent.Enqueued == 0 {
		t.Fatalf("async mount intent stats = %+v", st8.Intent)
	}
	if !st8.Commit.Adaptive || st8.Commit.ForceDeadline <= 0 {
		t.Fatalf("async mount commit stats = %+v", st8.Commit)
	}
	if f, err := v8.Open("async.txt", 0); err != nil {
		t.Fatal(err)
	} else if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("async readback = %q, %v", got, err)
	}
	if err := v8.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// A crash mount reports its phases on the simulated clock and how the
	// VAM scan's region sweep read the name table, in the mount report and
	// again in Stats().Recovery; a scrub reports its name-table and leader passes.
	dc, _, err := NewDisk(DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := Format(dc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vc.Create("crashed.txt", data); err != nil {
		t.Fatal(err)
	}
	if err := vc.Force(); err != nil {
		t.Fatal(err)
	}
	vc.Crash()
	dc.Revive()
	v9, rep9, err := Mount(dc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep9.VAMReconstructed || rep9.SweepPages == 0 || rep9.SweepChunks == 0 || rep9.SweepFallbacks != 0 {
		t.Fatalf("crash mount sweep counters = %+v", rep9.MountStats)
	}
	if rep9.ReplayElapsed <= 0 || rep9.RedoElapsed <= 0 || rep9.VAMElapsed <= 0 ||
		rep9.ReplayElapsed+rep9.RedoElapsed+rep9.VAMElapsed > rep9.Elapsed {
		t.Fatalf("crash mount phases = replay %v, redo %v, scan %v of %v",
			rep9.ReplayElapsed, rep9.RedoElapsed, rep9.VAMElapsed, rep9.Elapsed)
	}
	var rc RecoveryStats = v9.Stats().Recovery
	if !rc.Ran || rc.Elapsed != rep9.ReplayElapsed || rc.RedoElapsed != rep9.RedoElapsed || rc.ScanElapsed != rep9.VAMElapsed ||
		rc.SweepPages != rep9.SweepPages || rc.SweepChunks != rep9.SweepChunks || rc.SweepFallbacks != rep9.SweepFallbacks {
		t.Fatalf("Stats().Recovery = %+v, mount report = %+v", rc, rep9.MountStats)
	}
	var scs ScrubStats
	if scs, err = v9.Scrub(); err != nil {
		t.Fatal(err)
	}
	if scs.NTElapsed <= 0 || scs.LeaderElapsed <= 0 || scs.NTElapsed+scs.LeaderElapsed >= scs.Elapsed {
		t.Fatalf("scrub name-table pass %v and leader pass %v of %v", scs.NTElapsed, scs.LeaderElapsed, scs.Elapsed)
	}
	if err := v9.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Salvage: the direct destructive entry still recovers the file.
	v7, sst, err := Salvage(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sst.FilesRecovered < 1 {
		t.Fatalf("salvage stats = %+v", sst)
	}
	if f, err := v7.Open("persist.txt", 0); err != nil {
		t.Fatal(err)
	} else if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-salvage readback = %q, %v", got, err)
	}
	if err := v7.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// Compile-time references for the transport-agnostic FS surface.
var (
	_ FS
	_ Handle
	_ FileInfo
	_ FSStats
	_ ErrCode
	_ = Info
	_ = NewLocalFS
)

// TestErrorCodeRegistry freezes the numeric error registry. The numbers are
// wire protocol: a released code never changes meaning and is never reused,
// so this table is append-only — a failure here means a protocol break, not
// a test to update.
func TestErrorCodeRegistry(t *testing.T) {
	golden := map[ErrCode]string{
		0:   "ok",
		1:   "not-found",
		2:   "exists",
		3:   "closed",
		4:   "is-symlink",
		5:   "read-only",
		6:   "offline",
		7:   "salvage-in-progress",
		8:   "no-spares",
		9:   "root-lost",
		10:  "bad-name",
		11:  "halted",
		12:  "busy",
		13:  "bad-request",
		14:  "inconsistent",
		15:  "usage",
		255: "internal",
	}
	for code, name := range golden {
		if got := code.String(); got != name {
			t.Errorf("ErrCode(%d).String() = %q, want %q", uint16(code), got, name)
		}
	}
	// code -> error -> code round-trips for every registered code (the
	// property the wire protocol relies on to carry errors.Is across the
	// network).
	for code := range golden {
		if code == CodeOK || code == CodeInternal {
			continue
		}
		err := CodeError(code)
		if err == nil {
			t.Fatalf("CodeError(%v) = nil", code)
		}
		if back := Code(err); back != code {
			t.Errorf("Code(CodeError(%v)) = %v", code, back)
		}
	}
	// Canonical errors map to their codes, including wrapped.
	cases := []struct {
		err  error
		want ErrCode
	}{
		{nil, CodeOK},
		{ErrNotFound, CodeNotFound},
		{fmt.Errorf("open probe.txt: %w", ErrNotFound), CodeNotFound},
		{ErrExists, CodeExists},
		{ErrClosed, CodeClosed},
		{ErrIsSymlink, CodeIsSymlink},
		{ErrReadOnly, CodeReadOnly},
		{ErrOffline, CodeOffline},
		{ErrSalvageInProgress, CodeSalvageInProgress},
		{ErrNoSpares, CodeNoSpares},
		{ErrRootLost, CodeRootLost},
		{ErrBadName, CodeBadName},
		{ErrHalted, CodeHalted},
		{ErrBusy, CodeBusy},
		{ErrBadRequest, CodeBadRequest},
		{ErrInconsistent, CodeInconsistent},
		{ErrUsage, CodeUsage},
		{errors.New("unmapped"), CodeInternal},
	}
	for _, c := range cases {
		if got := Code(c.err); got != c.want {
			t.Errorf("Code(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// RemoteError wraps the canonical error for its code, so errors.Is
	// holds across the network boundary.
	re := &RemoteError{Code: CodeNotFound, Msg: "remote: not found"}
	if !errors.Is(re, ErrNotFound) {
		t.Error("RemoteError{CodeNotFound} does not wrap ErrNotFound")
	}
}

// TestExitCodes freezes the tooling exit-code contract derived from the
// registry: 0 success, 2 usage, 3 inconsistencies, 4 spare-pool
// exhaustion, 1 anything else.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{ErrUsage, 2},
		{fmt.Errorf("put needs a file name: %w", ErrUsage), 2},
		{ErrInconsistent, 3},
		{ErrNoSpares, 4},
		{ErrNotFound, 1},
		{ErrReadOnly, 1},
		{errors.New("anything else"), 1},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestConfigKnobBudget holds Config at the number of knobs it has. Every
// field doubles the configurations the tests and benchmarks would have to
// cover; of the 26 it once had, three had no setter anywhere, two more were
// set only by a formula benchmark and a test, and Synchronous became a
// negative GroupCommitInterval (DESIGN.md §13). The benchmark harness sets
// NTPages, DataCachePages, AsyncApply, AdaptiveCommit, CheckWorkers,
// ScrubWorkers, MountWorkers and ScrubInterval: those cannot go without a
// change to benchmarks/ first (TestBenchmarkHarnessBuilds).
func TestConfigKnobBudget(t *testing.T) {
	const budget = 20
	if n := reflect.TypeOf(Config{}).NumField(); n != budget {
		t.Fatalf("Config has %d fields, the budget is %d: before adding a knob, argue in DESIGN.md (§13, \"Knobs\") "+
			"which two callers need different values — one value in use is a constant — and what it replaces; "+
			"after removing one, lower the budget", n, budget)
	}
}
