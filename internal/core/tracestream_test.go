package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
)

// TestTraceStreamPinned pins the trace stream core emits. One scripted
// sequence — a create, a sequential read that reads ahead, a write, a cached
// open, a force, a scrub, on the async volume a reader's wait on a pending
// intent, and a health transition — runs with tracing on, staged and async.
// Every event kind core emits must appear, and each kind's Op and A–D
// payload must add up to the counters that count the same thing over the
// same window: the spans, the disk's ops, sectors and time split, the log's
// staged and logged images, the name-table and data caches, the read-ahead,
// the intent queue's enqueues, applies and reader waits, the lock-wait
// histogram and the error budget. The replay of the crash mount that follows
// must leave its EvRecovery in the ring with tracing off.
func TestTraceStreamPinned(t *testing.T) { bothModes(t, traceStream) }

func traceStream(t *testing.T, cfg Config) {
	v, d, clk := newTestVolumeWith(t, cfg)
	const pages = 256
	growFile(t, v, "trace/big", pages)
	if err := v.DropCaches(); err != nil {
		t.Fatal(err)
	}

	var evs []obs.Event
	before := v.Stats()
	v.TraceTo(func(e obs.Event) { evs = append(evs, e) })

	if _, err := v.Create("trace/small", payload(1000, 1)); err != nil {
		t.Fatal(err)
	}
	// A fresh handle on the big file, read from its start in whole
	// transfers: a sequential reader, whose misses read ahead.
	f, err := v.Open("trace/big", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for page := 0; page < pages; page += MaxTransferSectors {
		b, err := f.ReadPages(page, MaxTransferSectors)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
	}
	if !bytes.Equal(got, payload(pages*disk.SectorSize, 5)) {
		t.Fatal("sequential read returned other bytes")
	}
	if err := f.WritePages(0, payload(MaxTransferSectors*disk.SectorSize, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Open("trace/small", 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Force(); err != nil {
		t.Fatal(err)
	}
	sst, err := v.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if v.q != nil {
		// The queue reports a reader that waited on a pending intent through
		// its OnWait hook, once the wait is over. The test calls the hook as
		// the queue would, past the queue's count: whether a real reader
		// parks before the applier gets to its intent is up to the
		// scheduler, and each one that does fires the hook too.
		v.queueConfig().OnWait("name", "trace/small")
		if err := v.DrainIntents(); err != nil {
			t.Fatal(err)
		}
	}
	v.degradeTo(HealthReadOnly, "trace stream test")
	v.TraceTo(nil)
	after := v.Stats()

	checkTraceStream(t, v, evs, before, after, sst, clk.Now())

	v.Crash()
	d.Revive()
	v2, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Crash()
	rs := v2.Stats().Recovery
	var rec []obs.Event
	for _, e := range v2.TraceEvents() {
		if e.Kind == obs.EvRecovery {
			rec = append(rec, e)
		}
	}
	if len(rec) != 1 {
		t.Fatalf("%d EvRecovery events in the ring after the crash mount, want 1", len(rec))
	}
	if e := rec[0]; e.Op != v2.Health().String() || !e.OK || e.A != int64(rs.LogRecords) || e.B != int64(rs.LogImagesApplied) ||
		e.C != int64(rs.LogTornRecords+rs.LogGapBreaks) || e.D != int64(rs.ReplayElapsed) || rs.LogRecords == 0 {
		t.Errorf("EvRecovery %+v; want op %q, records %d, images %d, torn+gaps %d, replay %v",
			e, v2.Health(), rs.LogRecords, rs.LogImagesApplied, rs.LogTornRecords+rs.LogGapBreaks, rs.ReplayElapsed)
	}
}

// checkTraceStream compares the events of one traced window with the
// counters' movement over it.
func checkTraceStream(t *testing.T, v *Volume, evs []obs.Event, before, after Stats, sst ScrubStats, now time.Duration) {
	t.Helper()
	byKind := map[obs.EventKind][]obs.Event{}
	for i, e := range evs {
		byKind[e.Kind] = append(byKind[e.Kind], e)
		if e.Time > now || v.q == nil && i > 0 && e.Time < evs[i-1].Time {
			t.Errorf("event %d (%v) stamped %v: after the clock's %v or before the event ahead of it", i, e.Kind, e.Time, now)
		}
		if !e.OK && e.Kind != obs.EvHealth {
			t.Errorf("event %d not OK: %v", i, e)
		}
	}
	kinds := []obs.EventKind{obs.EvDiskOp, obs.EvWALAppend, obs.EvWALForce, obs.EvCacheHit,
		obs.EvCacheMiss, obs.EvLockWait, obs.EvScrub, obs.EvOpSpan, obs.EvDataHit, obs.EvDataMiss,
		obs.EvReadAhead, obs.EvHealth}
	if v.q != nil {
		kinds = append(kinds, obs.EvIntentEnqueue, obs.EvIntentApply, obs.EvIntentWait)
	}
	for _, k := range kinds {
		if len(byKind[k]) == 0 {
			t.Errorf("no %v event in the traced window", k)
		}
	}
	sum := func(k obs.EventKind, keep func(obs.Event) bool, field func(obs.Event) int64) (n, total int64) {
		for _, e := range byKind[k] {
			if keep == nil || keep(e) {
				n++
				total += field(e)
			}
		}
		return n, total
	}
	a := func(e obs.Event) int64 { return e.A }
	b := func(e obs.Event) int64 { return e.B }
	c := func(e obs.Event) int64 { return e.C }
	dd := func(e obs.Event) int64 { return e.D }
	op := func(name string) func(obs.Event) bool { return func(e obs.Event) bool { return e.Op == name } }
	want := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: the trace says %d, the counters %d", what, got, want)
		}
	}

	// Spans: one event per call, A its latency, OK its outcome.
	for name, sp := range after.Spans {
		n, lat := sum(obs.EvOpSpan, op(name), a)
		want("span "+name+" count", n, sp.Count-before.Spans[name].Count)
		want("span "+name+" latency", lat, sp.Latency.Sum-before.Spans[name].Latency.Sum)
	}
	if n, _ := sum(obs.EvOpSpan, nil, a); n == 0 || len(after.Spans) == 0 {
		t.Error("no spans")
	}

	// Disk ops: Op is the class and the direction; A sectors, B seek, C
	// rotation, D transfer.
	dk := after.Disk.Sub(before.Disk)
	var seek, rot, xfer int64
	for i, r := range after.DiskRegions {
		for dir, io := range [2]DiskRegionIO{r.Read, r.Write} {
			was := [2]DiskRegionIO{before.DiskRegions[i].Read, before.DiskRegions[i].Write}[dir]
			seek += int64(io.Seek - was.Seek)
			rot += int64(io.Rotation - was.Rotation)
			xfer += int64(io.Transfer - was.Transfer)
		}
	}
	for _, e := range byKind[obs.EvDiskOp] {
		switch e.Op {
		case "data-read", "data-write", "meta-read", "meta-write":
		default:
			t.Errorf("disk op named %q", e.Op)
		}
	}
	isRead := func(e obs.Event) bool { return strings.HasSuffix(e.Op, "-read") }
	isWrite := func(e obs.Event) bool { return strings.HasSuffix(e.Op, "-write") }
	isData := func(e obs.Event) bool { return strings.HasPrefix(e.Op, "data-") }
	n, sectors := sum(obs.EvDiskOp, isRead, a)
	want("disk reads", n, int64(dk.Reads))
	want("sectors read", sectors, int64(dk.SectorsRead))
	n, sectors = sum(obs.EvDiskOp, isWrite, a)
	want("disk writes", n, int64(dk.Writes))
	want("sectors written", sectors, int64(dk.SectorsWritten))
	n, _ = sum(obs.EvDiskOp, isData, a)
	want("data-class ops", n, int64(dk.OpsByClass[disk.ClassData]))
	_, s := sum(obs.EvDiskOp, nil, b)
	want("seek ns", s, seek)
	_, s = sum(obs.EvDiskOp, nil, c)
	want("rotation ns", s, rot)
	_, s = sum(obs.EvDiskOp, nil, dd)
	want("transfer ns", s, xfer)

	// The log: A images staged per append, B its commit sequence; per force
	// A images logged, B records, C sectors, D the interval.
	_, s = sum(obs.EvWALAppend, nil, a)
	want("images staged", s, int64(after.Commit.ImagesStaged-before.Commit.ImagesStaged))
	for _, e := range byKind[obs.EvWALAppend] {
		if e.B <= 0 {
			t.Errorf("append without a commit sequence: %v", e)
		}
	}
	n, s = sum(obs.EvWALForce, nil, a)
	want("forces", n, after.Commit.ForceInterval.Count-before.Commit.ForceInterval.Count)
	want("images logged", s, int64(after.Commit.ImagesLogged-before.Commit.ImagesLogged))
	_, s = sum(obs.EvWALForce, nil, b)
	want("records", s, int64(after.Commit.Records-before.Commit.Records))
	_, s = sum(obs.EvWALForce, nil, c)
	want("log sectors", s, int64(after.Commit.SectorsWritten-before.Commit.SectorsWritten))
	_, s = sum(obs.EvWALForce, nil, dd)
	want("force intervals", s, after.Commit.ForceInterval.Sum-before.Commit.ForceInterval.Sum)

	// The name-table cache: one event per lookup, A the page.
	n, _ = sum(obs.EvCacheHit, nil, a)
	want("name-table hits", n, int64(after.Cache.Hits-before.Cache.Hits))
	n, _ = sum(obs.EvCacheMiss, nil, a)
	want("name-table misses", n, int64(after.Cache.Misses-before.Cache.Misses))
	for _, e := range append(byKind[obs.EvCacheHit], byKind[obs.EvCacheMiss]...) {
		if e.A < 0 || e.A >= int64(v.cfg.NTPages) {
			t.Errorf("name-table lookup of page %d", e.A)
		}
	}

	// The data cache: A the first sector, B the sectors; read-ahead B the
	// sectors beyond the demand.
	dc, dc0 := after.Cache.Data, before.Cache.Data
	_, s = sum(obs.EvDataHit, nil, b)
	want("data hits", s, int64(dc.Hits-dc0.Hits))
	_, s = sum(obs.EvDataMiss, nil, b)
	want("data misses", s, int64(dc.Misses-dc0.Misses))
	_, s = sum(obs.EvReadAhead, nil, b)
	want("read-ahead sectors", s, int64(dc.ReadAheadSectors-dc0.ReadAheadSectors))
	for _, k := range []obs.EventKind{obs.EvDataHit, obs.EvDataMiss, obs.EvReadAhead} {
		for _, e := range byKind[k] {
			if v.lay.region(int(e.A)) != regionData || e.B <= 0 {
				t.Errorf("%v outside the data region or empty: %v", k, e)
			}
		}
	}

	// The force's wait for the monitor.
	n, s = sum(obs.EvLockWait, op("force"), a)
	want("lock waits", n, after.LockWait.Count-before.LockWait.Count)
	want("lock wait ns", s, after.LockWait.Sum-before.LockWait.Sum)
	want("lock-wait events not named force", int64(len(byKind[obs.EvLockWait]))-n, 0)

	// The scrub: one pass, A what it repaired.
	n, s = sum(obs.EvScrub, op("pass"), a)
	want("scrub passes", n, int64(after.Faults.Scrubs-before.Faults.Scrubs))
	want("scrub repairs", s, int64(sst.Repaired()))

	// The health transition: Op the new state, A the budget spent.
	if hs := byKind[obs.EvHealth]; len(hs) != 1 || hs[0].Op != "read-only" || hs[0].OK || hs[0].A != int64(after.Faults.ErrorBudget) {
		t.Errorf("health events %v; want one to read-only with budget %d", hs, after.Faults.ErrorBudget)
	}

	if v.q == nil {
		return
	}
	// The intent queue: enqueue A the sequence, B the depth; apply A the
	// sequence, B its lag, C the depth left, under the enqueue's Op; a wait
	// Op its kind. Every wait the queue counts fires one event, and the
	// test's own hook call one more.
	is, is0 := after.Intent, before.Intent
	n, _ = sum(obs.EvIntentEnqueue, nil, a)
	want("intents enqueued", n, int64(is.Enqueued-is0.Enqueued))
	opOf := map[int64]string{}
	for i, e := range byKind[obs.EvIntentEnqueue] {
		if i > 0 && e.A <= byKind[obs.EvIntentEnqueue][i-1].A || e.B < 0 || e.Op == "" {
			t.Errorf("enqueue %d: %v", i, e)
		}
		opOf[e.A] = e.Op
	}
	n, s = sum(obs.EvIntentApply, nil, b)
	want("intents applied", n, int64(is.Applied-is0.Applied))
	want("apply lag ns", s, is.ApplyLag.Sum-is0.ApplyLag.Sum)
	for _, e := range byKind[obs.EvIntentApply] {
		if e.Op != opOf[e.A] || e.C < 0 {
			t.Errorf("apply %v; its enqueue was %q", e, opOf[e.A])
		}
	}
	for _, e := range byKind[obs.EvIntentWait] {
		if e.Op != "name" && e.Op != "prefix" && e.Op != "applied" {
			t.Errorf("reader wait of kind %q", e.Op)
		}
	}
	n, _ = sum(obs.EvIntentWait, nil, a)
	want("reader waits", n, is.ReaderWaits-is0.ReaderWaits+1)
}
