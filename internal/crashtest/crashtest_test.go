package crashtest

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// TestExploreAllStates is the tentpole acceptance check: the full
// enumeration for the default workload covers well over a thousand distinct
// crash states, every one of them mounts, and the durability oracle holds in
// all of them.
func TestExploreAllStates(t *testing.T) {
	res, err := Run(Config{Seed: 1, StateID: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("states=%d (prefix=%d reorder=%d torn=%d) epochs=%d writes=%d acked=%d unacked=%d",
		res.States, res.PrefixStates, res.ReorderStates, res.TornStates,
		res.Epochs, res.TracedWrites, res.AckedOps, res.UnackedOps)
	if res.States < 1000 {
		t.Fatalf("enumerated only %d crash states, want >= 1000", res.States)
	}
	if res.PrefixStates == 0 || res.ReorderStates == 0 || res.TornStates == 0 {
		t.Fatalf("enumeration missing a family: prefix=%d reorder=%d torn=%d",
			res.PrefixStates, res.ReorderStates, res.TornStates)
	}
	if res.MountFailures != 0 {
		t.Fatalf("%d crash states failed to mount", res.MountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("violation (repro: seed=%d state=%d): %s [%s]", v.Seed, v.StateID, v.Desc, v.State)
	}
	if res.AckedOps == 0 || res.UnackedOps == 0 {
		t.Fatalf("workload must leave both acked (%d) and unacked (%d) ops", res.AckedOps, res.UnackedOps)
	}
	// The log-recovery counters must have fired somewhere across the sweep:
	// torn records from torn log writes, discarded tails from unsynced
	// record prefixes.
	if res.TornRecords == 0 {
		t.Error("no state exercised a torn log record")
	}
	if res.TailDiscarded == 0 {
		t.Error("no state exercised a discarded uncommitted tail")
	}
	min, med, max := res.RecoverySummary()
	t.Logf("recovery times: min=%v median=%v max=%v", min, med, max)
	if max == 0 {
		t.Error("recovery times not collected")
	}
}

// TestWriteThroughCacheDurability is the data-cache composition check: the
// buffer cache is write-through — every data write reaches the platter
// before the operation acks, and recovery mounts start cold — so exploring
// crash states with a deliberately tiny cache (constant eviction and refill
// churn during the oracle's content reads) must change nothing: every state
// mounts and the durability oracle holds in all of them.
func TestWriteThroughCacheDurability(t *testing.T) {
	explorerDataCachePages = 64 // 4 frames per shard: evicts on every scan
	defer func() { explorerDataCachePages = 0 }()
	res, err := Run(Config{Seed: 3, MaxStates: 300, StateID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.States == 0 {
		t.Fatal("no crash states executed")
	}
	if res.MountFailures != 0 {
		t.Fatalf("%d crash states failed to mount with the tiny data cache", res.MountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("violation (repro: seed=%d state=%d): %s [%s]", v.Seed, v.StateID, v.Desc, v.State)
	}
}

// TestAsyncPipelineDurability reruns the exploration with the asynchronous
// metadata pipeline on: every mutation goes through the intent queue, yet
// every crash state must mount, acked ops must survive, unacked ops must be
// atomic, and WaitCommitted must remain the only durability promise.
func TestAsyncPipelineDurability(t *testing.T) {
	res, err := Run(Config{Seed: 5, MaxStates: 400, StateID: -1, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.States == 0 {
		t.Fatal("no crash states executed")
	}
	if res.MountFailures != 0 {
		t.Fatalf("%d crash states failed to mount with the async pipeline", res.MountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("violation (repro: seed=%d state=%d async): %s [%s]", v.Seed, v.StateID, v.Desc, v.State)
	}
	if res.AckedOps == 0 || res.UnackedOps == 0 {
		t.Fatalf("async workload must leave both acked (%d) and unacked (%d) ops", res.AckedOps, res.UnackedOps)
	}
}

// TestSmallLogSweepBoundaries explores a workload whose log is the smallest
// legal one, staged and through the intent queue: it wraps every few
// operations, so the trace is full of third-crossing home-write sweeps and
// the enumerated prefixes, reorderings and torn writes fall inside the
// copy-A pass, between the passes, and inside the copy-B pass. Every state
// must mount and the durability oracle must hold in all of them.
func TestSmallLogSweepBoundaries(t *testing.T) {
	for _, async := range []bool{false, true} {
		res, err := Run(Config{Seed: 17, Ops: 400, StateID: -1, MaxStates: 600, Async: async, LogSectors: 4 + 3*83})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("async=%v: %d third crossings, %d of %d states, %d traced writes",
			async, res.ThirdCrossings, res.States, res.StatesTotal, res.TracedWrites)
		if res.ThirdCrossings < 12 {
			t.Fatalf("async=%v: only %d third crossings inside the explored window", async, res.ThirdCrossings)
		}
		if res.MountFailures != 0 {
			t.Fatalf("async=%v: %d crash states failed to mount", async, res.MountFailures)
		}
		for _, v := range res.Violations {
			t.Errorf("violation (repro: seed=%d state=%d async=%v small log): %s [%s]", v.Seed, v.StateID, async, v.Desc, v.State)
		}
	}
}

// TestSmallLogSample is the small-log sweep: seeds 17, 18, 19 and 21 on the
// three smallest logs of three divisions, staged and through the intent
// queue, 200 evenly strided crash states each — all but seed 17 on the
// smallest log, which TestSmallLogSweepBoundaries explores more deeply.
// Every state must mount and hold the oracle. (Before the log kept its own
// table of committed images, a batch that re-logged a name-table sector and
// then crossed, mid-batch, into the third holding that sector's committed
// image skipped it there, and a crash before the batch's end left the page
// with no good copy: 10 of these 24 configurations had a state that failed
// to mount.) -short runs the staged runs of seeds 18, 19 and 21 on the two
// smallest logs.
func TestSmallLogSample(t *testing.T) {
	for _, async := range []bool{false, true} {
		for _, seed := range []int64{17, 18, 19, 21} {
			for _, n := range []int{83, 100, 130} {
				if seed == 17 && n == 83 || testing.Short() && (async || seed == 17 || n == 130) {
					continue
				}
				t.Run(fmt.Sprintf("async=%v/seed=%d/log=4+3*%d", async, seed, n), func(t *testing.T) {
					res, err := Run(Config{Seed: seed, Ops: 400, StateID: -1, MaxStates: 200, Async: async, LogSectors: 4 + 3*n})
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range res.Violations {
						t.Errorf("state %d: %s [%s]", v.StateID, v.Desc, v.State)
					}
				})
			}
		}
	}
}

// TestShutdownCrashStates crashes a run whose last step is Shutdown in every
// state the explorer enumerates from the epoch Shutdown began on: inside the
// checkpoint's home sweeps, the allocation map's save and the clean stamp. A
// cut before the stamp's epoch mounts unclean and replays the log; a cut
// after it mounts clean and replays nothing, and so does a cut inside it
// whose landed root copy reads clean. Every state mounts and holds the
// durability oracle, which takes Shutdown's return as acknowledging every
// operation.
func TestShutdownCrashStates(t *testing.T) {
	const seed = 1
	for _, async := range []bool{false, true} {
		w, err := buildWorkload(seed, 120, async, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		x := newExplorer(Config{Seed: seed, Async: async}, w)
		states, clean, replayed := 0, 0, 0
		for _, st := range Enumerate(w.trace, w.epochs, seed) {
			if st.Cut < w.shutdownFrom {
				continue
			}
			states++
			sr := x.run(st)
			for _, v := range sr.violations {
				t.Errorf("async=%v: %s [%s]", async, v.Desc, v.State)
			}
			switch {
			case sr.mountFail:
			case st.Cut < w.stamp && sr.clean, st.Cut > w.stamp && !sr.clean:
				t.Errorf("async=%v: %s mounted clean=%v; the stamp is epoch %d", async, st, sr.clean, w.stamp)
			case sr.clean && sr.records != 0:
				t.Errorf("async=%v: %s mounted clean and replayed %d records", async, st, sr.records)
			case !sr.clean && sr.records == 0:
				t.Errorf("async=%v: %s mounted unclean and replayed nothing", async, st)
			case sr.clean:
				clean++
			default:
				replayed++
			}
		}
		t.Logf("async=%v: %d states over epochs %d-%d (stamp %d): %d mounted clean, %d replayed",
			async, states, w.shutdownFrom, w.epochs, w.stamp, clean, replayed)
		if w.stamp-w.shutdownFrom < 3 || clean == 0 || replayed == 0 {
			t.Fatalf("async=%v: Shutdown spans epochs %d-%d, stamp %d; %d states mounted clean, %d replayed",
				async, w.shutdownFrom, w.epochs, w.stamp, clean, replayed)
		}
	}
}

// TestAsyncRunLeavesNoGoroutine: every recovered volume of an async run is
// crashed when its state is done, so its applier goroutine does not outlive
// the run, nor keep the volume and its disk alive.
func TestAsyncRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(Config{Seed: 5, Ops: 60, MaxStates: 40, StateID: -1, Async: true}); err != nil {
		t.Fatal(err)
	}
	// A closed queue's applier returns on its own time: give it a moment.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before the run, %d after", before, after)
	}
}

// TestAsyncTraceDeterministic: with the per-op drain, the async workload's
// journal trace is a pure function of the seed, so (seed, state-id) repro
// stays valid in async mode. It is what the drain is for: take the drain out
// and two identical runs differ within the first few dozen writes, because
// the entries' timestamps come from a clock the applier's reads advance. The
// drain hides nothing from the oracle that it could otherwise see — the
// explorer's forces sit between operations either way.
func TestAsyncTraceDeterministic(t *testing.T) {
	wa, err := buildWorkload(11, 60, true, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := buildWorkload(11, 60, true, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ta, ea, tb, eb := wa.trace, wa.epochs, wb.trace, wb.epochs
	if ea != eb || len(ta) != len(tb) {
		t.Fatalf("async trace shape differs: %d/%d epochs, %d/%d writes", ea, eb, len(ta), len(tb))
	}
	for i := range ta {
		if ta[i].Epoch != tb[i].Epoch || ta[i].Addr != tb[i].Addr || !bytesEqual(ta[i].Data, tb[i].Data) {
			t.Fatalf("async trace write %d differs between identical runs", i)
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEnumerationDeterministic: same (trace, seed) must yield the identical
// state list — IDs are stable, so (seed, state-id) reproduces an image.
func TestEnumerationDeterministic(t *testing.T) {
	w, err := buildWorkload(7, 60, false, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	a := Enumerate(w.trace, w.epochs, 7)
	b := Enumerate(w.trace, w.epochs, 7)
	if len(a) != len(b) {
		t.Fatalf("enumeration size differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("state %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestSingleStateRepro: Config.StateID re-executes exactly one state and
// returns the same verdict as the full sweep did for it.
func TestSingleStateRepro(t *testing.T) {
	full, err := Run(Config{Seed: 3, Ops: 40, StateID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if full.States < 100 {
		t.Fatalf("short workload still expected >= 100 states, got %d", full.States)
	}
	pick := full.StatesTotal / 2
	one, err := Run(Config{Seed: 3, Ops: 40, StateID: pick})
	if err != nil {
		t.Fatal(err)
	}
	if one.States != 1 {
		t.Fatalf("repro run executed %d states, want 1", one.States)
	}
	if one.MountFailures != 0 || len(one.Violations) != 0 {
		t.Fatalf("repro of a passing state failed: %+v", one.Violations)
	}
	if _, err := Run(Config{Seed: 3, Ops: 40, StateID: full.StatesTotal + 5}); err == nil {
		t.Fatal("out-of-range state id must error")
	}
}

// TestStridedSampling: MaxStates bounds the executed set while keeping the
// run meaningful.
func TestStridedSampling(t *testing.T) {
	res, err := Run(Config{Seed: 5, Ops: 60, StateID: -1, MaxStates: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 80 {
		t.Fatalf("executed %d states, want 80", res.States)
	}
	if res.StatesTotal <= 80 {
		t.Fatalf("full enumeration (%d) should exceed the cap", res.StatesTotal)
	}
	if res.MountFailures != 0 || len(res.Violations) != 0 {
		t.Fatalf("sampled sweep failed: %d mount failures, %+v", res.MountFailures, res.Violations)
	}
}

// TestDecayComposition: latent media decay on the surviving image must never
// stop the volume from mounting; content loss is reported separately.
func TestDecayComposition(t *testing.T) {
	res, err := Run(Config{Seed: 11, Ops: 60, StateID: -1, MaxStates: 60, Decay: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if res.MountFailures != 0 {
		t.Fatalf("decay mode: %d mount failures", res.MountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("decay-mode violation (seed=%d state=%d): %s", v.Seed, v.StateID, v.Desc)
	}
}

// TestWriteDecayComposition: crash images recovered against a failing write
// path (transient errors plus bad-on-write sectors) composed with read-side
// decay. The mount's retry/remap policy and the health FSM must keep the
// durability oracle intact: every state mounts, acked data survives or is
// counted as media loss, and nothing panics or corrupts.
func TestWriteDecayComposition(t *testing.T) {
	res, err := Run(Config{
		Seed: 13, Ops: 60, StateID: -1, MaxStates: 60,
		Decay: 0.001, WriteDecay: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MountFailures != 0 {
		t.Fatalf("write-decay mode: %d mount failures", res.MountFailures)
	}
	for _, v := range res.Violations {
		t.Errorf("write-decay violation (seed=%d state=%d): %s", v.Seed, v.StateID, v.Desc)
	}
}

// TestCheckVerdicts makes each of the oracle's verdicts fire, once, on a
// small mounted volume held to a fabricated plan and, for the depth-2
// verdicts, a fabricated view of an earlier recovery: no sweep of working
// code reports a violation, so only this test shows that each check can.
func TestCheckVerdicts(t *testing.T) {
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.Format(d, explorerConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("cedar"), 300)
	other := bytes.Repeat([]byte("alder"), 300)
	for _, name := range []string{"t/undone", "t/torn", "t/back", "t/div", "t/decayed"} {
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d.Revive()
	// A cold mount, so the decayed page is read from the platter.
	v, _, err = core.Mount(d, explorerConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Crash()
	f, err := v.Open("t/decayed", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	addr, _, err := e.ContiguousFrom(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.CorruptSectors(addr, 1)

	const cut = 1
	for _, c := range []struct {
		exp    fileExp
		prev   map[string][]byte
		faulty bool
		want   string // the one violation; "" for none
		lost   int
	}{
		{exp: fileExp{name: "t/div", data: data, createAck: cut}},
		{exp: fileExp{name: "t/lost", data: data, createAck: cut}, want: "acknowledged file t/lost lost"},
		{exp: fileExp{name: "t/undone", data: data, createAck: cut, deleted: true, deleteAck: cut}, want: "acknowledged delete of t/undone undone"},
		{exp: fileExp{name: "t/torn", data: other}, want: "file t/torn present but content torn"},
		{exp: fileExp{name: "t/gone", data: data}, prev: map[string][]byte{"t/gone": data}, want: "file t/gone survived the first recovery but not the second"},
		{exp: fileExp{name: "t/back", data: data}, prev: map[string][]byte{}, want: "file t/back absent after the first recovery, resurrected by the second"},
		{exp: fileExp{name: "t/div", data: data}, prev: map[string][]byte{"t/div": other}, want: "content of t/div diverged between recoveries"},
		{exp: fileExp{name: "t/decayed", data: data, createAck: cut}, want: "read t/decayed: "},
		{exp: fileExp{name: "t/decayed", data: data, createAck: cut}, faulty: true, lost: 1},
	} {
		seen, fails, lost := check(v, []fileExp{c.exp}, cut, c.prev, c.faulty)
		switch {
		case c.want == "" && len(fails) != 0, c.want != "" && (len(fails) != 1 || !strings.HasPrefix(fails[0], c.want)):
			t.Errorf("%s (prev %v, faulty %v): violations %q, want one %q", c.exp.name, c.prev != nil, c.faulty, fails, c.want)
		case lost != c.lost:
			t.Errorf("%s (faulty %v): %d media losses, want %d", c.exp.name, c.faulty, lost, c.lost)
		case c.want == "" && c.lost == 0 && !bytes.Equal(seen[c.exp.name], data):
			t.Errorf("%s: an intact file is missing from the view", c.exp.name)
		case (c.want != "" || c.lost > 0) && len(seen) != 0:
			t.Errorf("%s: a failed file is in the view %v", c.exp.name, seen)
		}
	}
}

func TestRecoverySummaryEmpty(t *testing.T) {
	var r Result
	if a, b, c := r.RecoverySummary(); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty summary must be zeros")
	}
	r.RecoveryTimes = []time.Duration{3, 1, 2}
	if a, b, c := r.RecoverySummary(); a != 1 || b != 2 || c != 3 {
		t.Fatalf("summary wrong: %v %v %v", a, b, c)
	}
}
