package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/sim"
)

// Config controls one exploration run.
type Config struct {
	// Seed determines the workload, the enumeration sampling, and any
	// injected decay. The whole run is a pure function of it.
	Seed int64
	// Ops is the scripted workload length. 0 means 270 operations.
	Ops int
	// MaxStates bounds how many of the enumerated states are executed; an
	// evenly strided subset is chosen so coverage stays spread across the
	// trace. 0 executes all of them. State IDs are positions in the full
	// enumeration either way, so (Seed, StateID) always reproduces.
	MaxStates int
	// StateID, when >= 0, executes only that state — the reproduction
	// mode for a reported violation.
	StateID int
	// Workers is the execution fan-out. 0 means GOMAXPROCS.
	Workers int
	// Decay, when positive, composes the media-fault injector with each
	// crash image: surviving sectors decay with this probability before
	// the mount, modelling a crash followed by latent media trouble.
	// Single-copy file data has no redundancy against media loss, so
	// unreadable file content is reported as MediaLosses, not violations;
	// every state must still mount.
	Decay float64
	// WriteDecay, when positive, additionally seeds the write-side fault
	// injector on each crash image: transient write errors with this
	// probability, bad-on-write sectors at a quarter of it. The recovery
	// mount and the post-recovery probe run against failing writes; the
	// retry/remap policy must absorb them or the volume must demote itself
	// to read-only — mutations refused after demotion count as
	// MediaLosses, never as violations, and every state must still mount.
	WriteDecay float64
	// LogSectors overrides the workload volume's log size (0 keeps the
	// explorer's 4+3*200). The smallest legal log, 4+3*83, wraps every few
	// operations, so third-crossing home-write sweeps — and crash points
	// inside and between their copy-A and copy-B passes — fill the trace.
	LogSectors int
	// Async runs the workload (and the recovery mounts) with the
	// asynchronous metadata pipeline enabled. The workload drains the
	// intent queue after every operation, and that is about the journal,
	// not about atomicity: entries carry clk.Now() and the applier's
	// name-table reads advance the shared virtual clock, so without the
	// drain how far the applier has got when the next operation stamps its
	// entry — and with it the bytes of the trace — depends on goroutine
	// scheduling, and (Seed, StateID) would stop reproducing. What the
	// explorer cannot see is a force in the middle of an intent: its only
	// forces are the workload's scripted WaitCommitteds, between
	// operations, drained or not. That cut is core's TestCut* tests (a
	// force from log.OnAppend), the deep unapplied queue
	// TestAsyncDeepQueueCrash; this mode proves the acked/unacked
	// durability contract is unchanged by the pipeline.
	Async bool
	// Nested enables depth-2 exploration: for every executed crash state,
	// the recovery mount itself runs under a write-back window and is
	// crashed at each sampled barrier state, then recovered again (see
	// nested.go for the double-crash oracle). Does not compose with Decay
	// or WriteDecay — the window bypasses the write-fault injector.
	Nested bool
	// InnerStates caps the inner crash states executed per outer state (an
	// evenly strided sample of the inner enumeration, like MaxStates).
	// 0 means 8.
	InnerStates int
}

// Violation is one oracle failure, reproducible via Config{Seed, StateID}.
type Violation struct {
	Seed    int64  `json:"seed"`
	StateID int    `json:"state_id"`
	State   string `json:"state"`
	Desc    string `json:"desc"`
}

// Result aggregates an exploration run.
type Result struct {
	Seed          int64           `json:"seed"`
	Ops           int             `json:"ops"`
	AckedOps      int             `json:"acked_ops"`
	UnackedOps    int             `json:"unacked_ops"`
	Epochs        int             `json:"epochs"`
	TracedWrites  int             `json:"traced_writes"`
	StatesTotal   int             `json:"states_total"` // full enumeration size
	States        int             `json:"states"`       // states executed
	PrefixStates  int             `json:"prefix_states"`
	ReorderStates int             `json:"reorder_states"`
	TornStates    int             `json:"torn_states"`
	MountFailures int             `json:"mount_failures"`
	Violations    []Violation     `json:"violations,omitempty"`
	MediaLosses   int             `json:"media_losses,omitempty"` // decay/write-decay modes only
	TornRecords   int             `json:"torn_records"`           // summed recovery stats
	TailDiscarded int             `json:"tail_discarded"`
	GapBreaks     int             `json:"gap_breaks"`
	RecoveryTimes []time.Duration `json:"-"`       // virtual mount times, one per state
	Elapsed       time.Duration   `json:"elapsed"` // wall clock

	// ThirdCrossings is how many times the workload's log entered a new
	// third (each one a name-table home-write sweep inside the trace).
	ThirdCrossings int `json:"third_crossings"`

	// Nested-mode (depth 2) aggregates.
	InnerStatesTotal   int             `json:"inner_states_total,omitempty"` // summed inner enumeration sizes
	InnerStates        int             `json:"inner_states,omitempty"`       // inner states executed
	InnerMountFailures int             `json:"inner_mount_failures,omitempty"`
	InnerViolations    int             `json:"inner_violations,omitempty"` // depth-2 oracle failures
	RecoveryOfRecovery []time.Duration `json:"-"`                          // virtual second-recovery mount times
}

// RecoverySummary returns min/median/max of the per-state virtual recovery
// times (zeros when no state ran).
func (r *Result) RecoverySummary() (min, median, max time.Duration) {
	return durSummary(r.RecoveryTimes)
}

// RecoveryOfRecoverySummary returns min/median/max of the virtual mount
// times of the second (depth-2) recoveries.
func (r *Result) RecoveryOfRecoverySummary() (min, median, max time.Duration) {
	return durSummary(r.RecoveryOfRecovery)
}

func durSummary(times []time.Duration) (min, median, max time.Duration) {
	if len(times) == 0 {
		return
	}
	ts := append([]time.Duration(nil), times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[0], ts[len(ts)/2], ts[len(ts)-1]
}

// fileExp is the oracle's knowledge of one file the workload touched. Names
// are unique per create, so every file is version 1 and has at most one
// create and one delete event.
type fileExp struct {
	name      string
	data      []byte
	createAck int // epoch at/after which the create is acknowledged; 0 = never
	deleted   bool
	deleteAck int
}

// status of a file at a crash cut.
const (
	mustExist = iota
	mustNotExist
	mayExist
)

func (e *fileExp) statusAt(cut int) int {
	if e.deleted && e.deleteAck > 0 && cut >= e.deleteAck {
		return mustNotExist
	}
	if !e.deleted && e.createAck > 0 && cut >= e.createAck {
		return mustExist
	}
	return mayExist
}

// explorerDataCachePages overrides the data-cache size used on both the
// workload and the recovery mounts (0 keeps the volume default). The
// write-through composition test sets it to a deliberately tiny value so the
// oracle checks run under constant eviction and refill churn.
var explorerDataCachePages int

func explorerConfig(async bool) core.Config {
	return core.Config{
		DataCachePages: explorerDataCachePages,
		LogSectors:     4 + 3*200,
		NTPages:        256,
		CacheSize:      64,
		// Commits happen only at the scripted WaitCommitted calls, so ack
		// epochs are exact. (Deliberately no AdaptiveCommit here: an
		// adaptive deadline would add forces at op boundaries and blur the
		// scripted ack points.)
		GroupCommitInterval: time.Hour,
		// Sequential mount: identical virtual recovery timing every run.
		MountWorkers: 1,
		AsyncApply:   async,
	}
}

func wlPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// workload is what a scripted run leaves for the explorer: the frozen base
// image, the journal trace, the final open epoch, the oracle plan, and how
// many third crossings the log made. A run that ends in Shutdown also names
// the epoch open when Shutdown began (shutdownFrom) and the one holding its
// clean root stamp (stamp); both are 0 for a run that ends in a crash.
type workload struct {
	base                *disk.Disk
	trace               []disk.JournaledWrite
	epochs              int
	plan                []fileExp
	crossings           int
	shutdownFrom, stamp int
}

// buildWorkload runs the scripted op sequence against a write-back disk. Its
// last step is a crash, or with shutdown set a Shutdown, whose return
// acknowledges every operation.
func buildWorkload(seed int64, nops int, async bool, logSectors int, shutdown bool) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		return nil, err
	}
	cfg := explorerConfig(async)
	if logSectors > 0 {
		// Only Format reads it: mounts take the layout from the root page.
		cfg.LogSectors = logSectors
	}
	v, err := core.Format(d, cfg)
	if err != nil {
		return nil, err
	}
	// Freeze the platter at the freshly formatted state; everything the
	// workload writes stays in the window.
	d.EnableWriteBack()

	var plan []fileExp
	var live []int // indices into plan of not-yet-deleted files
	// ackAll acknowledges, from the open epoch on, every operation so far.
	ackAll := func() {
		ack := d.SyncedEpoch()
		for k := range plan {
			if plan[k].deleted && plan[k].deleteAck == 0 {
				plan[k].deleteAck = ack
			}
			if plan[k].createAck == 0 {
				plan[k].createAck = ack
			}
		}
	}
	for i := 0; i < nops; i++ {
		// One long stretch goes uncommitted, and its creates are empty
		// files: each stages a distinct leader image (staging dedups
		// name-table pages by target, so only unique targets grow a
		// batch), pushing the eventual force past MaxImagesPerRecord
		// into a multi-record batch — the only way recovery's
		// batch-tail discard can be reached.
		longStretch := nops >= 120 && i >= nops/2 && i < nops/2+40
		if !longStretch && len(live) > 0 && rng.Intn(100) < 25 {
			j := rng.Intn(len(live))
			pi := live[j]
			live = append(live[:j], live[j+1:]...)
			if err := v.Delete(plan[pi].name, 1); err != nil {
				return nil, fmt.Errorf("workload delete %s: %w", plan[pi].name, err)
			}
			plan[pi].deleted = true
		} else {
			name := fmt.Sprintf("crash/f%03d", i)
			var data []byte
			// 1 in 8 files is empty (deferred leader); all of the long
			// stretch is.
			if !longStretch && rng.Intn(8) != 0 {
				data = wlPayload(rng, 200+rng.Intn(3300))
			}
			if _, err := v.Create(name, data); err != nil {
				return nil, fmt.Errorf("workload create %s: %w", name, err)
			}
			plan = append(plan, fileExp{name: name, data: data})
			live = append(live, len(plan)-1)
		}
		// Async mode: drain after every op so applier progress — and with
		// it the clock the next entry is stamped with, and the write
		// journal — is a deterministic function of the seed (see
		// Config.Async; TestAsyncTraceDeterministic fails without it).
		if err := v.DrainIntents(); err != nil {
			return nil, fmt.Errorf("workload drain: %w", err)
		}
		// Acknowledge every few ops, but leave an unacknowledged tail so
		// the may-exist arm of the oracle is exercised too.
		if i%4 == 3 && i < nops-6 && !longStretch {
			if err := v.WaitCommitted(v.CommitSeq()); err != nil {
				return nil, fmt.Errorf("workload commit: %w", err)
			}
			ackAll()
		}
	}
	w := &workload{base: d, plan: plan, crossings: v.Stats().Commit.ThirdCrossings}
	if shutdown {
		w.shutdownFrom = d.SyncedEpoch()
		if err := v.Shutdown(); err != nil {
			return nil, fmt.Errorf("workload shutdown: %w", err)
		}
		// The stamp is the root pair between writeRoot's two barriers.
		w.stamp = d.SyncedEpoch() - 1
		ackAll()
	}
	w.trace, w.epochs = d.Trace(), d.SyncedEpoch()
	// Crash (not Halt directly): it also closes the intent queue so no
	// applier goroutine outlives the frozen base image.
	v.Crash()
	return w, nil
}

// stateResult is what one executed state produced: its recovery's counters
// and verdicts and, at depth 2, the inner states explored from it.
type stateResult struct {
	mountFail  bool
	clean      bool // the mount found the root stamped clean
	records    int  // log records it replayed
	violations []Violation
	mediaLoss  int
	recovery   time.Duration
	torn       int
	tail       int
	gaps       int

	innerTotal      int // full inner enumeration size
	innerStates     int // inner states executed
	innerMountFail  int
	innerViolations int
	rrTimes         []time.Duration // recovery-of-recovery virtual mount times
}

// fail records each of descs as a violation of st; inner names the inner
// state at depth 2 ("" otherwise) and by names the recovery that failed.
func (r *stateResult) fail(seed int64, st State, inner, by string, descs ...string) {
	where := st.String()
	if inner != "" {
		where += " / " + inner
	}
	for _, desc := range descs {
		r.violations = append(r.violations, Violation{Seed: seed, StateID: st.ID, State: where, Desc: by + desc})
	}
}

// check holds a mounted crash image to the plan at cut: an acknowledged
// create is present and byte-exact, an acknowledged delete stays deleted, and
// an unacknowledged file is absent or intact. Given the view an earlier
// recovery of the same crash left (prev, nil at depth 1), it also holds the
// image to that view: what the first recovery served survives the second with
// the same bytes, and nothing it did not serve comes back. Under faulty, an
// open or read that fails is media loss, not a violation. It returns the view
// it saw — every file it found intact, with its bytes — its violations and
// its media losses.
func check(v *core.Volume, plan []fileExp, cut int, prev map[string][]byte, faulty bool) (seen map[string][]byte, fails []string, lost int) {
	seen = make(map[string][]byte)
	for i := range plan {
		e := &plan[i]
		status := e.statusAt(cut)
		want, served := e.data, true
		if prev != nil {
			want, served = prev[e.name]
		}
		f, err := v.Open(e.name, 1)
		if errors.Is(err, core.ErrNotFound) {
			if status == mustExist {
				fails = append(fails, fmt.Sprintf("acknowledged file %s lost", e.name))
			} else if prev != nil && served {
				fails = append(fails, fmt.Sprintf("file %s survived the first recovery but not the second", e.name))
			}
			continue
		}
		if err != nil {
			if faulty {
				lost++
			} else {
				fails = append(fails, fmt.Sprintf("open %s: %v", e.name, err))
			}
			continue
		}
		if status == mustNotExist {
			fails = append(fails, fmt.Sprintf("acknowledged delete of %s undone", e.name))
			continue
		}
		if !served {
			fails = append(fails, fmt.Sprintf("file %s absent after the first recovery, resurrected by the second", e.name))
			continue
		}
		got, err := f.ReadAll()
		switch {
		case err != nil && faulty:
			lost++
		case err != nil:
			fails = append(fails, fmt.Sprintf("read %s: %v", e.name, err))
		case !bytes.Equal(got, want) && prev != nil:
			fails = append(fails, fmt.Sprintf("content of %s diverged between recoveries", e.name))
		case !bytes.Equal(got, want):
			fails = append(fails, fmt.Sprintf("file %s present but content torn (%d bytes, want %d)",
				e.name, len(got), len(want)))
		default:
			seen[e.name] = got
		}
	}
	return seen, fails, lost
}

// probe holds a recovered volume to its structural invariants (Verify) and
// to immediate use: a create that commits and reads back. Under faulty,
// Verify's problems are expected and a refused create or a failed read is
// media loss.
func probe(v *core.Volume, faulty bool) (fails []string, lost int) {
	if vs, err := v.Verify(); err != nil {
		fails = append(fails, fmt.Sprintf("verify: %v", err))
	} else if len(vs.Problems) > 0 && !faulty {
		fails = append(fails, fmt.Sprintf("verify found %d problems: %s", len(vs.Problems), vs.Problems[0]))
	}
	alive := []byte("recovered")
	if _, err := v.Create("post/alive", alive); err != nil {
		if faulty {
			return fails, 1
		}
		return append(fails, fmt.Sprintf("post-recovery create: %v", err)), 0
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		return append(fails, fmt.Sprintf("post-recovery commit: %v", err)), 0
	}
	if f, err := v.Open("post/alive", 1); err != nil {
		fails = append(fails, fmt.Sprintf("post-recovery open: %v", err))
	} else if got, err := f.ReadAll(); err != nil && faulty {
		lost++ // the fresh page can decay too
	} else if err != nil {
		fails = append(fails, fmt.Sprintf("post-recovery read: %v", err))
	} else if !bytes.Equal(got, alive) {
		fails = append(fails, "post-recovery read returned wrong content")
	}
	return fails, lost
}

// explorer executes states of one workload under one Config.
type explorer struct {
	cfg     Config
	w       *workload
	byEpoch [][]int
}

func newExplorer(cfg Config, w *workload) *explorer {
	return &explorer{cfg: cfg, w: w, byEpoch: groupByEpoch(w.trace, w.epochs)}
}

// run reconstructs one crash image and recovers it. Depth 1 is mount →
// check → probe. With Nested, the mount runs under a write-back window and is
// held to check alone (the probe's writes would enter the inner trace), and
// the states of that recovery's own trace are explored from the view it left
// (nested.go).
func (x *explorer) run(st State) stateResult {
	var res stateResult
	d := reconstruct(x.w.base, x.w.trace, x.byEpoch, st)
	cfg := explorerConfig(x.cfg.Async)
	faulty := x.cfg.Decay > 0 || x.cfg.WriteDecay > 0
	if faulty {
		d.InjectFaults(disk.FaultConfig{
			Seed:           x.cfg.Seed ^ int64(st.ID)*0x9E3779B9,
			LatentError:    x.cfg.Decay,
			TransientRead:  x.cfg.Decay / 2,
			TransientWrite: x.cfg.WriteDecay,
			BadOnWrite:     x.cfg.WriteDecay / 4,
		})
		cfg.ReadRetries = 4
		cfg.WriteRetries = 4
	}
	by := ""
	if x.cfg.Nested {
		// Recovery under the window: its writes are journaled, the platter
		// stays frozen at the outer crash image.
		d.EnableWriteBack()
		by = "first recovery: "
	}
	v, ms, err := core.Mount(d, cfg)
	if err != nil {
		res.mountFail = true
		res.fail(x.cfg.Seed, st, "", by, fmt.Sprintf("mount failed: %v", err))
		return res
	}
	res.recovery, res.clean, res.records = ms.Elapsed, ms.CleanShutdown, ms.LogRecords
	res.torn = ms.LogTornRecords
	res.tail = ms.LogTailDiscarded
	res.gaps = ms.LogGapBreaks

	seen, fails, lost := check(v, x.w.plan, st.Cut, nil, faulty)
	res.fail(x.cfg.Seed, st, "", by, fails...)
	res.mediaLoss += lost
	// Whichever way the state ends, its volume is crashed: an async one's
	// applier would otherwise outlive the state, holding the volume and its
	// disk.
	if x.cfg.Nested {
		trace, epochs := d.Trace(), d.SyncedEpoch()
		v.Crash()
		// A failed first recovery already broke the contract; inner states
		// would only repeat the noise.
		if len(res.violations) == 0 {
			x.inner(&res, st, d, trace, epochs, seen)
		}
		return res
	}
	fails, lost = probe(v, faulty)
	v.Crash()
	res.fail(x.cfg.Seed, st, "", by, fails...)
	res.mediaLoss += lost
	return res
}

// stride returns n states evenly strided over states, so coverage stays
// spread across the trace, or all of them when n is 0 or covers them.
func stride(states []State, n int) []State {
	if n <= 0 || len(states) <= n {
		return states
	}
	out := make([]State, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, states[i*len(states)/n])
	}
	return out
}

// Run executes a full exploration: scripted workload, deterministic state
// enumeration, reconstruction + mount + oracle for every selected state.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 270
	}
	if cfg.Nested {
		if cfg.Decay > 0 || cfg.WriteDecay > 0 {
			return nil, errors.New("crashtest: nested exploration does not compose with decay/write-decay (the write-back window bypasses the fault injector)")
		}
		if cfg.InnerStates == 0 {
			cfg.InnerStates = 8
		}
	}
	wallStart := time.Now()
	w, err := buildWorkload(cfg.Seed, cfg.Ops, cfg.Async, cfg.LogSectors, false)
	if err != nil {
		return nil, err
	}
	states := Enumerate(w.trace, w.epochs, cfg.Seed)
	res := &Result{
		Seed:         cfg.Seed,
		Ops:          cfg.Ops,
		Epochs:       w.epochs,
		TracedWrites: len(w.trace),
		StatesTotal:  len(states),

		ThirdCrossings: w.crossings,
	}
	for i := range w.plan {
		acked := w.plan[i].createAck > 0 && !w.plan[i].deleted ||
			w.plan[i].deleted && w.plan[i].deleteAck > 0
		if acked {
			res.AckedOps++
		} else {
			res.UnackedOps++
		}
	}

	sel := stride(states, cfg.MaxStates)
	if cfg.StateID >= 0 {
		if cfg.StateID >= len(states) {
			return nil, fmt.Errorf("crashtest: state %d out of range (have %d)", cfg.StateID, len(states))
		}
		sel = states[cfg.StateID : cfg.StateID+1]
	}

	x := newExplorer(cfg, w)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sel) && len(sel) > 0 {
		workers = len(sel)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan State)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range work {
				sr := x.run(st)
				mu.Lock()
				res.States++
				switch st.Kind {
				case 'p':
					res.PrefixStates++
				case 'r':
					res.ReorderStates++
				case 't':
					res.TornStates++
				}
				if sr.mountFail {
					res.MountFailures++
				} else {
					res.RecoveryTimes = append(res.RecoveryTimes, sr.recovery)
				}
				res.Violations = append(res.Violations, sr.violations...)
				res.MediaLosses += sr.mediaLoss
				res.TornRecords += sr.torn
				res.TailDiscarded += sr.tail
				res.GapBreaks += sr.gaps
				res.InnerStatesTotal += sr.innerTotal
				res.InnerStates += sr.innerStates
				res.InnerMountFailures += sr.innerMountFail
				res.InnerViolations += sr.innerViolations
				res.RecoveryOfRecovery = append(res.RecoveryOfRecovery, sr.rrTimes...)
				mu.Unlock()
			}
		}()
	}
	for _, st := range sel {
		work <- st
	}
	close(work)
	wg.Wait()

	// Stable: a state's violations arrive together, in check order, from
	// whichever worker ran it.
	sort.SliceStable(res.Violations, func(i, j int) bool {
		return res.Violations[i].StateID < res.Violations[j].StateID
	})
	res.Elapsed = time.Since(wallStart)
	return res, nil
}
