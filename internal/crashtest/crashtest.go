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
	// Depth selects the nesting depth when Nested is set. 0 and 2 both mean
	// the supported depth-2 exploration; anything else is rejected (the
	// field exists so drivers can state their intent explicitly).
	Depth int
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

// buildWorkload runs the scripted op sequence against a write-back disk and
// returns the frozen base image, the journal trace, the final open epoch,
// the oracle plan, and how many third crossings the log made.
func buildWorkload(seed int64, nops int, async bool, logSectors int) (*disk.Disk, []disk.JournaledWrite, int, []fileExp, int, error) {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		return nil, nil, 0, nil, 0, err
	}
	cfg := explorerConfig(async)
	if logSectors > 0 {
		// Only Format reads it: mounts take the layout from the root page.
		cfg.LogSectors = logSectors
	}
	v, err := core.Format(d, cfg)
	if err != nil {
		return nil, nil, 0, nil, 0, err
	}
	// Freeze the platter at the freshly formatted state; everything the
	// workload writes stays in the window.
	d.EnableWriteBack()

	var plan []fileExp
	var live []int // indices into plan of not-yet-deleted files
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
				return nil, nil, 0, nil, 0, fmt.Errorf("workload delete %s: %w", plan[pi].name, err)
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
				return nil, nil, 0, nil, 0, fmt.Errorf("workload create %s: %w", name, err)
			}
			plan = append(plan, fileExp{name: name, data: data})
			live = append(live, len(plan)-1)
		}
		// Async mode: drain after every op so applier progress — and with
		// it the clock the next entry is stamped with, and the write
		// journal — is a deterministic function of the seed (see
		// Config.Async; TestAsyncTraceDeterministic fails without it).
		if err := v.DrainIntents(); err != nil {
			return nil, nil, 0, nil, 0, fmt.Errorf("workload drain: %w", err)
		}
		// Acknowledge every few ops, but leave an unacknowledged tail so
		// the may-exist arm of the oracle is exercised too.
		if i%4 == 3 && i < nops-6 && !longStretch {
			if err := v.WaitCommitted(v.CommitSeq()); err != nil {
				return nil, nil, 0, nil, 0, fmt.Errorf("workload commit: %w", err)
			}
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
	}
	trace := d.Trace()
	epochs := d.SyncedEpoch()
	crossings := v.Stats().Commit.ThirdCrossings
	// Crash (not Halt directly): it also closes the intent queue so no
	// applier goroutine outlives the frozen base image.
	v.Crash()
	return d, trace, epochs, plan, crossings, nil
}

type stateResult struct {
	mountFail  bool
	violations []Violation
	mediaLoss  int
	recovery   time.Duration
	torn       int
	tail       int
	gaps       int
}

// runState reconstructs one crash image, mounts it, and checks the oracle.
func runState(base *disk.Disk, trace []disk.JournaledWrite, byEpoch [][]int,
	st State, plan []fileExp, seed int64, decay, writeDecay float64, async bool) stateResult {

	var res stateResult
	d := reconstruct(base, trace, byEpoch, st)

	cfg := explorerConfig(async)
	if decay > 0 || writeDecay > 0 {
		d.InjectFaults(disk.FaultConfig{
			Seed:           seed ^ int64(st.ID)*0x9E3779B9,
			LatentError:    decay,
			TransientRead:  decay / 2,
			TransientWrite: writeDecay,
			BadOnWrite:     writeDecay / 4,
		})
		cfg.ReadRetries = 4
		cfg.WriteRetries = 4
	}
	faulty := decay > 0 || writeDecay > 0

	fail := func(desc string) {
		res.violations = append(res.violations, Violation{
			Seed: seed, StateID: st.ID, State: st.String(), Desc: desc,
		})
	}

	v, ms, err := core.Mount(d, cfg)
	if err != nil {
		res.mountFail = true
		fail(fmt.Sprintf("mount failed: %v", err))
		return res
	}
	// Whichever way the state ends, its volume goes: an async one's applier
	// would otherwise outlive the state, holding the volume and its disk.
	defer v.Crash()
	res.recovery = ms.Elapsed
	res.torn = ms.LogTornRecords
	res.tail = ms.LogTailDiscarded
	res.gaps = ms.LogGapBreaks

	// Durability oracle.
	for i := range plan {
		e := &plan[i]
		status := e.statusAt(st.Cut)
		f, err := v.Open(e.name, 1)
		if errors.Is(err, core.ErrNotFound) {
			if status == mustExist {
				fail(fmt.Sprintf("acknowledged file %s lost", e.name))
			}
			continue
		}
		if err != nil {
			if faulty {
				res.mediaLoss++
				continue
			}
			fail(fmt.Sprintf("open %s: %v", e.name, err))
			continue
		}
		if status == mustNotExist {
			fail(fmt.Sprintf("acknowledged delete of %s undone", e.name))
			continue
		}
		got, err := f.ReadAll()
		if err != nil {
			if faulty {
				res.mediaLoss++
				continue
			}
			fail(fmt.Sprintf("read %s: %v", e.name, err))
			continue
		}
		if !bytes.Equal(got, e.data) {
			fail(fmt.Sprintf("file %s present but content torn (%d bytes, want %d)",
				e.name, len(got), len(e.data)))
		}
	}

	// Structural invariants must hold in every crash state.
	vs, err := v.Verify()
	if err != nil {
		fail(fmt.Sprintf("verify: %v", err))
	} else if len(vs.Problems) > 0 && !faulty {
		fail(fmt.Sprintf("verify found %d problems: %s", len(vs.Problems), vs.Problems[0]))
	}

	// The recovered volume must be immediately usable: create, commit, read.
	if _, err := v.Create("post/alive", []byte("recovered")); err != nil {
		if faulty {
			res.mediaLoss++
			return res
		}
		fail(fmt.Sprintf("post-recovery create: %v", err))
		return res
	}
	if err := v.WaitCommitted(v.CommitSeq()); err != nil {
		fail(fmt.Sprintf("post-recovery commit: %v", err))
		return res
	}
	if f, err := v.Open("post/alive", 1); err != nil {
		fail(fmt.Sprintf("post-recovery open: %v", err))
	} else if got, err := f.ReadAll(); err != nil {
		if faulty {
			res.mediaLoss++ // the fresh page can decay too
		} else {
			fail(fmt.Sprintf("post-recovery read: %v", err))
		}
	} else if !bytes.Equal(got, []byte("recovered")) {
		fail("post-recovery read returned wrong content")
	}
	return res
}

// Run executes a full exploration: scripted workload, deterministic state
// enumeration, reconstruction + mount + oracle for every selected state.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 270
	}
	if cfg.Nested {
		if cfg.Depth != 0 && cfg.Depth != 2 {
			return nil, fmt.Errorf("crashtest: nested depth %d unsupported (only 2)", cfg.Depth)
		}
		if cfg.Decay > 0 || cfg.WriteDecay > 0 {
			return nil, errors.New("crashtest: nested exploration does not compose with decay/write-decay (the write-back window bypasses the fault injector)")
		}
		if cfg.InnerStates == 0 {
			cfg.InnerStates = 8
		}
	}
	wallStart := time.Now()
	base, trace, epochs, plan, crossings, err := buildWorkload(cfg.Seed, cfg.Ops, cfg.Async, cfg.LogSectors)
	if err != nil {
		return nil, err
	}
	states := Enumerate(trace, epochs, cfg.Seed)
	res := &Result{
		Seed:         cfg.Seed,
		Ops:          cfg.Ops,
		Epochs:       epochs,
		TracedWrites: len(trace),
		StatesTotal:  len(states),

		ThirdCrossings: crossings,
	}
	for i := range plan {
		acked := plan[i].createAck > 0 && !plan[i].deleted ||
			plan[i].deleted && plan[i].deleteAck > 0
		if acked {
			res.AckedOps++
		} else {
			res.UnackedOps++
		}
	}

	sel := states
	if cfg.StateID >= 0 {
		if cfg.StateID >= len(states) {
			return nil, fmt.Errorf("crashtest: state %d out of range (have %d)", cfg.StateID, len(states))
		}
		sel = states[cfg.StateID : cfg.StateID+1]
	} else if cfg.MaxStates > 0 && len(states) > cfg.MaxStates {
		stride := make([]State, 0, cfg.MaxStates)
		for i := 0; i < cfg.MaxStates; i++ {
			stride = append(stride, states[i*len(states)/cfg.MaxStates])
		}
		sel = stride
	}

	byEpoch := groupByEpoch(trace, epochs)
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range work {
				if cfg.Nested {
					nr := runNested(base, trace, byEpoch, st, plan, cfg.Seed, cfg.Async, cfg.InnerStates)
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
					if nr.outerMountFail {
						res.MountFailures++
					} else {
						res.RecoveryTimes = append(res.RecoveryTimes, nr.outerRecovery)
					}
					res.Violations = append(res.Violations, nr.violations...)
					res.TornRecords += nr.torn
					res.TailDiscarded += nr.tail
					res.GapBreaks += nr.gaps
					res.InnerStatesTotal += nr.innerTotal
					res.InnerStates += nr.innerStates
					res.InnerMountFailures += nr.innerMountFail
					res.InnerViolations += nr.innerViolations
					res.RecoveryOfRecovery = append(res.RecoveryOfRecovery, nr.rrTimes...)
					mu.Unlock()
					continue
				}
				sr := runState(base, trace, byEpoch, st, plan, cfg.Seed, cfg.Decay, cfg.WriteDecay, cfg.Async)
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
				}
				res.Violations = append(res.Violations, sr.violations...)
				res.MediaLosses += sr.mediaLoss
				res.TornRecords += sr.torn
				res.TailDiscarded += sr.tail
				res.GapBreaks += sr.gaps
				if !sr.mountFail {
					res.RecoveryTimes = append(res.RecoveryTimes, sr.recovery)
				}
				mu.Unlock()
			}
		}()
	}
	for _, st := range sel {
		work <- st
	}
	close(work)
	wg.Wait()

	sort.Slice(res.Violations, func(i, j int) bool {
		return res.Violations[i].StateID < res.Violations[j].StateID
	})
	res.Elapsed = time.Since(wallStart)
	return res, nil
}
