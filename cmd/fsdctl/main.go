// Fsdctl is an interactive tool for FSD volumes backed by disk image files,
// so a volume survives across invocations — including deliberately crashed
// ones.
//
// Usage:
//
//	fsdctl -img vol.img format                     # make a 300 MB volume
//	fsdctl -img vol.img put notes.txt < notes.txt  # create a file (new version)
//	fsdctl -img vol.img get notes.txt > out.txt    # read the newest version
//	fsdctl -img vol.img ls [prefix]                # list files
//	fsdctl -img vol.img rm notes.txt               # delete the newest version
//	fsdctl -img vol.img stat notes.txt             # show an entry
//	fsdctl -img vol.img crash                      # exit WITHOUT clean shutdown
//	fsdctl -img vol.img burst 50                   # create 50 files, then crash
//	fsdctl -img vol.img fsck                       # mount, report recovery, shut down
//	fsdctl -img vol.img verify                     # same as fsck
//	fsdctl -img vol.img scrub                      # repair decayed duplicate copies
//	fsdctl -img vol.img salvage                    # rebuild the name table from leaders
//	fsdctl -img vol.img info                       # volume statistics
//	fsdctl -img vol.img stats                      # full observability snapshot
//	fsdctl crashcheck [-seed N] [-states N] ...    # crash-state exploration sweep
//	fsdctl crashcheck -nested [-depth 2] ...       # depth-2: crash the recovery too
//
// The -json flag switches verify/fsck, scrub, salvage, stats, and crashcheck
// to machine-readable JSON on stdout. The -workers flag sets the pool width
// of the parallel check-and-repair passes (the mount's scan, fsck/verify,
// scrub, salvage); the default is GOMAXPROCS, and any width produces
// identical output — parallelism changes only elapsed time. Exit codes are 0 (success), 1
// (operational error), 2 (usage error), and 3 (the volume mounted but
// inconsistencies, losses, or oracle violations were found).
//
// Every command except "crash" shuts the volume down cleanly and saves the
// image; "crash" saves the image mid-flight, so the next command exercises
// log recovery exactly as a power failure would.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	cedarfs "repro"
	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/disk"
	"repro/internal/sim"
)

// Exit codes derive from the cedarfs error registry via cedarfs.ExitCode:
// 0 success, 2 usage, 3 inconsistencies, 4 spare-pool exhaustion, 1 other.
// The sentinels below alias the registry errors so run() wraps the same
// values the wire protocol and every other tool agree on. ErrNoSpares
// matters operationally: exit 4 means "replace the disk", not "run fsck
// again".
var (
	errUsage    = cedarfs.ErrUsage
	errProblems = cedarfs.ErrInconsistent
	errNoSpares = cedarfs.ErrNoSpares
)

// mountAsync switches the working mount to the asynchronous metadata
// pipeline (intent queue + adaptive group commit). Set by the global -async
// flag; a package variable so tests can flip it per run().
var mountAsync bool

// mountWorkers is the check-and-repair pool width for the mount's
// name-table scan, fsck/verify, scrub and salvage (the -workers flag; 0 means
// GOMAXPROCS). Every scan's output is identical at any width — parallelism
// changes only elapsed time — so a machine-sized default is always safe.
var mountWorkers int

func cliWorkers() int {
	if mountWorkers > 0 {
		return mountWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// cliConfig is the volume configuration for the working mount.
func cliConfig() cedarfs.Config {
	return cedarfs.Config{
		AsyncApply:     mountAsync,
		AdaptiveCommit: mountAsync,
		CheckWorkers:   cliWorkers(),
		ScrubWorkers:   cliWorkers(),
		MountWorkers:   cliWorkers(),
	}
}

func main() {
	img := flag.String("img", "cedar.img", "disk image file")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (verify/fsck, scrub, salvage, stats, crashcheck)")
	flag.BoolVar(&mountAsync, "async", false, "mount with the asynchronous intent queue and adaptive group commit")
	flag.IntVar(&mountWorkers, "workers", 0, "check/repair pool width for the mount scan, fsck/verify, scrub, salvage (0 = GOMAXPROCS)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "fsdctl: need a command (format, put, get, ls, rm, stat, burst, crash, fsck, verify, scrub, salvage, info, stats, crashcheck)")
		os.Exit(2)
	}
	if err := run(*img, *jsonOut, args); err != nil {
		fmt.Fprintf(os.Stderr, "fsdctl: %v\n", err)
		os.Exit(cedarfs.ExitCode(err))
	}
}

// jsonProblems keeps an empty problem list as [] rather than null.
func jsonProblems(p []string) []string {
	if p == nil {
		return []string{}
	}
	return p
}

// timelines renders a check pass's two timelines (DESIGN §17): what the arm
// did, what the pool of k workers did, how much of the pool's share ran beside
// the arm and so cost nothing, and what the pass took.
func timelines(arm, pool time.Duration, k int, hidden, elapsed time.Duration) string {
	return fmt.Sprintf("arm %.1f s · pool %.1f s / %d · hidden %.1f s · elapsed %.1f s",
		arm.Seconds(), pool.Seconds(), k, hidden.Seconds(), elapsed.Seconds())
}

// salvageContract is what a salvaged volume is (DESIGN §9).
const salvageContract = "note: leaders record the name and size a file was created with, so after salvage deleted versions are back, renames undone and keep counts zero"

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(img string, jsonOut bool, args []string) error {
	cmd := args[0]
	clk := sim.NewVirtualClock()

	if cmd == "crashcheck" {
		// Self-contained: the sweep builds its own simulated volume, so it
		// neither needs nor touches the image file.
		return crashcheck(jsonOut, args[1:])
	}

	if cmd == "format" {
		d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, clk)
		if err != nil {
			return err
		}
		v, err := cedarfs.Format(d, cliConfig())
		if err != nil {
			return err
		}
		if err := v.Shutdown(); err != nil {
			return err
		}
		if err := d.SaveImage(img); err != nil {
			return err
		}
		fmt.Printf("formatted %s: %d MB FSD volume\n", img, d.Geometry().Bytes()/(1<<20))
		return nil
	}

	d, err := disk.LoadImage(img, disk.DefaultParams, clk)
	if err != nil {
		return fmt.Errorf("open image (run 'format' first?): %w", err)
	}

	if cmd == "salvage" {
		// Do not even try a normal mount: salvage is for images a mount
		// rejects (both name-table copies gone), and it works — losing
		// only leader-unreachable files — on any image.
		v, st, err := cedarfs.Salvage(d, cedarfs.Config{CheckWorkers: cliWorkers()})
		if err != nil {
			return err
		}
		if jsonOut {
			if err := emitJSON(struct {
				SectorsScanned   int           `json:"sectors_scanned"`
				DamagedSectors   int           `json:"damaged_sectors"`
				FilesRecovered   int           `json:"files_recovered"`
				FilesPartial     int           `json:"files_partial"`
				ConflictsDropped int           `json:"conflicts_dropped"`
				Workers          int           `json:"workers"`
				Problems         []string      `json:"problems"`
				ElapsedSim       time.Duration `json:"elapsed_sim_ns"`
				SweepSim         time.Duration `json:"sweep_sim_ns"`
				RebuildSim       time.Duration `json:"rebuild_sim_ns"`
				FinalizeSim      time.Duration `json:"finalize_sim_ns"`
				SweepArmSim      time.Duration `json:"sweep_arm_sim_ns"`
				SweepPoolSim     time.Duration `json:"sweep_pool_sim_ns"`
				SweepHiddenSim   time.Duration `json:"sweep_hidden_sim_ns"`
			}{st.SectorsScanned, st.DamagedSectors, st.FilesRecovered,
				st.FilesPartial, st.ConflictsDropped, st.Workers, jsonProblems(st.Problems),
				st.Elapsed, st.SweepElapsed, st.RebuildElapsed, st.FinalizeElapsed,
				st.SweepArm, st.SweepCPU, st.SweepHidden}); err != nil {
				return err
			}
		} else {
			fmt.Printf("salvage scanned %d sectors (%d damaged) in %v simulated (%d workers)\n",
				st.SectorsScanned, st.DamagedSectors, st.Elapsed.Round(1e6), st.Workers)
			fmt.Printf("phases: sweep %v, rebuild %v, finalize %v\n",
				st.SweepElapsed.Round(1e6), st.RebuildElapsed.Round(1e6), st.FinalizeElapsed.Round(1e6))
			fmt.Println("sweep:", timelines(st.SweepArm, st.SweepCPU, st.Workers, st.SweepHidden, st.SweepElapsed))
			fmt.Printf("recovered %d files (%d truncated, %d stale leaders dropped)\n",
				st.FilesRecovered, st.FilesPartial, st.ConflictsDropped)
			fmt.Println(salvageContract)
			for _, p := range st.Problems {
				fmt.Printf("PROBLEM: %s\n", p)
			}
		}
		if err := v.Shutdown(); err != nil {
			return err
		}
		if err := d.SaveImage(img); err != nil {
			return err
		}
		if len(st.Problems) > 0 {
			return fmt.Errorf("salvage: %w", errProblems)
		}
		return nil
	}

	v, ms, err := cedarfs.Mount(d, cliConfig())
	if err != nil {
		return err
	}
	if !ms.CleanShutdown {
		fmt.Fprintf(os.Stderr, "recovered after crash: %d log records replayed, VAM rebuilt=%v, took %v simulated\n",
			ms.LogRecords, ms.VAMReconstructed, ms.Elapsed.Round(1e6))
	}

	finish := func() error {
		if err := v.Shutdown(); err != nil {
			return err
		}
		return d.SaveImage(img)
	}

	switch cmd {
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("put needs a file name: %w", errUsage)
		}
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		f, err := v.Create(args[1], data)
		if err != nil {
			return err
		}
		e := f.Entry()
		fmt.Printf("created %s!%d (%d bytes, %d runs)\n", e.Name, e.Version, e.ByteSize, len(e.Runs))
		return finish()
	case "get":
		if len(args) < 2 {
			return fmt.Errorf("get needs a file name: %w", errUsage)
		}
		f, err := v.Open(args[1], version(args))
		if err != nil {
			return err
		}
		data, err := f.ReadAll()
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return finish()
	case "ls":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		err := v.List(prefix, func(e cedarfs.Entry) bool {
			fmt.Printf("%-40s !%-3d %8d bytes  %s\n", e.Name, e.Version, e.ByteSize, e.Class)
			return true
		})
		if err != nil {
			return err
		}
		return finish()
	case "rm":
		if len(args) < 2 {
			return fmt.Errorf("rm needs a file name: %w", errUsage)
		}
		if err := v.Delete(args[1], version(args)); err != nil {
			return err
		}
		return finish()
	case "stat":
		if len(args) < 2 {
			return fmt.Errorf("stat needs a file name: %w", errUsage)
		}
		e, err := v.Stat(args[1], version(args))
		if err != nil {
			return err
		}
		fmt.Printf("%s!%d\n  class %s  uid %d\n  %d bytes in %d runs\n  created %v  last used %v\n",
			e.Name, e.Version, e.Class, e.UID, e.ByteSize, len(e.Runs), e.CreateTime, e.LastUsed)
		return finish()
	case "burst":
		// Create n files with committed prefixes, then pull the plug:
		// the saved image carries a live log for the next command (or
		// logdump) to recover.
		n := 20
		if len(args) > 1 {
			fmt.Sscanf(args[1], "%d", &n)
		}
		for i := 0; i < n; i++ {
			data := []byte(fmt.Sprintf("burst file %d contents", i))
			if _, err := v.Create(fmt.Sprintf("burst/f%04d", i), data); err != nil {
				return err
			}
			if i%7 == 6 {
				if err := v.Force(); err != nil {
					return err
				}
			}
		}
		v.Crash()
		d.Revive()
		if err := d.SaveImage(img); err != nil {
			return err
		}
		fmt.Printf("created %d files and crashed; run 'ls' to recover or logdump to inspect\n", n)
		return nil
	case "crash":
		// Write some unforced activity, then pull the plug: the image is
		// saved with whatever reached the platters.
		v.Crash()
		d.Revive() // the image itself is intact; only volatile state died
		if err := d.SaveImage(img); err != nil {
			return err
		}
		fmt.Println("crashed; next command will run log recovery")
		return nil
	case "fsck", "verify":
		// Mount already recovered; run the advisory full-volume
		// verification (FSD never needs it — see Verify's doc comment).
		st, err := v.Verify()
		if err != nil {
			return err
		}
		if jsonOut {
			if err := emitJSON(struct {
				Entries        int           `json:"entries"`
				Leaders        int           `json:"leaders"`
				LeadersPending int           `json:"leaders_pending"`
				Symlinks       int           `json:"symlinks"`
				Consistent     bool          `json:"consistent"`
				Workers        int           `json:"workers"`
				Problems       []string      `json:"problems"`
				ElapsedSim     time.Duration `json:"elapsed_sim_ns"`
				WalkSim        time.Duration `json:"walk_sim_ns"`
				CheckSim       time.Duration `json:"check_sim_ns"`
				LeaderSim      time.Duration `json:"leader_sim_ns"`
				ArmSim         time.Duration `json:"arm_sim_ns"`
				PoolSim        time.Duration `json:"pool_sim_ns"`
				HiddenSim      time.Duration `json:"hidden_sim_ns"`
			}{st.Entries, st.Leaders, st.LeadersPending, st.Symlinks,
				len(st.Problems) == 0, st.Workers, jsonProblems(st.Problems),
				st.Elapsed, st.WalkElapsed, st.CheckElapsed, st.LeaderElapsed,
				st.Arm, st.CheckCPU, st.Hidden}); err != nil {
				return err
			}
		} else {
			fmt.Printf("verified %d entries, %d leaders (%d pending) in %v simulated (%d workers)\n",
				st.Entries, st.Leaders, st.LeadersPending, st.Elapsed.Round(1e6), st.Workers)
			fmt.Printf("phases: walk %v, check %v, leaders %v\n",
				st.WalkElapsed.Round(1e6), st.CheckElapsed.Round(1e6), st.LeaderElapsed.Round(1e6))
			fmt.Println(timelines(st.Arm, st.CheckCPU, st.Workers, st.Hidden, st.Elapsed))
			if len(st.Problems) == 0 {
				fmt.Println("volume consistent")
			} else {
				for _, p := range st.Problems {
					fmt.Printf("PROBLEM: %s\n", p)
				}
			}
		}
		if err := finish(); err != nil {
			return err
		}
		if len(st.Problems) > 0 {
			return fmt.Errorf("verify: %w", errProblems)
		}
		return nil
	case "scrub":
		st, err := v.Scrub()
		if err != nil {
			return err
		}
		if jsonOut {
			if err := emitJSON(struct {
				NTPagesChecked   int           `json:"nt_pages_checked"`
				LeadersChecked   int           `json:"leaders_checked"`
				LogRecords       int           `json:"log_records"`
				SectorsChecked   int           `json:"sectors_checked"`
				Repaired         int           `json:"repaired"`
				NTRepaired       int           `json:"nt_repaired"`
				LeadersRepaired  int           `json:"leaders_repaired"`
				RootsRepaired    int           `json:"roots_repaired"`
				LogRepaired      int           `json:"log_repaired"`
				Retired          int           `json:"retired"`
				NTLost           int           `json:"nt_lost"`
				SpareExhausted   bool          `json:"spare_exhausted"`
				Problems         []string      `json:"problems"`
				ElapsedSim       time.Duration `json:"elapsed_sim_ns"`
				NTElapsedSim     time.Duration `json:"nt_elapsed_sim_ns"`
				LeaderElapsedSim time.Duration `json:"leader_elapsed_sim_ns"`
				NTArmSim         time.Duration `json:"nt_arm_sim_ns"`
				NTPoolSim        time.Duration `json:"nt_pool_sim_ns"`
				NTHiddenSim      time.Duration `json:"nt_hidden_sim_ns"`
			}{st.NTPagesChecked, st.LeadersChecked, st.LogRecords, st.SectorsChecked,
				st.Repaired(), st.NTRepaired, st.LeadersRepaired, st.RootsRepaired,
				st.LogRepaired, st.Retired, st.NTLost, st.SpareExhausted,
				jsonProblems(st.Problems), st.Elapsed, st.NTElapsed, st.LeaderElapsed,
				st.NTArm, st.NTCPU, st.NTHidden}); err != nil {
				return err
			}
		} else {
			fmt.Printf("scrubbed %d name-table pages, %d leaders, %d log records (%d sectors) in %v simulated (name-table pass %v, leader pass %v)\n",
				st.NTPagesChecked, st.LeadersChecked, st.LogRecords, st.SectorsChecked, st.Elapsed.Round(1e6), st.NTElapsed.Round(1e6), st.LeaderElapsed.Round(1e6))
			fmt.Println("name-table pass:", timelines(st.NTArm, st.NTCPU, 1, st.NTHidden, st.NTElapsed))
			fmt.Printf("repaired %d copies (%d NT, %d leaders, %d roots, %d log), retired %d sectors\n",
				st.Repaired(), st.NTRepaired, st.LeadersRepaired, st.RootsRepaired, st.LogRepaired, st.Retired)
			if st.NTLost > 0 {
				fmt.Printf("%d pages lost beyond repair — run 'salvage'\n", st.NTLost)
			}
			if st.SpareExhausted {
				fmt.Println("SPARE POOL EXHAUSTED: bad sectors can no longer be retired — volume is read-only, replace the disk")
			}
			for _, p := range st.Problems {
				fmt.Printf("PROBLEM: %s\n", p)
			}
		}
		if err := finish(); err != nil {
			return err
		}
		if st.SpareExhausted {
			return fmt.Errorf("scrub: %w", errNoSpares)
		}
		if st.NTLost > 0 || len(st.Problems) > 0 {
			return fmt.Errorf("scrub: %w", errProblems)
		}
		return nil
	case "info":
		free := v.VAM().FreeCount()
		total := d.Geometry().Sectors()
		fmt.Printf("geometry: %d sectors (%d MB)\n", total, d.Geometry().Bytes()/(1<<20))
		fmt.Printf("free: %d sectors (%.1f%%)\n", free, 100*float64(free)/float64(total))
		st := d.Stats()
		fmt.Printf("session I/O: %d ops (%d reads, %d writes)\n", st.Ops, st.Reads, st.Writes)
		return finish()
	case "stats":
		// The full observability snapshot for this session (everything since
		// the mount above, including the recovery work the mount itself did).
		st := v.Stats()
		if jsonOut {
			if err := emitJSON(st); err != nil {
				return err
			}
			return finish()
		}
		fmt.Printf("ops: %d creates, %d opens, %d deletes, %d reads, %d writes, %d lists, %d touches\n",
			st.Ops.Creates, st.Ops.Opens, st.Ops.Deletes, st.Ops.Reads,
			st.Ops.Writes, st.Ops.Lists, st.Ops.Touches)
		fmt.Printf("cache: %d hits, %d misses, %d sectors written home in %d I/Os\n",
			st.Cache.Hits, st.Cache.Misses, st.Cache.HomeWrites, st.Cache.HomeWriteOps)
		if dc := st.Cache.Data; dc.Capacity > 0 {
			fmt.Printf("data cache: %d/%d frames, %d hits, %d misses, %d read-ahead sectors, %d/%d coalesced reads/writes, %d invalidated, %d evicted\n",
				dc.Size, dc.Capacity, dc.Hits, dc.Misses, dc.ReadAheadSectors,
				dc.CoalescedReads, dc.CoalescedWrites, dc.Invalidated, dc.Evicted)
		}
		fmt.Printf("commit: %d forces, %d records, %d/%d images logged/staged (batching %.2fx), %d sectors\n",
			st.Commit.Forces, st.Commit.Records, st.Commit.ImagesLogged,
			st.Commit.ImagesStaged, st.Commit.BatchingFactor, st.Commit.SectorsWritten)
		mode := "fixed"
		if st.Commit.Adaptive {
			mode = "adaptive"
		}
		fmt.Printf("commit deadline: %v (%s)\n",
			st.Commit.ForceDeadline.Round(100*time.Microsecond), mode)
		if iq := st.Intent; iq.Enabled {
			fmt.Printf("intent queue: depth %d (max %d), %d enqueued, %d applied, %d reader waits, applier busy %v\n",
				iq.Depth, iq.MaxDepth, iq.Enqueued, iq.Applied, iq.ReaderWaits,
				iq.ApplierBusy.Round(time.Millisecond))
			if iq.ApplyLag.Count > 0 {
				fmt.Printf("apply lag: %d samples, mean %.1f ms, max %v\n",
					iq.ApplyLag.Count, iq.ApplyLag.Mean()/float64(time.Millisecond),
					time.Duration(iq.ApplyLag.Max).Round(time.Millisecond))
			}
		}
		fmt.Printf("disk: %d ops (%d reads, %d writes), %d/%d sectors read/written, busy %v simulated\n",
			st.Disk.Ops, st.Disk.Reads, st.Disk.Writes, st.Disk.SectorsRead,
			st.Disk.SectorsWritten, st.Disk.BusyTime().Round(time.Millisecond))
		fmt.Print("disk by region (I/Os/sectors/simulated busy and its rotational wait, read | write):")
		for _, r := range st.DiskRegions {
			fmt.Printf(" %s %d/%d/%v rot %v | %d/%d/%v rot %v;", r.Region,
				r.Read.Ops, r.Read.Sectors, r.Read.Busy.Round(time.Millisecond), r.Read.Rotation.Round(time.Millisecond),
				r.Write.Ops, r.Write.Sectors, r.Write.Busy.Round(time.Millisecond), r.Write.Rotation.Round(time.Millisecond))
		}
		fmt.Println()
		// How growing files were placed and what became of the sectors read
		// ahead: concurrent streams interleaving show as extensions
		// elsewhere, a window too large for the cache as read-ahead wasted.
		fmt.Printf("streams: %d/%d extensions in place/elsewhere; read-ahead %d sectors, %d used, %d wasted; %d promotions\n",
			st.Alloc.ExtendsInPlace, st.Alloc.ExtendsElsewhere, st.Cache.Data.ReadAheadSectors,
			st.Cache.Data.ReadAheadUsed, st.Cache.Data.ReadAheadWasted, st.Cache.Data.Promotions)
		if rc := st.Recovery; rc.Ran {
			how := "log replayed"
			if rc.CleanShutdown {
				how = "clean shutdown"
			}
			fmt.Printf("recovery: %s — %d records, %d images applied, %d repaired, %d torn, %d tail discarded, %d gap breaks, %d sectors read, %v simulated\n",
				how, rc.Records, rc.Images, rc.Repaired, rc.TornRecords,
				rc.TailDiscarded, rc.GapBreaks, rc.SectorsRead,
				rc.Elapsed.Round(time.Millisecond))
			fmt.Printf("recovery phases (simulated): replay %v, redo write-back %v, VAM scan %v (%d pages swept in %d chunk reads, %d per-page fallbacks, %d stale leaves decoded and dropped; %s)\n",
				rc.Elapsed.Round(time.Millisecond), rc.RedoElapsed.Round(time.Millisecond),
				rc.ScanElapsed.Round(time.Millisecond), rc.SweepPages, rc.SweepChunks, rc.SweepFallbacks, rc.SweepStaleLeaves,
				timelines(rc.ScanArm, rc.ScanCPU, cliWorkers(), rc.ScanHidden, rc.ScanElapsed))
		}
		fmt.Printf("faults: %d read retries (%d recovered), %d scrub passes, %d copies repaired, %d sectors retired\n",
			st.Faults.ReadRetries, st.Faults.RetriedOK, st.Faults.Scrubs, st.Faults.Repaired, st.Faults.Retired)
		fmt.Printf("write path: %d retries, %d remaps, %d hung ops, error budget %d\n",
			st.Faults.WriteRetries, st.Faults.WriteRemaps, st.Faults.HungOps, st.Faults.ErrorBudget)
		if st.Health == core.HealthHealthy {
			fmt.Printf("health: %s\n", st.Health)
		} else {
			fmt.Printf("health: %s (%s)\n", st.Health, st.HealthReason)
		}
		for _, name := range core.SpanNames() {
			sp, ok := st.Spans[name]
			if !ok {
				continue
			}
			fmt.Printf("span %-12s %6d calls, %d errors, mean %.1f ms\n",
				name, sp.Count, sp.Errors, sp.Latency.Mean()/float64(time.Millisecond))
		}
		return finish()
	default:
		return fmt.Errorf("unknown command %q: %w", cmd, errUsage)
	}
}

// crashcheck runs the systematic crash-state exploration on an in-memory
// volume and reports the oracle verdict.
func crashcheck(jsonOut bool, args []string) error {
	fs := flag.NewFlagSet("crashcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload + enumeration seed")
	states := fs.Int("states", 0, "cap on executed states (0 = all enumerated)")
	state := fs.Int("state", -1, "re-execute exactly this state id (repro mode)")
	ops := fs.Int("ops", 0, "workload length (0 = default)")
	decay := fs.Float64("decay", 0, "latent media decay probability composed on each crash image")
	writeDecay := fs.Float64("writedecay", 0, "write-fault probability (transient; bad-on-write at 1/4) composed on each crash image")
	workers := fs.Int("workers", 0, "parallel state executors (0 = GOMAXPROCS)")
	async := fs.Bool("async", false, "run the workload through the asynchronous intent queue")
	nested := fs.Bool("nested", false, "depth-2 exploration: crash each state's recovery at its barrier epochs and recover again")
	depth := fs.Int("depth", 0, "nested exploration depth (only 2 is supported; 0 = 2 with -nested)")
	inner := fs.Int("inner", 0, "with -nested, inner crash states sampled per outer state (0 = default 8)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("crashcheck: %w", errUsage)
	}
	res, err := crashtest.Run(crashtest.Config{
		Seed:        *seed,
		Ops:         *ops,
		MaxStates:   *states,
		StateID:     *state,
		Workers:     *workers,
		Decay:       *decay,
		WriteDecay:  *writeDecay,
		Async:       *async,
		Nested:      *nested,
		Depth:       *depth,
		InnerStates: *inner,
	})
	if err != nil {
		return err
	}
	rmin, rmed, rmax := res.RecoverySummary()
	nmin, nmed, nmax := res.RecoveryOfRecoverySummary()
	if jsonOut {
		if err := emitJSON(struct {
			*crashtest.Result
			StatesPerSec float64       `json:"states_per_sec"`
			RecoveryMin  time.Duration `json:"recovery_min_ns"`
			RecoveryMed  time.Duration `json:"recovery_median_ns"`
			RecoveryMax  time.Duration `json:"recovery_max_ns"`
			RecRecMin    time.Duration `json:"recovery_of_recovery_min_ns,omitempty"`
			RecRecMed    time.Duration `json:"recovery_of_recovery_median_ns,omitempty"`
			RecRecMax    time.Duration `json:"recovery_of_recovery_max_ns,omitempty"`
		}{res, float64(res.States) / res.Elapsed.Seconds(), rmin, rmed, rmax, nmin, nmed, nmax}); err != nil {
			return err
		}
	} else {
		fmt.Printf("workload: seed %d, %d ops (%d acked, %d unacked), %d barrier epochs, %d journaled writes\n",
			res.Seed, res.Ops, res.AckedOps, res.UnackedOps, res.Epochs, res.TracedWrites)
		fmt.Printf("explored %d/%d crash states (%d prefix, %d reorder, %d torn) in %v (%.0f states/sec)\n",
			res.States, res.StatesTotal, res.PrefixStates, res.ReorderStates, res.TornStates,
			res.Elapsed.Round(time.Millisecond), float64(res.States)/res.Elapsed.Seconds())
		fmt.Printf("recovery: %d torn records, %d discarded tail records, %d gap breaks across the sweep\n",
			res.TornRecords, res.TailDiscarded, res.GapBreaks)
		fmt.Printf("simulated recovery time: min %v, median %v, max %v\n",
			rmin.Round(time.Millisecond), rmed.Round(time.Millisecond), rmax.Round(time.Millisecond))
		if *nested {
			fmt.Printf("nested: %d/%d inner (depth-2) states, %d inner mount failures, %d depth-2 violations\n",
				res.InnerStates, res.InnerStatesTotal, res.InnerMountFailures, res.InnerViolations)
			fmt.Printf("recovery-of-recovery time: min %v, median %v, max %v\n",
				nmin.Round(time.Millisecond), nmed.Round(time.Millisecond), nmax.Round(time.Millisecond))
		}
		if res.MediaLosses > 0 {
			fmt.Printf("media losses under decay: %d (single-copy data has no redundancy)\n", res.MediaLosses)
		}
		if res.MountFailures == 0 && res.InnerMountFailures == 0 && len(res.Violations) == 0 {
			fmt.Println("oracle: every acknowledged op durable, every state mountable — PASS")
		}
		for _, viol := range res.Violations {
			fmt.Printf("VIOLATION: %s\n  repro: fsdctl crashcheck -seed %d -state %d\n  %s\n",
				viol.Desc, viol.Seed, viol.StateID, viol.State)
		}
		if res.MountFailures > 0 || res.InnerMountFailures > 0 {
			fmt.Printf("MOUNT FAILURES: %d outer, %d inner\n", res.MountFailures, res.InnerMountFailures)
		}
	}
	if res.MountFailures > 0 || res.InnerMountFailures > 0 || len(res.Violations) > 0 {
		return fmt.Errorf("crashcheck: %w", errProblems)
	}
	return nil
}

// version parses an optional trailing "!N" version argument.
func version(args []string) uint32 {
	if len(args) >= 3 {
		var v uint32
		fmt.Sscanf(args[2], "%d", &v)
		return v
	}
	return 0
}

var _ = core.Config{}
