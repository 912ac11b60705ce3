package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestSalvageCheckpointRoundTrip pins the on-disk checkpoint format: encode
// and decode are inverses, corruption is detected, and clearing removes both
// copies.
func TestSalvageCheckpointRoundTrip(t *testing.T) {
	ck := salvageCheckpoint{phase: salvageRebuild, cursor: 12345, cands: 17, damaged: 3, manifestCRC: 0xDEADBEEF}
	buf := encodeSalvageCheckpoint(ck)
	got, ok := decodeSalvageCheckpoint(buf)
	if !ok || got != ck {
		t.Fatalf("round trip: %+v ok=%v, want %+v", got, ok, ck)
	}
	buf[8] ^= 1 // flip a cursor bit: CRC must catch it
	if _, ok := decodeSalvageCheckpoint(buf); ok {
		t.Fatal("corrupted checkpoint decoded successfully")
	}
	if _, ok := decodeSalvageCheckpoint(make([]byte, disk.SectorSize)); ok {
		t.Fatal("zero sector decoded as a checkpoint")
	}

	v, d, _ := newTestVolumeWith(t, testConfig())
	lay := v.lay
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSectors(lay.logBase+salvageCkA, encodeSalvageCheckpoint(ck)); err != nil {
		t.Fatal(err)
	}
	if got, ok := readSalvageCheckpoint(d, lay, testConfig().readRetries()); !ok || got != ck {
		t.Fatalf("readSalvageCheckpoint = %+v ok=%v", got, ok)
	}
	// Copy A lost: copy B still serves the checkpoint.
	d.CorruptSectors(lay.logBase+salvageCkA, 1)
	if err := d.WriteSectors(lay.logBase+salvageCkB, encodeSalvageCheckpoint(ck)); err != nil {
		t.Fatal(err)
	}
	if got, ok := readSalvageCheckpoint(d, lay, testConfig().readRetries()); !ok || got != ck {
		t.Fatalf("checkpoint lost with copy A damaged: %+v ok=%v", got, ok)
	}
	write := func(addr int, data []byte) error { return d.WriteSectors(addr, data) }
	if err := clearSalvageCheckpoint(write, lay); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSalvageCheckpoint(d, lay, testConfig().readRetries()); ok {
		t.Fatal("checkpoint survived clearSalvageCheckpoint")
	}
}

// TestSalvageCrashResume is the resumable-salvage acceptance scenario: a
// salvage run is crashed at every barrier epoch, and from each crash image
// (a) the normal mount refuses the half-salvaged volume with
// ErrSalvageInProgress once the checkpoint is durable, and (b) a salvaging
// mount resumes from the checkpoint and yields a mountable volume with every
// committed file intact.
func TestSalvageCrashResume(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := map[string][]byte{}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("sr/f%03d", i)
		data := payload(120+i*307, byte(i))
		if i%7 == 6 {
			data = nil
		}
		if _, err := v.Create(name, data); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)

	// Run the full salvage under a write-back window: every write it makes is
	// journaled with its barrier epoch, the platter stays at the crash image.
	d.EnableWriteBack()
	v2, st, err := Salvage(d, testConfig())
	if err != nil {
		t.Fatalf("Salvage under write-back: %v", err)
	}
	if st.Checkpoints < 3 {
		t.Fatalf("Checkpoints = %d, want >= 3 (one per phase at least)", st.Checkpoints)
	}
	if st.Resumed {
		t.Fatalf("fresh salvage reported Resumed: %+v", st)
	}
	trace := d.Trace()
	v2.Crash()
	maxEpoch := 0
	for _, w := range trace {
		if w.Epoch > maxEpoch {
			maxEpoch = w.Epoch
		}
	}
	if maxEpoch < 8 {
		t.Fatalf("salvage produced only %d barrier epochs; write-back not engaged?", maxEpoch)
	}

	cut := func(cutEpoch int) *disk.Disk {
		dc := d.Clone(sim.NewVirtualClock())
		for _, w := range trace {
			if w.Epoch < cutEpoch {
				dc.ApplyJournaled(w)
			}
		}
		return dc
	}

	guarded, resumed := 0, 0
	phases := map[string]bool{}
	for e := 1; e <= maxEpoch+1; e++ {
		// Probe 1: the normal mount ladder must never serve a half-salvaged
		// volume. Either it fails (no checkpoint yet: the destroyed name
		// table; checkpoint durable: ErrSalvageInProgress), or — on the last
		// epochs, after the checkpoint was cleared — the volume is complete.
		dm := cut(e)
		vm, _, merr := Mount(dm, testConfig())
		if merr == nil {
			for name, want := range files {
				f, err := vm.Open(name, 0)
				if err != nil {
					t.Fatalf("epoch %d: plain mount served an incomplete volume: %s: %v", e, name, err)
				}
				if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("epoch %d: plain mount served wrong content for %s: %v", e, name, err)
				}
			}
			vm.Crash()
		} else if errors.Is(merr, ErrSalvageInProgress) {
			guarded++
			// The read-only rung must refuse for the same reason.
			if _, _, roerr := Mount(dm, testConfig(), ReadOnly()); !errors.Is(roerr, ErrSalvageInProgress) {
				t.Fatalf("epoch %d: read-only mount of mid-salvage volume: %v", e, roerr)
			}
		}

		// Probe 2: the salvaging mount must always produce a full volume.
		ds := cut(e)
		vs, rep, serr := Mount(ds, testConfig(), AllowSalvage())
		if serr != nil {
			t.Fatalf("epoch %d: salvaging mount: %v", e, serr)
		}
		if rep.Salvage != nil && rep.Salvage.Resumed {
			resumed++
			phases[rep.Salvage.ResumedPhase] = true
		}
		for name, want := range files {
			f, err := vs.Open(name, 0)
			if err != nil {
				t.Fatalf("epoch %d: %s lost across salvage crash (resumed=%v): %v",
					e, name, rep.Salvage != nil && rep.Salvage.Resumed, err)
			}
			if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("epoch %d: %s content wrong after resumed salvage: %v", e, name, err)
			}
		}
		if vrep, err := vs.Verify(); err != nil || len(vrep.Problems) != 0 {
			t.Fatalf("epoch %d: Verify after resumed salvage: %v %v", e, err, vrep.Problems)
		}
		// The resumed volume is a normal volume: it takes new work and
		// survives a clean remount.
		if _, err := vs.Create("sr/after", payload(64, 200)); err != nil {
			t.Fatalf("epoch %d: create on resumed volume: %v", e, err)
		}
		if err := vs.Shutdown(); err != nil {
			t.Fatalf("epoch %d: shutdown of resumed volume: %v", e, err)
		}
		vr, ms, err := Mount(ds, testConfig())
		if err != nil || !ms.CleanShutdown {
			t.Fatalf("epoch %d: remount after resumed salvage: %v (clean=%v)", e, err, ms.CleanShutdown)
		}
		vr.Crash()
	}
	t.Logf("epochs=%d guarded=%d resumed=%d phases=%v", maxEpoch, guarded, resumed, phases)
	if guarded == 0 {
		t.Error("no crash image was refused with ErrSalvageInProgress")
	}
	if resumed == 0 {
		t.Error("no crash image resumed from a checkpoint")
	}
	if len(phases) < 2 {
		t.Errorf("resume exercised only phases %v, want at least two distinct phases", phases)
	}
}

// TestSalvageResumeWithWriteFaults composes the resumable salvage with the
// write-fault injector: a salvage that limps through transient write errors
// and bad-on-write sectors still recovers every committed file, and the
// survived faults are charged to the volume's health budget.
func TestSalvageResumeWithWriteFaults(t *testing.T) {
	v, d, _ := newTestVolumeWith(t, testConfig())
	files := populate(t, v, 16)
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	destroyNameTable(d, v)

	cfg := testConfig()
	cfg.WriteRetries = 4
	cfg.ReadRetries = 3
	d.InjectFaults(disk.FaultConfig{Seed: 71, TransientWrite: 0.02, BadOnWrite: 0.002})
	v2, st, err := Salvage(d, cfg)
	if err != nil {
		t.Fatalf("Salvage under write faults: %v", err)
	}
	if st.FilesRecovered < len(files) {
		t.Fatalf("FilesRecovered = %d, want >= %d", st.FilesRecovered, len(files))
	}
	for name, want := range files {
		f, err := v2.Open(name, 0)
		if err != nil {
			t.Fatalf("%s lost in faulty salvage: %v", name, err)
		}
		if got, err := f.ReadAll(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s content wrong after faulty salvage: %v", name, err)
		}
	}
	fs := d.FaultStats()
	if fs.TransientWrites == 0 && fs.BadOnWrite == 0 {
		t.Fatalf("fault injector never fired: %+v", fs)
	}
	hs := v2.Stats()
	if fs.TransientWrites > 0 && hs.Faults.WriteRetries == 0 && hs.Faults.WriteRemaps == 0 {
		t.Errorf("survived write faults not charged to health: disk=%+v health=%+v", fs, hs.Faults)
	}
	d.ClearFaults()
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v3, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatalf("remount after faulty salvage: %v", err)
	}
	v3.Crash()
}

// TestSalvageFinalizeResumeMatches: a salvage cut just after its finalize
// checkpoint lands, and resumed from it, ends where the uninterrupted salvage
// of the same image ends — the same allocation map page for page, the same
// FilesRecovered and the same next UID chunk — at pool widths 1 and 8. The
// image has lost both root replicas as well as the name table, and its files
// were created after a remount, so the next UID chunk follows from the
// recovered entries' UIDs alone.
func TestSalvageFinalizeResumeMatches(t *testing.T) {
	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			cfg := testConfig()
			cfg.MountWorkers, cfg.CheckWorkers = width, width
			v, d, _ := newTestVolumeWith(t, cfg)
			populate(t, v, 12)
			if err := v.Shutdown(); err != nil {
				t.Fatal(err)
			}
			v, _, err := Mount(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, v, 24)
			if err := v.Shutdown(); err != nil {
				t.Fatal(err)
			}
			destroyNameTable(d, v)
			lay := v.lay
			d.CorruptSectors(lay.rootA, 1)
			d.CorruptSectors(lay.rootB, 1)

			d.EnableWriteBack()
			whole, st, err := Salvage(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			trace := d.Trace()
			whole.Crash()
			cut := -1 // the first epoch whose cut holds the finalize checkpoint
			var dc *disk.Disk
			for e := 1; cut < 0 && e <= len(trace)+1; e++ {
				dc = d.Clone(sim.NewVirtualClock())
				for _, w := range trace {
					if w.Epoch < e {
						dc.ApplyJournaled(w)
					}
				}
				if ck, ok := readSalvageCheckpoint(dc, lay, cfg.readRetries()); ok && ck.phase == salvageFinalize {
					cut = e
				}
			}
			if cut < 0 {
				t.Fatal("no cut holds the finalize checkpoint")
			}

			resumed, rst, err := Salvage(dc, cfg)
			if err != nil {
				t.Fatalf("resumed salvage from epoch %d: %v", cut, err)
			}
			defer resumed.Crash()
			if !rst.Resumed || rst.ResumedPhase != "finalize" {
				t.Fatalf("salvage from epoch %d resumed=%v phase %q, want finalize", cut, rst.Resumed, rst.ResumedPhase)
			}
			if rst.FilesRecovered != st.FilesRecovered {
				t.Errorf("FilesRecovered %d, uninterrupted %d", rst.FilesRecovered, st.FilesRecovered)
			}
			if got, want := resumed.uidNext.Load(), whole.uidNext.Load(); got != want {
				t.Errorf("next UID %#x, uninterrupted %#x", got, want)
			}
			if resumed.vm.Pages() != whole.vm.Pages() {
				t.Fatalf("map of %d pages, uninterrupted %d", resumed.vm.Pages(), whole.vm.Pages())
			}
			diff := 0
			for p := range whole.vm.Pages() {
				if resumed.vm.IsFree(p) != whole.vm.IsFree(p) {
					diff++
				}
			}
			if diff != 0 || resumed.vm.FreeCount() != whole.vm.FreeCount() {
				t.Errorf("allocation maps differ on %d pages (free %d, uninterrupted %d)", diff, resumed.vm.FreeCount(), whole.vm.FreeCount())
			}
		})
	}
}
