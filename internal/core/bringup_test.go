package core

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// bringUpPath takes a volume down and brings it up again on d. down leaves
// the volume v — formatted, with a few files — as the path needs it; up
// brings it up with cfg. The format path has neither: d is blank but for the
// root an earlier format left.
type bringUpPath struct {
	name     string
	readOnly bool
	down     func(t *testing.T, d *disk.Disk, v *Volume)
	up       func(t *testing.T, d *disk.Disk, cfg Config) *Volume
}

func crash(t *testing.T, d *disk.Disk, v *Volume) {
	v.Crash()
	d.Revive()
}

func shutdownDestroyed(t *testing.T, d *disk.Disk, v *Volume) {
	shutdown(t, v)
	v.DestroyNameTable()
}

func mountUp(t *testing.T, d *disk.Disk, cfg Config) *Volume { return mustMount(t, d, cfg) }

func salvageUp(t *testing.T, d *disk.Disk, cfg Config) *Volume {
	sv, _, err := Salvage(d, cfg)
	if err != nil {
		t.Fatalf("Salvage: %v", err)
	}
	return sv
}

var bringUpPaths = []bringUpPath{
	{name: "format"},
	{name: "mount", down: func(t *testing.T, d *disk.Disk, v *Volume) { shutdown(t, v) }, up: mountUp},
	{name: "mount-after-crash", down: crash, up: mountUp},
	{name: "mount-read-only", readOnly: true, down: crash, up: func(t *testing.T, d *disk.Disk, cfg Config) *Volume {
		return mustMount(t, d, cfg, ReadOnly())
	}},
	{name: "salvage", down: shutdownDestroyed, up: salvageUp},
	{name: "salvage-resumed-at-finalize", down: func(t *testing.T, d *disk.Disk, v *Volume) {
		// A salvage that crashed after its rebuild leaves the finished tree
		// in copy A and a finalize checkpoint: a shut-down volume with the
		// checkpoint written is that state.
		shutdown(t, v)
		ck := salvageCheckpoint{phase: salvageFinalize, cursor: v.lay.total}
		if err := d.WriteSectors(v.lay.logBase+salvageCkA, encodeSalvageCheckpoint(ck)); err != nil {
			t.Fatal(err)
		}
	}, up: func(t *testing.T, d *disk.Disk, cfg Config) *Volume {
		sv, st, err := Salvage(d, cfg)
		if err != nil {
			t.Fatalf("Salvage: %v", err)
		}
		if !st.Resumed || st.ResumedPhase != "finalize" {
			t.Fatalf("Salvage did not resume at finalize: resumed %v, phase %q", st.Resumed, st.ResumedPhase)
		}
		return sv
	}},
	{name: "mount-allow-salvage", down: shutdownDestroyed, up: func(t *testing.T, d *disk.Disk, cfg Config) *Volume {
		sv, rep, err := Mount(d, cfg, AllowSalvage())
		if err != nil {
			t.Fatalf("Mount(AllowSalvage()): %v", err)
		}
		if rep.Salvage == nil {
			t.Fatal("Mount(AllowSalvage()) did not reach its salvage rung")
		}
		return sv
	}},
}

func shutdown(t *testing.T, v *Volume) {
	t.Helper()
	if err := v.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func mustMount(t *testing.T, d *disk.Disk, cfg Config, opts ...MountOption) *Volume {
	t.Helper()
	v, _, err := Mount(d, cfg, opts...)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return v
}

// TestBringUpPaths brings a volume up along each of the seven paths, with
// AsyncApply off and on, and with the root's retired VAM-logging flag
// (logvam, byte 65) clear and set — a volume an older build formatted to log
// its allocation map carries it — and holds what the one bring-up promises on
// every path: the intent queue runs exactly when AsyncApply is set and the
// volume is writable, a flagged volume comes up like any other, a bring-up
// that writes the root writes the flag as 0, and the volume is ready.
func TestBringUpPaths(t *testing.T) {
	for _, p := range bringUpPaths {
		for _, async := range []bool{false, true} {
			for _, flagged := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/async=%v/logvam=%v", p.name, async, flagged), func(t *testing.T) {
					cfg := testConfig()
					cfg.AsyncApply = async
					d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
					if err != nil {
						t.Fatal(err)
					}
					v, err := Format(d, cfg)
					if err != nil {
						t.Fatalf("Format: %v", err)
					}
					if p.up == nil {
						v.Crash()
						d.Revive()
						if flagged {
							setRetiredVAMFlag(t, d)
						}
						if v, err = Format(d, cfg); err != nil {
							t.Fatalf("Format: %v", err)
						}
					} else {
						for i := 0; i < 8; i++ {
							if _, err := v.Create(fmt.Sprintf("up/f%d", i), payload(700*i, byte(i))); err != nil {
								t.Fatal(err)
							}
						}
						if err := v.Force(); err != nil {
							t.Fatal(err)
						}
						p.down(t, d, v)
						if flagged {
							setRetiredVAMFlag(t, d)
						}
						v = p.up(t, d, cfg)
					}
					defer v.Crash()

					writable := !p.readOnly
					if v.ReadOnly() == writable {
						t.Fatalf("ReadOnly() = %v", v.ReadOnly())
					}
					if queued := v.IntentQueueLimit() > 0; queued != (async && writable) {
						t.Errorf("intent queue running = %v, want %v", queued, async && writable)
					}
					for _, addr := range []int{v.lay.rootA, v.lay.rootB} {
						buf, err := d.ReadSectors(addr, 1)
						if err != nil {
							t.Fatal(err)
						}
						if want := flagged && !writable; (buf[65] == 1) != want {
							t.Errorf("root copy at %d: byte 65 = %d, want flag %v", addr, buf[65], want)
						}
					}
					if !v.ready.Load() {
						t.Error("volume not ready")
					}
					if writable {
						if _, err := v.Create("up/after", payload(300, 9)); err != nil {
							t.Fatalf("Create after bring-up: %v", err)
						}
						if err := v.WaitCommitted(v.CommitSeq()); err != nil {
							t.Fatalf("WaitCommitted after bring-up: %v", err)
						}
					}
				})
			}
		}
	}
}
