package core

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// bringUpPath brings a volume up on d, which holds a volume formatted with
// VAM logging as the row asks and — except on the format path, where d is
// blank — a few files, left as the path needs them. cfg is the bring-up's
// Config; its LogVAM is the opposite of the volume's.
type bringUpPath struct {
	name     string
	readOnly bool
	up       func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume
}

var bringUpPaths = []bringUpPath{
	{name: "format"},
	{name: "mount", up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		shutdown(t, v)
		return mustMount(t, d, cfg)
	}},
	{name: "mount-after-crash", up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		v.Crash()
		d.Revive()
		return mustMount(t, d, cfg)
	}},
	{name: "mount-read-only", readOnly: true, up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		v.Crash()
		d.Revive()
		return mustMount(t, d, cfg, ReadOnly())
	}},
	{name: "salvage", up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		shutdown(t, v)
		v.DestroyNameTable()
		sv, _, err := Salvage(d, cfg)
		if err != nil {
			t.Fatalf("Salvage: %v", err)
		}
		return sv
	}},
	{name: "salvage-resumed-at-finalize", up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		// A salvage that crashed after its rebuild leaves the finished tree
		// in copy A and a finalize checkpoint: a shut-down volume with the
		// checkpoint written is that state.
		shutdown(t, v)
		ck := salvageCheckpoint{phase: salvageFinalize, cursor: v.lay.total}
		if err := d.WriteSectors(v.lay.logBase+salvageCkA, encodeSalvageCheckpoint(ck)); err != nil {
			t.Fatal(err)
		}
		sv, st, err := Salvage(d, cfg)
		if err != nil {
			t.Fatalf("Salvage: %v", err)
		}
		if !st.Resumed || st.ResumedPhase != "finalize" {
			t.Fatalf("Salvage did not resume at finalize: resumed %v, phase %q", st.Resumed, st.ResumedPhase)
		}
		return sv
	}},
	{name: "mount-allow-salvage", up: func(t *testing.T, d *disk.Disk, v *Volume, cfg Config) *Volume {
		shutdown(t, v)
		v.DestroyNameTable()
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
// AsyncApply off and on, on volumes formatted with and without VAM logging,
// and holds what the one bring-up promises on every path: the intent queue
// runs exactly when AsyncApply is set and the volume is writable, VAM logging
// follows the root page rather than the Config, and the volume is ready.
func TestBringUpPaths(t *testing.T) {
	for _, p := range bringUpPaths {
		for _, async := range []bool{false, true} {
			for _, logVAM := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/async=%v/logvam=%v", p.name, async, logVAM), func(t *testing.T) {
					fcfg := testConfig()
					fcfg.AsyncApply, fcfg.LogVAM = async, logVAM
					d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
					if err != nil {
						t.Fatal(err)
					}
					v, err := Format(d, fcfg)
					if err != nil {
						t.Fatalf("Format: %v", err)
					}
					if p.up != nil {
						for i := 0; i < 8; i++ {
							if _, err := v.Create(fmt.Sprintf("up/f%d", i), payload(700*i, byte(i))); err != nil {
								t.Fatal(err)
							}
						}
						if err := v.Force(); err != nil {
							t.Fatal(err)
						}
						cfg := fcfg
						cfg.LogVAM = !logVAM
						v = p.up(t, d, v, cfg)
					}
					defer v.Crash()

					writable := !p.readOnly
					if v.ReadOnly() == writable {
						t.Fatalf("ReadOnly() = %v", v.ReadOnly())
					}
					if queued := v.IntentQueueLimit() > 0; queued != (async && writable) {
						t.Errorf("intent queue running = %v, want %v", queued, async && writable)
					}
					if v.cfg.LogVAM != logVAM {
						t.Errorf("volume LogVAM = %v, want the root's %v", v.cfg.LogVAM, logVAM)
					}
					if logging := v.vamSectors != nil; logging != (logVAM && writable) {
						t.Errorf("VAM logging on = %v, want %v", logging, logVAM && writable)
					}
					if root, err := readRoot(d, 0); err != nil || root.logVAM != logVAM {
						t.Errorf("root page: logVAM %v (%v), want %v", root.logVAM, err, logVAM)
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
