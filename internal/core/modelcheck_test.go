package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestModelCheckRandomCrashes is a miniature model checker: it runs many
// seeded episodes, each performing a random operation sequence against both
// the volume and an in-memory reference model, crashing the device at a
// random write, recovering, and checking the recovered volume against the
// reference state as of the last commit. Durability (committed data
// survives), atomicity (no torn metadata), and the bounded-loss contract
// (only the uncommitted window disappears) are all checked at once.
func TestModelCheckRandomCrashes(t *testing.T) {
	const episodes = 60
	for ep := 0; ep < episodes; ep++ {
		ep := ep
		t.Run(fmt.Sprintf("seed%02d", ep), func(t *testing.T) {
			runModelCheckEpisode(t, int64(ep)*7919+13)
		})
	}
}

type refState struct {
	committed map[string][]byte // name!version -> content at last force
	staged    map[string][]byte // changes since the last force (nil = deleted)
}

func key(name string, ver uint32) string { return fmt.Sprintf("%s!%d", name, ver) }

func runModelCheckEpisode(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := sim.NewVirtualClock()
	d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, clk)
	if err != nil {
		t.Fatal(err)
	}
	// A huge commit interval pins commit points to the explicit Force
	// calls the reference model tracks; the timer-driven path is covered
	// elsewhere.
	cfg := testConfig()
	cfg.GroupCommitInterval = time.Hour
	v, err := Format(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ref := refState{committed: map[string][]byte{}, staged: map[string][]byte{}}
	versions := map[string]uint32{} // live newest version per name
	names := []string{"a", "b/b", "c/c/c", "dd", "e!e"}

	// Arm the crash at a random upcoming write.
	crashAt := 5 + rng.Intn(120)
	d.SetWriteFault(disk.FailAfterWrites(crashAt, rng.Intn(3)))

	halted := false
	steps := 200
	for i := 0; i < steps && !halted; i++ {
		name := names[rng.Intn(len(names))]
		var err error
		switch op := rng.Intn(10); {
		case op < 5: // create a new version
			data := payload(1+rng.Intn(2500), byte(rng.Intn(256)))
			var f *File
			f, err = v.Create(name, data)
			if err == nil {
				versions[name] = f.Entry().Version
				ref.staged[key(name, f.Entry().Version)] = data
			}
		case op < 7: // delete the newest version
			ver := versions[name]
			if ver == 0 {
				continue
			}
			err = v.Delete(name, ver)
			if err == nil {
				ref.staged[key(name, ver)] = nil
				// Find the next-lower live version for bookkeeping.
				versions[name] = 0
				for vv := ver - 1; vv >= 1; vv-- {
					k := key(name, vv)
					if dat, ok := ref.staged[k]; ok {
						if dat != nil {
							versions[name] = vv
						}
						break
					}
					if ref.committed[k] != nil {
						versions[name] = vv
						break
					}
					if vv == 1 {
						break
					}
				}
			}
		case op < 8: // touch
			if versions[name] == 0 {
				continue
			}
			err = v.Touch(name, versions[name])
		case op < 9: // read back and verify against the model
			ver := versions[name]
			if ver == 0 {
				continue
			}
			var f *File
			f, err = v.Open(name, ver)
			if err == nil {
				var got []byte
				got, err = f.ReadAll()
				if err == nil {
					want := ref.staged[key(name, ver)]
					if want == nil {
						want = ref.committed[key(name, ver)]
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d: live read of %s!%d mismatch", seed, name, ver)
					}
				}
			}
		default: // force: staged becomes committed
			err = v.Force()
			if err == nil {
				for k, val := range ref.staged {
					if val == nil {
						delete(ref.committed, k)
					} else {
						ref.committed[k] = val
					}
				}
				ref.staged = map[string][]byte{}
			}
		}
		if err != nil {
			if errors.Is(err, disk.ErrHalted) {
				halted = true
				break
			}
			t.Fatalf("seed %d step %d: %v", seed, i, err)
		}
	}
	if !halted {
		// The crash point was beyond the workload; crash now.
		v.Crash()
	}
	d.Revive()

	v2, _, err := Mount(d, cfg)
	if err != nil {
		t.Fatalf("seed %d: mount after crash: %v", seed, err)
	}
	if err := v2.nt.Check(); err != nil {
		t.Fatalf("seed %d: name table corrupt: %v", seed, err)
	}
	// Durability: every committed version is present and intact.
	for k, want := range ref.committed {
		var name string
		var ver uint32
		if _, err := fmt.Sscanf(k, "%s", &name); err != nil {
			t.Fatal(err)
		}
		// key format name!ver where name may contain '!': split at last '!'.
		idx := len(k) - 1
		for k[idx] != '!' {
			idx--
		}
		name = k[:idx]
		fmt.Sscanf(k[idx+1:], "%d", &ver)
		f, err := v2.Open(name, ver)
		if err != nil {
			t.Fatalf("seed %d: committed %s lost: %v", seed, k, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: committed %s corrupted: %v", seed, k, err)
		}
	}
	// The volume is immediately usable and fresh allocations never land
	// on pages belonging to surviving files.
	for i := 0; i < 10; i++ {
		if _, err := v2.Create(fmt.Sprintf("post/p%02d", i), payload(900, byte(i))); err != nil {
			t.Fatalf("seed %d: post-recovery create: %v", seed, err)
		}
	}
	for k, want := range ref.committed {
		idx := len(k) - 1
		for k[idx] != '!' {
			idx--
		}
		var ver uint32
		fmt.Sscanf(k[idx+1:], "%d", &ver)
		f, err := v2.Open(k[:idx], ver)
		if err != nil {
			t.Fatalf("seed %d: %s lost after post-recovery writes: %v", seed, k, err)
		}
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: %s overwritten by post-recovery allocation", seed, k)
		}
	}
}
