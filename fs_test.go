package cedarfs_test

import (
	"testing"

	cedarfs "repro"
	"repro/internal/disk"
	"repro/internal/fstest"
	"repro/internal/sim"
)

// TestLocalFSConformance runs the shared FS conformance suite against the
// in-process adapter. internal/server runs the identical suite against the
// remote client over a loopback socket — one contract, two transports.
func TestLocalFSConformance(t *testing.T) {
	fstest.Run(t, newLocalFS(cedarfs.Config{}))
}

// TestLocalFSConformanceAsync repeats the suite over the asynchronous
// metadata pipeline, where acked commit sequences and WaitCommitted do real
// work instead of being trivially satisfied.
func TestLocalFSConformanceAsync(t *testing.T) {
	fstest.Run(t, newLocalFS(cedarfs.Config{AsyncApply: true, AdaptiveCommit: true}))
}

func newLocalFS(cfg cedarfs.Config) fstest.Factory {
	return func(t *testing.T) cedarfs.FS {
		d, err := disk.New(disk.SmallGeometry, disk.DefaultParams, sim.NewVirtualClock())
		if err != nil {
			t.Fatal(err)
		}
		vol, err := cedarfs.Format(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs := cedarfs.NewLocalFS(vol)
		t.Cleanup(func() {
			fs.Close()
			if vs, err := vol.Verify(); err != nil || len(vs.Problems) != 0 {
				t.Errorf("verify: %v, %v", vs.Problems, err)
			}
			if err := vol.Shutdown(); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return fs
	}
}
