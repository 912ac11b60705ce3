package core

import (
	"repro/internal/disk"
	"repro/internal/wal"
)

// mountReadOnly is the degraded mount between a failed writable mount and the
// destructive Salvage sweep: it refuses every mutation and writes nothing
// anywhere, so it works even when the log region or both anchor copies are
// unwritable — a writable Mount cannot finish recovery without resetting the
// log, and Salvage abandons the log's history. A later writable mount finds
// the platters untouched.
//
// A clean root mounts as the writable mount does (mountClean): nothing to
// replay, the saved allocation map loaded. After a crash the log is replayed
// entirely in memory under the scan (replayScan): the replayed name-table
// sectors overlay the stale home copies inside the cache, the leader images
// whose file still owns the sector go to the in-memory pending map, and the
// allocation map is rebuilt but never saved. If the log itself cannot be
// opened or replayed, the mount degrades one step further and serves the last
// flushed home state — stale but internally consistent, because home flushes
// are barriered behind the log's anchor advance. MountStats.LogUnavailable
// reports that case.
func mountReadOnly(d *disk.Disk, cfg Config, o mountOptions) (*Volume, MountStats, error) {
	var ms MountStats
	start := d.Clock().Now()
	v, root, err := openVolume(d, cfg, o, true)
	if err != nil {
		return nil, ms, err
	}
	lay := root.layout
	ms.CleanShutdown = root.clean
	ms.ReadOnly = true
	// The uid chunk is not advanced on disk (nothing is written); bump it
	// in memory only so any internal allocation stays unique this session.
	v.uidNext.Store((root.uidChunk + 1) << 32)

	if root.clean {
		err = v.mountClean(&ms)
	} else {
		// Replay reads feed the health budget even read-only (readLog), so
		// a mount that limps through decayed media reports Degraded in
		// Stats().
		lg, lerr := wal.Open(d, lay.logBase, lay.logSize, v.clk, v.walConfig())
		if lerr != nil {
			lg = nil
		}
		var leaders []wal.PageImage
		leaders, err = v.replayScan(lg, &ms)
		// Staged, where the read path's leader check looks first.
		for _, im := range leaders {
			v.leaders.stage(int(im.Target), im.Data)
		}
	}
	if err != nil {
		return nil, ms, err
	}
	ms.Elapsed = v.clk.Now() - start
	v.noteRecovery(ms)
	v.goLive()
	return v, ms, nil
}
