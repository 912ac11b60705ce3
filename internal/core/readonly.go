package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/wal"
)

// mountReadOnly is the degraded mount between a failed writable mount and the
// destructive Salvage sweep: it replays the log entirely in memory and
// refuses every mutation, so it works even when the log region or both
// anchor copies are unwritable — a writable Mount cannot finish recovery
// without resetting the log, and Salvage abandons the log's history. The
// volume serves the committed state (replayed name-table sectors overlay the
// stale home copies inside the cache; leader images go to the in-memory
// pending map; the allocation map is rebuilt but never saved) and writes
// nothing anywhere: a later writable mount finds the platters untouched.
//
// If the log itself cannot be opened or replayed, the mount degrades one
// step further and serves the last flushed home state — stale but internally
// consistent, because home flushes are barriered behind the log's anchor
// advance. MountStats.LogUnavailable reports that case.
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

	// The VAM images go unused: the map is rebuilt by the scan below.
	imgs := newReplayed()
	var recovered wal.RecoveryStats
	lg, lerr := wal.Open(d, lay.logBase, lay.logSize, v.clk, wal.Config{
		Interval:    cfg.interval(),
		ReadRetries: cfg.ReadRetries,
	})
	if lerr == nil {
		// Replay reads feed the health budget even read-only, so a mount
		// that limps through decayed media reports Degraded in Stats().
		lg.OnReadFault = v.noteReadFault
		rs, rerr := imgs.replay(lg)
		if rerr != nil {
			ms.LogUnavailable = true
			imgs = newReplayed()
		} else {
			ms.noteReplay(rs)
			recovered = rs
		}
	} else {
		ms.LogUnavailable = true
	}

	v.ntOverride = imgs.nt
	v.nt, err = btree.Open(v.cache)
	if err != nil {
		return nil, ms, fmt.Errorf("core: name table unreadable in read-only mount: %w", err)
	}

	// Allocation map and leader ownership are rebuilt in memory; the map is
	// only consulted by Verify, never saved.
	ms.VAMReconstructed = true
	scanStart := v.clk.Now()
	owners, sw, err := v.scanForRebuild(true)
	ms.noteSweep(sw)
	if err != nil {
		return nil, ms, err
	}
	ms.VAMElapsed = v.clk.Now() - scanStart

	// Replayed leader images whose file still owns the sector are served
	// from the pending map, exactly where the read path's leader
	// verification looks first.
	for addr, img := range imgs.leaders {
		uid, ok := leaderUID(img)
		if !ok {
			continue
		}
		if owner, present := owners[addr]; present && owner == uid {
			v.pendingLeaders[addr] = img
		}
	}
	ms.Elapsed = v.clk.Now() - start
	v.noteRecovery(recovered, ms)
	v.goLive()
	return v, ms, nil
}
