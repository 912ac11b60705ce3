package wal

// Read-only log inspection for diagnostics (cmd/logdump). It applies nothing
// and resets nothing, so it can be run against a live image without consuming
// the log.

import (
	"math"

	"repro/internal/disk"
	"repro/internal/sim"
)

// RecordInfo describes one valid record found in the log.
type RecordInfo struct {
	Offset     int // sector offset within the record area
	RecordNum  uint64
	BootCount  uint32
	Images     int
	Sectors    int // 5 + 2*Images
	EndOfBatch bool
	Targets    []ImageRef
}

// ImageRef names one logged page image.
type ImageRef struct {
	Kind   uint8
	Target uint64
}

// LogInfo is the inspection result.
type LogInfo struct {
	BootCount    uint32
	AnchorOffset int
	AnchorRecord uint64
	Thirds       int
	ThirdLen     int
	Records      []RecordInfo
	// PartialTail counts records of an unterminated final batch.
	PartialTail int
}

// Inspect walks the log region read-only and reports the records replay
// would read, in order, stopping where replay stops: it shares replay's walk,
// reader and stopping rule. The division count is the one the anchor records.
func Inspect(d *disk.Disk, base, size int) (LogInfo, error) {
	l, err := Open(d, base, size, sim.NewVirtualClock(), Config{})
	if err != nil {
		return LogInfo{}, err
	}
	var info LogInfo
	a, _, err := l.walk(&bodyReader{l: l}, math.MaxUint64, func(rec *record) bool {
		if !rec.complete() {
			return false
		}
		ri := RecordInfo{
			Offset:     rec.off,
			RecordNum:  rec.h.recordNum,
			BootCount:  rec.h.bootCount,
			Images:     rec.h.n,
			Sectors:    5 + 2*rec.h.n,
			EndOfBatch: rec.h.endOfBatch,
		}
		for _, dsc := range rec.h.descs {
			ri.Targets = append(ri.Targets, ImageRef{Kind: dsc.Kind, Target: dsc.Target})
		}
		info.Records = append(info.Records, ri)
		if info.PartialTail++; rec.h.endOfBatch {
			info.PartialTail = 0
		}
		return true
	})
	if err != nil {
		return LogInfo{}, err
	}
	info.BootCount, info.AnchorOffset, info.AnchorRecord = a.bootCount, int(a.offset), a.recordNum
	info.Thirds, info.ThirdLen = l.divs, l.thirdLen()
	return info, nil
}
