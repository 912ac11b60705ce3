// Package cedarfs is the public API of the Cedar FSD reproduction: a
// user-space reimplementation of the file system described in Robert
// Hagmann's "Reimplementing the Cedar File System Using Logging and Group
// Commit" (SOSP 1987), together with the simulated Trident-class disk it
// runs on.
//
// The quickest start:
//
//	vol, err := cedarfs.NewVolume()          // 300 MB simulated volume
//	f, err := vol.Create("notes.txt", data)  // one synchronous I/O
//	f2, err := vol.Open("notes.txt", 0)      // no I/O when the name table is warm
//	data, err := f2.ReadAll()
//	st := vol.Stats()                        // every counter in one snapshot
//	err = vol.Shutdown()                     // saves the VAM, stamps clean
//
// Crash behaviour: drop the Volume without Shutdown (or call Crash), revive
// the disk, and Mount — the metadata log replays in seconds and the
// allocation map is reconstructed from the file name table.
//
// Observability: Volume.Stats() snapshots every counter (operations, cache,
// group commit, disk, faults, per-operation latency spans) without blocking
// any operation; Volume.TraceTo(sink) streams structured events (disk ops
// with seek/latency/transfer breakdown, WAL appends and forces, cache
// hits/misses, operation spans). Tracing is off by default and costs one
// atomic load per potential event.
//
// The baselines the paper compares against are available as subpackages for
// benchmark use: internal/cfs (the old label-based Cedar file system) and
// internal/unixfs (a 4.2/4.3 BSD FFS analogue).
package cedarfs

import (
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Re-exported core types. See internal/core for full documentation.
type (
	// Volume is a mounted FSD volume.
	Volume = core.Volume
	// File is an open-file handle.
	File = core.File
	// Entry is one file name table record.
	Entry = core.Entry
	// Config tunes a volume; the zero value is the paper's design point.
	Config = core.Config
	// MountStats reports what mounting had to do (log replay, VAM
	// reconstruction).
	MountStats = core.MountStats
	// MountOption selects a mount mode for Mount (ReadOnly, AllowSalvage).
	MountOption = core.MountOption
	// MountReport is the unified mount result: MountStats embedded, plus
	// SalvageStats when the salvage rung ran.
	MountReport = core.MountReport
	// Class distinguishes local files, symbolic links, and cached copies
	// of remote files.
	Class = core.Class
	// Stats is the one-call snapshot of every volume counter; see
	// Volume.Stats.
	Stats = core.Stats
	// OpStats counts logical file-system operations.
	OpStats = core.OpStats
	// CacheStats counts name-table cache activity.
	CacheStats = core.CacheStats
	// DataCacheStats counts file-data buffer cache activity.
	DataCacheStats = core.DataCacheStats
	// CommitStats reports group-commit activity and batching distributions,
	// including the adaptive force deadline currently in effect.
	CommitStats = core.CommitStats
	// IntentStats reports the asynchronous metadata pipeline (queue depth,
	// apply lag, applier CPU); zero-valued with Enabled false on staged
	// volumes.
	IntentStats = core.IntentStats
	// SpanStats summarizes one instrumented operation (count, errors,
	// sim-time latency distribution).
	SpanStats = core.SpanStats
	// DiskStats is the raw device activity snapshot.
	DiskStats = disk.Stats
	// DiskRegionStats is the device activity that landed in one region of
	// the volume layout (log, either name-table copy, VAM + root, data);
	// see Stats.DiskRegions.
	DiskRegionStats = core.DiskRegionStats
	// DiskRegionIO is one direction of one region: I/Os, sectors, and the
	// simulated busy time split into seek, rotational wait and transfer.
	DiskRegionIO = core.DiskRegionIO
	// ScrubStats reports one online scrub pass (copies repaired, sectors
	// retired).
	ScrubStats = core.ScrubStats
	// SalvageStats reports a salvage mount (files recovered vs lost,
	// progress-checkpoint resume state).
	SalvageStats = core.SalvageStats
	// RecoveryStats reports what the mount-time log replay did; see
	// Stats.Recovery.
	RecoveryStats = core.RecoveryStats
	// VolumeFaultStats aggregates a volume's media-fault handling
	// (retries, scrub repairs, retirements).
	VolumeFaultStats = core.FaultStats
	// Health is the volume health state: healthy, degraded, read-only,
	// offline. It only moves forward; see Stats.Health.
	Health = core.Health
	// FaultConfig parameterizes the disk's probabilistic fault injector.
	FaultConfig = disk.FaultConfig
	// DiskFaultStats counts faults the disk injected and remaps it served.
	DiskFaultStats = disk.FaultStats
	// TraceEvent is one structured observability event; see Volume.TraceTo.
	TraceEvent = obs.Event
	// TraceSink receives trace events as they are emitted.
	TraceSink = obs.Sink
	// HistSnapshot is a point-in-time histogram copy (latency and batching
	// distributions inside Stats).
	HistSnapshot = obs.HistSnapshot
)

// Entry classes.
const (
	Local   = core.Local
	SymLink = core.SymLink
	Cached  = core.Cached
)

// Health states, in degradation order.
const (
	HealthHealthy  = core.HealthHealthy
	HealthDegraded = core.HealthDegraded
	HealthReadOnly = core.HealthReadOnly
	HealthOffline  = core.HealthOffline
)

// Errors.
var (
	ErrNotFound  = core.ErrNotFound
	ErrClosed    = core.ErrClosed
	ErrIsSymlink = core.ErrIsSymlink
	ErrReadOnly  = core.ErrReadOnly
	ErrOffline   = core.ErrOffline
	// ErrSalvageInProgress marks a volume with a durable salvage
	// checkpoint: a crash interrupted a salvage sweep, and only a
	// salvaging mount (AllowSalvage) may touch it.
	ErrSalvageInProgress = core.ErrSalvageInProgress
)

// Disk and clock types for callers that want to build their own device.
type (
	// Disk is the simulated sector-addressable drive.
	Disk = disk.Disk
	// Geometry describes a drive's physical layout.
	Geometry = disk.Geometry
	// DiskParams holds seek/rotation timing.
	DiskParams = disk.Params
	// Clock is the simulation time source.
	Clock = sim.Clock
	// VirtualClock is the deterministic clock used by tests and
	// benchmarks.
	VirtualClock = sim.VirtualClock
)

// DefaultGeometry is the 300 MB Trident-class volume of the paper.
var DefaultGeometry = disk.DefaultGeometry

// DefaultDiskParams approximates the drive timing of the paper's hardware.
var DefaultDiskParams = disk.DefaultParams

// NewDisk creates a simulated drive on a fresh virtual clock.
func NewDisk(g Geometry) (*Disk, *VirtualClock, error) {
	clk := sim.NewVirtualClock()
	d, err := disk.New(g, disk.DefaultParams, clk)
	return d, clk, err
}

// NewVolume formats an FSD volume on a fresh 300 MB simulated disk with the
// paper's configuration (half-second group commit, thirds log, doubled name
// table) and returns it mounted.
func NewVolume() (*Volume, error) {
	d, _, err := NewDisk(DefaultGeometry)
	if err != nil {
		return nil, err
	}
	return core.Format(d, Config{})
}

// Format initializes an FSD volume on d and returns it mounted.
func Format(d *Disk, cfg Config) (*Volume, error) { return core.Format(d, cfg) }

// Mount attaches to a formatted volume, replaying the metadata log and
// reconstructing the allocation map as needed. Options select the degraded
// modes: ReadOnly() for the write-nothing inspection mount, AllowSalvage()
// to fall back to a read-only mount and then the salvage sweep when normal
// recovery fails. The report embeds MountStats, so existing field accesses
// keep working.
func Mount(d *Disk, cfg Config, opts ...MountOption) (*Volume, MountReport, error) {
	return core.Mount(d, cfg, opts...)
}

// ReadOnly is the Mount option for the degraded read-only mount: the log
// replays entirely in memory and every mutation returns ErrReadOnly.
func ReadOnly() MountOption { return core.ReadOnly() }

// AllowSalvage is the Mount option that permits degrading to a read-only
// mount and then to the destructive salvage sweep when recovery fails.
func AllowSalvage() MountOption { return core.AllowSalvage() }

// Salvage rebuilds a volume whose name table is lost in both copies by
// scanning the data region for leader pages. Last-ditch recovery; see
// Volume.Scrub for the maintenance pass that makes it unnecessary. Prefer
// Mount(d, cfg, AllowSalvage()), which tries the non-destructive rungs
// first; Salvage remains the direct entry for tooling that has already
// decided to sweep.
func Salvage(d *Disk, cfg Config) (*Volume, SalvageStats, error) { return core.Salvage(d, cfg) }
