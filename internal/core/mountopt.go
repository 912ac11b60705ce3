package core

import (
	"errors"
	"fmt"

	"repro/internal/disk"
)

// MountOption configures Mount. The zero set of options is the normal
// writable mount with log replay.
type MountOption func(*mountOptions)

type mountOptions struct {
	readOnly     bool
	allowSalvage bool
	onVolume     func(v *Volume) // a test's way in: called with the volume as soon as it exists
}

// ReadOnly mounts the volume in the degraded read-only mode: after a crash
// the log is replayed entirely in memory, mutations fail with ErrReadOnly,
// and nothing is written anywhere — the platters stay exactly as found.
func ReadOnly() MountOption {
	return func(o *mountOptions) { o.readOnly = true }
}

// AllowSalvage lets Mount degrade when normal recovery fails (root pages
// intact but the name table or log damaged beyond the duplicates' reach):
// first to a read-only mount — which preserves the committed state without
// writing, the last rung before data loss — and then to the destructive
// salvage sweep. A salvage result carries its SalvageStats in the report;
// a read-only result is flagged in MountStats.ReadOnly.
func AllowSalvage() MountOption {
	return func(o *mountOptions) { o.allowSalvage = true }
}

// MountReport is everything a mount had to do. MountStats is embedded, so
// existing field accesses (report.CleanShutdown, report.Elapsed, ...) keep
// working; Salvage is non-nil only when AllowSalvage was given and the
// salvage rung ran.
type MountReport struct {
	MountStats
	Salvage *SalvageStats
}

// Mount attaches to a previously formatted volume. With no options it is
// the normal writable mount: the volume root is stamped in-use, and after a
// crash the log is replayed and the allocation map reconstructed, after a
// clean shutdown the saved map loaded. Options
// select the degraded modes (ReadOnly, AllowSalvage); see MountReport for
// what the mount did. Behavioural Config fields (commit interval, cache
// size, mount workers) apply; layout fields come from the volume root page.
func Mount(d *disk.Disk, cfg Config, opts ...MountOption) (*Volume, MountReport, error) {
	var o mountOptions
	for _, opt := range opts {
		opt(&o)
	}
	var rep MountReport
	if o.readOnly {
		v, ms, err := mountReadOnly(d, cfg, o)
		rep.MountStats = ms
		return v, rep, err
	}
	v, ms, err := mountWritable(d, cfg, o)
	rep.MountStats = ms
	// A volume of another entry format is no damage for the lower rungs to
	// work round: salvage would rebuild it in the new format from leaders.
	if err == nil || !o.allowSalvage || errors.Is(err, ErrVolumeFormat) {
		return v, rep, err
	}
	// A volume mid-salvage skips the read-only rung (which would refuse it
	// for the same reason) and resumes the salvage directly.
	if !errors.Is(err, ErrSalvageInProgress) {
		if rv, rms, rerr := mountReadOnly(d, cfg, o); rerr == nil {
			rep.MountStats = rms
			return rv, rep, nil
		}
	}
	sv, ss, serr := Salvage(d, cfg)
	rep.Salvage = &ss
	if serr != nil {
		return nil, rep, fmt.Errorf("core: mount failed (%v); salvage failed: %w", err, serr)
	}
	return sv, rep, nil
}
