// Package disk implements a sector-addressable simulated disk with the
// timing behaviour, label support, and failure modes of the Trident-class
// drives the paper's file systems ran on.
//
// The simulator tracks arm position and rotational position against a
// sim.Clock, so seeks, rotational latencies, lost revolutions, and transfer
// times all emerge from the geometry rather than from fixed per-operation
// constants. Every result table in the reproduction is ultimately measured
// on this device.
package disk

import (
	"fmt"
	"time"
)

// SectorSize is the fixed sector size in bytes. The paper's log-record
// arithmetic ("seven 512 byte sectors") depends on it.
const SectorSize = 512

// Geometry describes the physical layout of a volume.
type Geometry struct {
	SectorsPerTrack   int
	TracksPerCylinder int
	Cylinders         int
}

// Sectors returns the total number of sectors on the volume.
func (g Geometry) Sectors() int {
	return g.SectorsPerTrack * g.TracksPerCylinder * g.Cylinders
}

// Bytes returns the formatted capacity in bytes.
func (g Geometry) Bytes() int64 {
	return int64(g.Sectors()) * SectorSize
}

// Cylinder returns the cylinder containing sector addr.
func (g Geometry) Cylinder(addr int) int {
	return addr / (g.SectorsPerTrack * g.TracksPerCylinder)
}

// RotationalSlot returns the angular slot (0..SectorsPerTrack-1) of addr.
func (g Geometry) RotationalSlot(addr int) int {
	return addr % g.SectorsPerTrack
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.SectorsPerTrack <= 0 || g.TracksPerCylinder <= 0 || g.Cylinders <= 0 {
		return fmt.Errorf("disk: invalid geometry %+v", g)
	}
	return nil
}

// Params holds the timing characteristics of the drive.
type Params struct {
	// RPM is the spindle speed; one revolution takes 60s/RPM.
	RPM float64
	// SeekSettle is the fixed cost of any non-zero seek.
	SeekSettle time.Duration
	// SeekPerCylinder is the incremental cost per cylinder of arm travel.
	SeekPerCylinder time.Duration
	// ShortSeekMax is the largest cylinder distance classified (and
	// costed) as a "short seek" — the settle time only. The paper's
	// analytical model distinguishes short seeks from full seeks.
	ShortSeekMax int
}

// Revolution returns the duration of one platter revolution.
func (p Params) Revolution() time.Duration {
	return time.Duration(float64(time.Minute) / p.RPM)
}

// SectorTime returns the time for one sector to pass under the head.
func (p Params) SectorTime(g Geometry) time.Duration {
	return p.Revolution() / time.Duration(g.SectorsPerTrack)
}

// SlotAngle returns the angle at which addr's slot comes under the head, as
// time into the revolution.
func (p Params) SlotAngle(g Geometry, addr int) time.Duration {
	return time.Duration(g.RotationalSlot(addr)) * p.SectorTime(g)
}

// RotWait returns how long a head at angle at (time into the revolution;
// whole revolutions in it are ignored) waits for the slot at angle slot.
func (p Params) RotWait(at, slot time.Duration) time.Duration {
	rev := p.Revolution()
	wait := slot - at%rev
	if wait < 0 {
		wait += rev
	}
	return wait
}

// SeekTime returns the arm travel time for a move of dist cylinders.
func (p Params) SeekTime(dist int) time.Duration {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	if dist <= p.ShortSeekMax {
		return p.SeekSettle
	}
	return p.SeekSettle + time.Duration(dist)*p.SeekPerCylinder
}

// DefaultGeometry is a 300 MB Trident-class volume: the size the paper's
// recovery and scavenge measurements were taken on.
// 815 cylinders x 19 tracks x 38 sectors x 512 B = 301 MB.
var DefaultGeometry = Geometry{
	SectorsPerTrack:   38,
	TracksPerCylinder: 19,
	Cylinders:         815,
}

// DefaultParams approximates a late-70s/early-80s 300 MB drive: 3600 RPM
// (16.7 ms revolution), ~4 ms settle, ~28 ms average random seek.
var DefaultParams = Params{
	RPM:             3600,
	SeekSettle:      4 * time.Millisecond,
	SeekPerCylinder: 88 * time.Microsecond,
	ShortSeekMax:    8,
}

// SmallGeometry is a 19 MB volume for unit tests that want fast formats.
var SmallGeometry = Geometry{
	SectorsPerTrack:   38,
	TracksPerCylinder: 19,
	Cylinders:         52,
}
