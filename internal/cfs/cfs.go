// Package cfs implements the old Cedar File System — the baseline the paper
// measures FSD against (Tables 2 and 3).
//
// CFS splits file information across three disk structures (Table 1): the
// file name table (name, version, keep, uid, header address), two header
// sectors per file (properties and the run table), and a label on every
// disk sector. Labels are verified in microcode before each transfer, so
// wild writes and stale-address bugs surface as label mismatches.
//
// Its weaknesses, per the paper, are exactly what FSD fixes: the name table
// is written synchronously and non-atomically (a crash during a B-tree
// split corrupts it), creates cost at least six I/Os, deletes rewrite the
// label of every page, and recovery means scavenging the whole disk — an
// hour or more on a 300 MB volume.
package cfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/vam"
)

// Errors.
var (
	ErrNotFound     = errors.New("cfs: file not found")
	ErrClosed       = errors.New("cfs: volume is shut down")
	ErrNeedScavenge = errors.New("cfs: volume not cleanly shut down; scavenge required")
)

// Config parameterizes a CFS volume.
type Config struct {
	// NTPages is the name-table capacity in 2 KB pages. Zero means 2048.
	NTPages int
	// CacheSize is the name-table page cache capacity. Zero means 512.
	CacheSize int
}

func (c Config) ntPages() int {
	if c.NTPages == 0 {
		return 2048
	}
	return c.NTPages
}

func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return 512
	}
	return c.CacheSize
}

// NTPageSectors is the sectors per name-table page, as in FSD.
const NTPageSectors = 4

// layout: root page at sector 0, the name table right after (CFS predates
// FSD's centre-cylinder placement), then the VAM save area, then data.
type layout struct {
	ntBase     int
	ntPages    int
	vamBase    int
	vamSectors int
	dataLo     int
	total      int
}

const rootMagic = 0x0CF50CF5

// Entry is a CFS name-table record plus, once the header has been read, the
// header-resident properties.
type Entry struct {
	Name       string
	Version    uint32
	Keep       uint16
	UID        uint64
	HeaderAddr int // disk address of header page 0

	// Header-resident fields (valid after Open/ReadHeader):
	ByteSize   uint64
	CreateTime time.Duration
	Runs       []alloc.Run // data pages only; the two header sectors precede them
}

// Volume is a mounted CFS volume.
type Volume struct {
	d   *disk.Disk
	clk sim.Clock
	cpu *sim.CPU
	cfg Config
	lay layout

	mu      sync.Mutex
	nt      *btree.Tree
	pager   *ntPager
	vm      *vam.VAM
	al      *alloc.Allocator
	uidNext uint64
	closed  bool

	// metaIOs counts disk operations issued for metadata purposes
	// (headers, labels, name table), which in CFS are scattered across
	// the data area and so cannot be counted by address.
	metaIOs int
}

// MetaIOs returns the number of metadata-purpose disk operations since
// format/mount.
func (v *Volume) MetaIOs() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.metaIOs
}

// ResetMetaIOs zeroes the metadata-purpose counter.
func (v *Volume) ResetMetaIOs() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.metaIOs = 0
}

// CPU returns the simulated CPU.
func (v *Volume) CPU() *sim.CPU { return v.cpu }

// Disk returns the device.
func (v *Volume) Disk() *disk.Disk { return v.d }

// VAM exposes the free-page hint map.
func (v *Volume) VAM() *vam.VAM { return v.vm }

func computeLayout(g disk.Geometry, cfg Config) layout {
	var l layout
	l.total = g.Sectors()
	l.ntBase = 2
	l.ntPages = cfg.ntPages()
	l.vamBase = l.ntBase + l.ntPages*NTPageSectors
	l.vamSectors = vam.SaveSectors(l.total)
	l.dataLo = l.vamBase + l.vamSectors
	return l
}

// Format initializes a CFS volume and returns it mounted.
func Format(d *disk.Disk, cfg Config) (*Volume, error) {
	lay := computeLayout(d.Geometry(), cfg)
	if lay.dataLo >= lay.total {
		return nil, fmt.Errorf("cfs: volume too small")
	}
	v := newVolume(d, cfg, lay)

	// Label the name-table region and build the empty tree.
	for p := 0; p < lay.ntPages; p++ {
		labs := make([]disk.Label, NTPageSectors)
		for j := range labs {
			labs[j] = disk.Label{FileID: 0, Page: int32(p*NTPageSectors + j), Type: disk.PageNameTable}
		}
		if err := d.WriteLabels(lay.ntBase+p*NTPageSectors, labs); err != nil {
			return nil, err
		}
	}
	var err error
	v.nt, err = btree.Create(v.pager)
	if err != nil {
		return nil, err
	}
	v.vm = vam.New(lay.total)
	v.vm.MarkFree(lay.dataLo, lay.total-lay.dataLo)
	v.al, err = alloc.New(v.vm, alloc.Config{
		Lo: lay.dataLo, Hi: lay.total,
		// CFS has a single first-fit area — the fragmentation-prone
		// design FSD's big/small split replaces.
		SmallThreshold: 1 << 30,
		SmallFraction:  50,
		MaxRuns:        64,
	})
	if err != nil {
		return nil, err
	}
	if err := v.writeRoot(false); err != nil {
		return nil, err
	}
	v.uidNext = 1
	d.ResetStats()
	return v, nil
}

func newVolume(d *disk.Disk, cfg Config, lay layout) *Volume {
	v := &Volume{d: d, clk: d.Clock(), cpu: sim.NewCPU(d.Clock()), cfg: cfg, lay: lay}
	v.pager = &ntPager{v: v, cache: make(map[uint32]*ntPage), cap: cfg.cacheSize()}
	d.SetClassifier(func(addr int) disk.Class {
		if addr < lay.dataLo {
			return disk.ClassMeta
		}
		return disk.ClassData
	})
	return v
}

func (v *Volume) writeRoot(clean bool) error {
	buf := make([]byte, disk.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[0:], rootMagic)
	be.PutUint32(buf[4:], uint32(v.lay.ntPages))
	if clean {
		buf[8] = 1
	}
	be.PutUint64(buf[9:], v.uidNext)
	be.PutUint32(buf[17:], crc32.ChecksumIEEE(buf[:17]))
	return v.d.WriteSectors(0, buf)
}

func readRoot(d *disk.Disk) (ntPages int, clean bool, uidNext uint64, err error) {
	buf, err := d.ReadSectors(0, 1)
	if err != nil {
		return 0, false, 0, err
	}
	be := binary.BigEndian
	if be.Uint32(buf[0:]) != rootMagic || be.Uint32(buf[17:]) != crc32.ChecksumIEEE(buf[:17]) {
		return 0, false, 0, fmt.Errorf("cfs: bad root page")
	}
	return int(be.Uint32(buf[4:])), buf[8] == 1, be.Uint64(buf[9:]), nil
}

// Mount attaches to a formatted CFS volume. After an unclean shutdown it
// fails with ErrNeedScavenge: unlike FSD there is no log, so consistency
// can only be re-established by scavenging (see Scavenge).
func Mount(d *disk.Disk, cfg Config) (*Volume, error) {
	ntPages, clean, uidNext, err := readRoot(d)
	if err != nil {
		return nil, err
	}
	cfg.NTPages = ntPages
	lay := computeLayout(d.Geometry(), cfg)
	v := newVolume(d, cfg, lay)
	if !clean {
		return nil, ErrNeedScavenge
	}
	v.uidNext = uidNext
	if err := v.writeRoot(false); err != nil {
		return nil, err
	}
	v.nt, err = btree.Open(v.pager)
	if err != nil {
		return nil, fmt.Errorf("cfs: name table corrupt: %w (scavenge required)", err)
	}
	v.vm, err = vam.Load(d.ReadSectorsInto, lay.vamBase, lay.total)
	if err != nil {
		// The VAM is only a hint; rebuild it from the name table by
		// reading every file's header (slow, but not a scavenge).
		if v.vm, err = v.rebuildVAMFromHeaders(); err != nil {
			return nil, err
		}
	}
	v.al, err = alloc.New(v.vm, alloc.Config{
		Lo: lay.dataLo, Hi: lay.total,
		SmallThreshold: 1 << 30, SmallFraction: 50, MaxRuns: 64,
	})
	if err != nil {
		return nil, err
	}
	if err := vam.Invalidate(d.WriteSectors, lay.vamBase); err != nil {
		return nil, err
	}
	return v, nil
}

// rebuildVAMFromHeaders reconstructs the free map by reading the header of
// every file named in the name table.
func (v *Volume) rebuildVAMFromHeaders() (*vam.VAM, error) {
	vm := vam.New(v.lay.total)
	vm.MarkFree(v.lay.dataLo, v.lay.total-v.lay.dataLo)
	var fail error
	err := v.nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		e, err := decodeNTEntry(name, ver, val)
		if err != nil {
			return true
		}
		if err := v.readHeaderLocked(e); err != nil {
			fail = err
			return false
		}
		vm.MarkAllocated(e.HeaderAddr, 2)
		for _, r := range e.Runs {
			vm.MarkAllocated(int(r.Start), int(r.Len))
		}
		return true
	})
	if err == nil {
		err = fail
	}
	return vm, err
}

// Shutdown saves the VAM hint and stamps the volume clean.
func (v *Volume) Shutdown() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	if err := v.vm.Save(v.d.WriteSectors, v.lay.vamBase); err != nil {
		return err
	}
	if err := v.writeRoot(true); err != nil {
		return err
	}
	v.closed = true
	return nil
}

// Crash abandons the volume and halts the device.
func (v *Volume) Crash() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
	v.d.Halt()
}

func (v *Volume) begin() error {
	if v.closed {
		return ErrClosed
	}
	v.cpu.Charge(sim.CostSyscall)
	return nil
}

// DropCaches empties the name-table cache (write-through, so nothing is
// lost). For measurement harnesses only.
func (v *Volume) DropCaches() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pager.cache = make(map[uint32]*ntPage)
}

// ModelInfo reports the cylinder distance from the data area to the name
// table for the analytical model.
func (v *Volume) ModelInfo() (dataToNTCyl int) {
	g := v.d.Geometry()
	n := g.Cylinder(v.lay.dataLo) - g.Cylinder(v.lay.ntBase)
	if n < 0 {
		n = -n
	}
	return n
}

// Key encoding shared with FSD's scheme: name NUL version.
func entryKey(name string, version uint32) []byte {
	k := append([]byte(name), 0)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], version)
	return append(k, b[:]...)
}

func splitKey(k []byte) (string, uint32, bool) {
	if len(k) < 5 || k[len(k)-5] != 0 {
		return "", 0, false
	}
	return string(k[:len(k)-5]), binary.BigEndian.Uint32(k[len(k)-4:]), true
}

// Name-table value: keep u16 | uid u64 | headerAddr u32.
func encodeNTEntry(e *Entry) []byte {
	buf := make([]byte, 14)
	binary.BigEndian.PutUint16(buf[0:], e.Keep)
	binary.BigEndian.PutUint64(buf[2:], e.UID)
	binary.BigEndian.PutUint32(buf[10:], uint32(e.HeaderAddr))
	return buf
}

func decodeNTEntry(name string, version uint32, buf []byte) (*Entry, error) {
	if len(buf) != 14 {
		return nil, fmt.Errorf("cfs: corrupt name-table value for %q!%d", name, version)
	}
	return &Entry{
		Name:       name,
		Version:    version,
		Keep:       binary.BigEndian.Uint16(buf[0:]),
		UID:        binary.BigEndian.Uint64(buf[2:]),
		HeaderAddr: int(binary.BigEndian.Uint32(buf[10:])),
	}, nil
}

// ValidateName matches FSD's rules.
func ValidateName(name string) error {
	if name == "" || strings.ContainsRune(name, 0) || len(name) > 255 {
		return fmt.Errorf("cfs: invalid name %q", name)
	}
	return nil
}
