package core

import (
	"math/rand"

	"repro/internal/disk"
)

// Fault-experiment hooks: deliberate, seeded media damage for the
// robustness benchmark and the examples. Nothing in the normal operation
// path calls these; they exist so callers outside this package can stage
// the decay scenarios the scrubber and the salvager are built for without
// knowing the volume layout.

// InjectLatentDecay damages exactly one randomly chosen home copy of every
// allocated name-table page — alternating between hard latent errors (the
// read fails), silent bit rot (the read returns garbage), and the
// occasional stuck physical defect that only remapping can retire — plus
// the root replica and one log anchor copy. Every page keeps one good
// copy, so a single Scrub pass repairs all of it. It walks the pages the
// scrub sweeps, [0, AllocatedPages()); a page past them was never written.
// Returns the number of sectors decayed and how many of those are stuck
// defects.
func (v *Volume) InjectLatentDecay(rng *rand.Rand) (decayed, stuck int) {
	for id := 0; id < v.nt.AllocatedPages(); id++ {
		addrA, addrB := v.lay.ntPageAddrs(uint32(id))
		buf, err := v.d.ReadSectors(addrA, NTPageSectors)
		if err != nil || isVirgin(buf) {
			continue
		}
		victim := addrA + rng.Intn(NTPageSectors)
		if rng.Intn(2) == 1 {
			victim = addrB + rng.Intn(NTPageSectors)
		}
		switch {
		case rng.Intn(2) == 0:
			rot := make([]byte, disk.SectorSize)
			rng.Read(rot)
			v.d.SmashSector(victim, rot, nil)
		case decayed%8 == 7:
			v.d.MarkStuck(victim, 1)
			stuck++
		default:
			v.d.CorruptSectors(victim, 1)
		}
		decayed++
	}
	v.d.CorruptSectors(v.lay.rootB, 1)
	v.d.CorruptSectors(v.lay.logBase+2, 1) // the log anchor's second copy
	return decayed + 2, stuck
}

// DestroyNameTable damages every sector of both name-table home copies —
// the double-loss catastrophe that defeats Mount and that Salvage exists
// for. The log region is destroyed too: a surviving log holds full-page
// name-table images (every cache-miss write stages the whole page) and
// replay would quietly rebuild the table, which is the behaviour Salvage
// is NOT for. Call it on a shut-down volume; the disk underneath keeps
// the damage.
func (v *Volume) DestroyNameTable() {
	ntSectors := v.lay.ntPages * NTPageSectors
	v.d.CorruptSectors(v.lay.ntA, ntSectors)
	if v.lay.ntB != v.lay.ntA {
		v.d.CorruptSectors(v.lay.ntB, ntSectors)
	}
	v.d.CorruptSectors(v.lay.logBase, v.lay.logSize)
}
