package diskmodel

import (
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Env carries the layout knowledge a script needs: the paper's scripts
// "incorporated any known locality, both rotational and radial".
type Env struct {
	G disk.Geometry
	P disk.Params
	// DataToNTCyl is the arm distance between the active data area and
	// the name-table region, in cylinders.
	DataToNTCyl int
	// DataToLogCyl is the arm distance between the active data area and
	// the log, in cylinders.
	DataToLogCyl int
	// ForceEvery is the number of FSD metadata operations per group
	// commit (interval / per-op time); the log-write cost is amortized
	// over this many operations.
	ForceEvery int
	// ForceSectors is the typical log-record length in sectors.
	ForceSectors int
	// HeaderSeekCyl is the arm distance to a CFS file header at open; 0
	// when the benchmark opens files with adjacent headers.
	HeaderSeekCyl int
}

// FSDOpen: no I/O at all in the warm case — syscall and one lookup: a
// single descent that scans the name's versions and decodes the newest
// entry from the value it found. This is the 11.7 ms row of Table 2.
func FSDOpen(e Env) Mix {
	return Mix{{Weight: 1, S: Script{
		CPU(sim.CostSyscall + sim.CostBTreeOp),
	}}}
}

// FSDDelete: metadata only — one lookup, then the name-table delete,
// buffered and logged; the pages wait for the commit to free them. The 15 ms
// row of Table 2.
func FSDDelete(e Env) Mix {
	return Mix{{Weight: 1, S: Script{
		CPU(sim.CostSyscall + 2*sim.CostBTreeOp + sim.CostChecksumPage),
	}}}
}

// FSDSmallCreate: one lookup and the entry's put, one synchronous combined
// leader+data write, plus the amortized share of the group-commit log write. Consecutive creates write
// consecutive sectors, so the rotational wait is whatever remains after the
// create's CPU time has rotated past.
func FSDSmallCreate(e Env) Mix {
	common := Script{
		CPU(sim.CostSyscall + sim.CostFileCreate + 2*sim.CostBTreeOp + sim.CostChecksumPage + 2*sim.CostPerSectorCopy),
		Seek(0),       // next free pages are on the same cylinder
		AlignAfter(1), // the sector after the previous create's last write
		Transfer(2),   // leader + one data page
	}
	force := Concat(common, Script{
		Seek(e.DataToLogCyl),
		Latency(),
		Transfer(e.ForceSectors),
		Seek(e.DataToLogCyl), // the next create seeks back to the data area
	})
	f := float64(e.ForceEvery)
	if f < 1 {
		f = 1
	}
	return Mix{
		{Weight: (f - 1) / f, S: common},
		{Weight: 1 / f, S: force},
	}
}

// CFSOpen: name-table lookup (cached, one descent) plus the mandatory
// header read. The 51.2 ms row of Table 2 (the paper's measurement seeks an
// average distance to the header; HeaderSeekCyl carries the benchmark's
// locality).
func CFSOpen(e Env) Mix {
	return Mix{{Weight: 1, S: Script{
		CPU(sim.CostSyscall + sim.CostBTreeOp + 2*sim.CostPerSectorCopy),
		Seek(e.HeaderSeekCyl),
		Latency(),
		Transfer(2),
	}}}
}

// CFSSmallCreate follows the paper's Section 6 script, extended past step 3
// with the remaining operations of the create, mirroring internal/cfs:
//
//  1. verify free pages: 1 seek, 1 latency, 3 page transfers
//  2. write header labels: (revolution - 3 transfers), 2 transfers
//  3. write data labels: 1 transfer (the data sector is next under the head)
//  4. write header (verify pass + write pass)
//  5. update the name table synchronously (seek to the NT region,
//     verify + write one 4-sector page)
//  6. write the data page (seek back, verify + write)
//  7. rewrite the header (verify + write)
//
// The name-table lookup ahead of step 1 is one descent.
func CFSSmallCreate(e Env) Mix {
	s := Script{
		CPU(sim.CostSyscall + sim.CostFileCreate + sim.CostBTreeOp),
		// (1) verify 3 free-page labels
		Seek(0),
		Latency(),
		Transfer(3),
		// (2) claim header labels: the two sectors just passed the head
		AlignAfter(-3),
		Transfer(2),
		// (3) claim the data label: next sector, no wait
		AlignAfter(0),
		Transfer(1),
		// (4) write the header: verify pass then write pass
		AlignAfter(-3),
		Transfer(2),
		AlignAfter(-2),
		Transfer(2),
		// (5) synchronous name-table update (verify + write, 2 KB page)
		CPU(sim.CostBTreeOp),
		Seek(e.DataToNTCyl),
		Latency(),
		Transfer(4),
		AlignAfter(-4),
		Transfer(4),
		// (6) write the data page
		CPU(sim.CostPerSectorCopy),
		Seek(e.DataToNTCyl),
		Latency(),
		Transfer(1),
		AlignAfter(-1),
		Transfer(1),
		// (7) rewrite the header with final properties: the data write
		// ended one sector past the header pair
		AlignAfter(-3),
		Transfer(2),
		AlignAfter(-2),
		Transfer(2),
	}
	return Mix{{Weight: 1, S: s}}
}

// CFSSmallDelete: lookup (one descent), header read, free header + data
// labels, remove the name-table entry. The 214 ms row of Table 2.
func CFSSmallDelete(e Env) Mix {
	s := Script{
		CPU(sim.CostSyscall + 2*sim.CostBTreeOp + 2*sim.CostPerSectorCopy),
		// header read
		Seek(0),
		Latency(),
		Transfer(2),
		// free header labels (the sectors just passed)
		AlignAfter(-2),
		Transfer(2),
		// free the data label
		AlignAfter(0),
		Transfer(1),
		// synchronous name-table update
		Seek(e.DataToNTCyl),
		Latency(),
		Transfer(4),
		AlignAfter(-4),
		Transfer(4),
	}
	return Mix{{Weight: 1, S: s}}
}

// FSDLargeCreate models creating a file of `pages` data pages: one
// contiguous big-area allocation written in controller-sized chunks of
// maxXfer data sectors (the leader rides ahead of the first), plus the
// create's fixed CPU work. Only the first chunk's copy, and the leader's, is
// paid before the first transfer; every later chunk is copied while the one
// before it transfers, and only what of its copy outlasts that transfer is
// paid on top. Consecutive chunks are contiguous on disk, so each chunk's
// rotational wait is what remains after that remainder has rotated past.
func FSDLargeCreate(e Env, pages, maxXfer int) Mix {
	secT := e.P.SectorTime(e.G)
	first := min(pages, maxXfer)
	s := Script{
		CPU(sim.CostSyscall + sim.CostFileCreate + 2*sim.CostBTreeOp + sim.CostChecksumPage),
		CPU(time.Duration(first+1) * sim.CostPerSectorCopy),
		Seek(0),
		Latency(),
		Transfer(first + 1),
	}
	prev := first + 1
	for remaining := pages - first; remaining > 0; {
		n := min(remaining, maxXfer)
		if over := time.Duration(n)*sim.CostPerSectorCopy - time.Duration(prev)*secT; over > 0 {
			s = append(s, CPU(over))
		}
		s = append(s, AlignAfter(0), Transfer(n))
		prev = n
		remaining -= n
	}
	return Mix{{Weight: 1, S: s}}
}

// CFSLargeCreate models the old system's large create: verify all the
// labels free, claim header and data labels, write the header, update the
// name table, write the data in chunks with verify+write passes, and
// rewrite the header.
func CFSLargeCreate(e Env, pages, maxXfer int) Mix {
	s := Script{
		CPU(sim.CostSyscall + sim.CostFileCreate + 2*sim.CostBTreeOp),
		CPU(time.Duration(pages) * sim.CostPerSectorCopy),
		// Verify all 2+pages labels in one streaming pass.
		Seek(0),
		Latency(),
		Transfer(2 + pages),
		// Claim header labels (the sectors just passed the head).
		AlignAfter(-(2 + pages)),
		Transfer(2),
		// Claim the data labels in one pass: next sectors, no wait.
		AlignAfter(0),
		Transfer(pages),
		// Write the header: verify + write passes.
		AlignAfter(-(2 + pages)),
		Transfer(2),
		AlignAfter(-2),
		Transfer(2),
		// Synchronous name-table update.
		Seek(e.DataToNTCyl),
		Latency(),
		Transfer(4),
		AlignAfter(-4),
		Transfer(4),
		// Data, chunked, each chunk verify pass + write pass.
		Seek(e.DataToNTCyl),
		Latency(),
	}
	remaining := pages
	for remaining > 0 {
		n := remaining
		if n > maxXfer {
			n = maxXfer
		}
		s = append(s, AlignAfter(0), Transfer(n), AlignAfter(-n), Transfer(n))
		remaining -= n
	}
	// Rewrite the header with the final length.
	s = append(s, AvgSeek(e.G), Latency(), Transfer(2), AlignAfter(-2), Transfer(2))
	return Mix{{Weight: 1, S: s}}
}

// PaperCreateFirstSteps is the verbatim three-step prefix from Section 6,
// kept as an executable artifact of the paper's example; Time() of this
// script is the paper's "seek + latency + 3 transfers, revolution - 3
// transfers + 2 transfers, revolution + 1 transfer" arithmetic.
func PaperCreateFirstSteps(e Env) Script {
	return Script{
		AvgSeek(e.G),
		Latency(),
		Transfer(3),
		AlignAfter(-3),
		Transfer(2),
		AlignAfter(0),
		Transfer(1),
	}
}

var _ = time.Second
