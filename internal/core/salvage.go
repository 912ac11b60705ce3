package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/disk"
	"repro/internal/parscan"
	"repro/internal/sim"
	"repro/internal/vam"
	"repro/internal/wal"
)

// Salvage mount: the last-ditch recovery path. Normal FSD recovery never
// needs it — the log plus the doubly-stored name table survive any crash and
// any single media fault. Salvage exists for the double fault the paper's
// design accepts as "very unlikely": both copies of a name-table page decay
// (or the log is damaged beyond the anchors' reach) and Mount fails. Because
// FSD leaders carry the file's name, version, size, and a run-table preamble
// (leader.go), the volume can still be rebuilt by scanning the data region
// for leader pages — the moral equivalent of the CFS scavenger, but driven
// by one sequential sweep instead of a label pass plus per-file header reads.
//
// Salvage is itself re-entrant. It runs in three checkpointed phases —
// sweep, rebuild, finalize — and records its progress (phase plus sweep
// cursor) in a self-identifying checkpoint pair on the two reserved sectors
// inside the log's anchor block (logBase+1 and logBase+3; the anchors own
// +0 and +2, and wal.Format never touches the odd pair). While a checkpoint
// is present, plain mounts refuse the volume with ErrSalvageInProgress and
// a new Salvage call resumes from the recorded phase instead of restarting
// the full leader sweep. Sweep state (the candidate-leader and damaged
// sector addresses) is persisted as a manifest in the name-table copy-B
// region, which salvage is about to overwrite anyway; the checkpoint
// carries a CRC over the manifest so a torn manifest degrades to a full
// re-sweep, never to a wrong rebuild.

// ErrSalvageInProgress reports a volume carrying a salvage progress
// checkpoint: a previous salvage crashed partway. Plain mounts (writable and
// read-only) refuse such a volume — its name table may be half-destroyed —
// and Salvage (or Mount with AllowSalvage) resumes from the checkpoint.
var ErrSalvageInProgress = errors.New("salvage in progress")

// SalvageStats reports what a salvage mount scanned and saved.
type SalvageStats struct {
	SectorsScanned   int
	DamagedSectors   int    // unreadable sectors (retired from allocation)
	CandidateLeaders int    // structurally valid leader pages found
	FilesRecovered   int    // entries rebuilt into the fresh name table
	FilesPartial     int    // recovered with a truncated run table (tail lost)
	ConflictsDropped int    // stale leaders losing a page-ownership conflict
	Resumed          bool   // a progress checkpoint from a crashed salvage was found
	ResumedPhase     string // phase recorded in that checkpoint
	Checkpoints      int    // progress checkpoints written during this run
	Problems         []string
	Elapsed          time.Duration

	// Parallel-sweep accounting (ISSUE 10). Workers is the pool width of
	// the sweep; Steals counts work-stealing migrations (load-balance
	// diagnostics — nondeterministic, excluded from output equality). The
	// phase splits let fsdctl and the pfsck bench separate the sweep from
	// the single-applier rebuild.
	Workers         int
	Steals          int
	SweepElapsed    time.Duration
	SweepCPU        time.Duration // total worker CPU spent decoding the sweep
	RebuildElapsed  time.Duration // resolve + rebuild (single applier)
	FinalizeElapsed time.Duration
}

func (st *SalvageStats) addProblem(format string, args ...interface{}) {
	st.Problems = append(st.Problems, fmt.Sprintf(format, args...))
}

// The salvage checkpoint pair lives on the reserved odd sectors of the log
// anchor block: the anchor and its copy occupy logBase+0 and logBase+2, and
// every log path (Format included) leaves +1 and +3 alone.
const (
	salvageMagic = 0x5A17C4E0
	salvageCkA   = 1 // sectors past logBase
	salvageCkB   = 3
)

// salvagePhase orders the three checkpointed phases of a salvage run.
type salvagePhase uint32

const (
	// salvageSweep: the sequential leader scan of the data region. Only the
	// manifest (name-table copy B) and clamped leaders are written; the data
	// region itself is never destroyed, so a lost manifest just restarts
	// the sweep.
	salvageSweep salvagePhase = iota + 1
	// salvageRebuild: the destructive phase — fresh log, zeroed name-table
	// copy A, new B-tree of the recovered entries. Resume replays the phase
	// from the manifest.
	salvageRebuild
	// salvageFinalize: the rebuilt tree is complete and home in copy A;
	// what remains (root page, VAM save, mirroring A over B, clearing the
	// checkpoint) is re-derivable from the tree alone.
	salvageFinalize
)

func (p salvagePhase) String() string {
	switch p {
	case salvageSweep:
		return "sweep"
	case salvageRebuild:
		return "rebuild"
	case salvageFinalize:
		return "finalize"
	default:
		return fmt.Sprintf("phase(%d)", uint32(p))
	}
}

// salvageCheckpoint is the persistent progress record.
type salvageCheckpoint struct {
	phase       salvagePhase
	cursor      int // next unswept data-region sector (sweep phase)
	cands       int // candidate-leader entries in the manifest
	damaged     int // damaged-sector entries in the manifest
	manifestCRC uint32
}

const salvageCkCRCOff = 24

func encodeSalvageCheckpoint(ck salvageCheckpoint) []byte {
	buf := make([]byte, disk.SectorSize)
	be := binary.BigEndian
	be.PutUint32(buf[0:], salvageMagic)
	be.PutUint32(buf[4:], uint32(ck.phase))
	be.PutUint32(buf[8:], uint32(ck.cursor))
	be.PutUint32(buf[12:], uint32(ck.cands))
	be.PutUint32(buf[16:], uint32(ck.damaged))
	be.PutUint32(buf[20:], ck.manifestCRC)
	be.PutUint32(buf[salvageCkCRCOff:], crc32.ChecksumIEEE(buf[:salvageCkCRCOff]))
	return buf
}

func decodeSalvageCheckpoint(buf []byte) (salvageCheckpoint, bool) {
	be := binary.BigEndian
	if be.Uint32(buf[0:]) != salvageMagic {
		return salvageCheckpoint{}, false
	}
	if be.Uint32(buf[salvageCkCRCOff:]) != crc32.ChecksumIEEE(buf[:salvageCkCRCOff]) {
		return salvageCheckpoint{}, false
	}
	ck := salvageCheckpoint{
		phase:       salvagePhase(be.Uint32(buf[4:])),
		cursor:      int(be.Uint32(buf[8:])),
		cands:       int(be.Uint32(buf[12:])),
		damaged:     int(be.Uint32(buf[16:])),
		manifestCRC: be.Uint32(buf[20:]),
	}
	if ck.phase < salvageSweep || ck.phase > salvageFinalize {
		return salvageCheckpoint{}, false
	}
	return ck, true
}

// readSalvageCheckpoint looks for a valid checkpoint in either copy. Mounts
// call it right after reading the root page, before touching anything.
func readSalvageCheckpoint(d *disk.Disk, lay layout) (salvageCheckpoint, bool) {
	for _, addr := range []int{lay.logBase + salvageCkA, lay.logBase + salvageCkB} {
		buf, _, err := disk.ReadSectorsRetry(d, addr, 1, 2)
		if err != nil {
			continue
		}
		if ck, ok := decodeSalvageCheckpoint(buf); ok {
			return ck, true
		}
	}
	return salvageCheckpoint{}, false
}

// clearSalvageCheckpoint erases both checkpoint copies. Format calls it so a
// re-formatted volume never resurrects an old salvage; finalize calls it as
// the very last durable act of a salvage run.
func clearSalvageCheckpoint(write func(addr int, data []byte) error, lay layout) error {
	zero := make([]byte, disk.SectorSize)
	if err := write(lay.logBase+salvageCkA, zero); err != nil {
		return err
	}
	return write(lay.logBase+salvageCkB, zero)
}

// The manifest is a flat array of big-endian u32 sector addresses in
// discovery order — candidate leaders as-is, damaged sectors tagged with the
// high bit — so it is strictly append-only across sweep flushes: an older
// checkpoint always describes a CRC-matching prefix of a newer manifest.
const salvageDamagedBit = 1 << 31

func encodeSalvageManifest(entries []uint32) []byte {
	buf := make([]byte, 4*len(entries))
	for i, e := range entries {
		binary.BigEndian.PutUint32(buf[4*i:], e)
	}
	return buf
}

// salvageCand is one structurally valid leader found by the sweep.
type salvageCand struct {
	e     *Entry
	total int // full run count per the leader (may exceed preamble)
}

// salvageRun carries one salvage invocation's state across its phases.
type salvageRun struct {
	v   *Volume
	d   *disk.Disk
	lay layout
	cfg Config
	st  *SalvageStats

	cands    []salvageCand
	damaged  []int
	seen     map[int]bool // leader addresses already in cands
	manifest []uint32
	flushed  int  // manifest entries this run's last flush left on the platter
	hasMan   bool // a distinct copy-B region exists to hold the manifest

	entries []salvageCand // claiming winners
	maxUID  uint64

	uidChunk  uint64
	formatted time.Duration
}

// read is the salvage read path: bounded retries, transient faults charged
// to the health budget (a salvage that limps through decay lands Degraded,
// like a mount whose replay did). Reads that stay failed are salvage's
// normal input — damaged sectors become bad blocks — and are not charged;
// only a halted device escalates.
func (r *salvageRun) read(addr, n int) ([]byte, error) {
	buf, retried, err := disk.ReadSectorsRetry(r.d, addr, n, r.cfg.readRetries())
	if err != nil {
		if errors.Is(err, disk.ErrHalted) {
			r.v.degradeTo(HealthOffline, "device halted")
		}
		return buf, err
	}
	if retried > 0 {
		r.v.noteReadFault(retried, nil)
	}
	return buf, nil
}

func (r *salvageRun) manifestCapacity() int {
	return r.lay.ntPages * NTPageSectors * disk.SectorSize / 4
}

// flush makes progress durable: manifest first, then the checkpoint copies,
// each behind its own barrier, so a crash between them leaves the previous
// checkpoint describing a valid prefix of the (append-only) manifest. The
// two checkpoint copies are separated by a barrier too — otherwise one torn
// epoch could destroy both and un-mark the volume mid-destruction.
//
// The manifest is append-only, so only its tail goes out — from the sector
// holding the first entry added since this run's last flush (all of it the
// first time: a resumed run's loadManifest may have rewritten entries) —
// under a CRC of the whole. Rewriting it all was quadratic in the candidates.
func (r *salvageRun) flush(phase salvagePhase, cursor int) error {
	ck := salvageCheckpoint{phase: phase, cursor: cursor}
	if r.hasMan && len(r.manifest) <= r.manifestCapacity() {
		data := encodeSalvageManifest(r.manifest)
		crc := crc32.ChecksumIEEE(data)
		if pad := len(data) % disk.SectorSize; pad != 0 {
			data = append(data, make([]byte, disk.SectorSize-pad)...)
		}
		if len(r.manifest) > r.flushed {
			for off := 4 * r.flushed / disk.SectorSize; off < len(data)/disk.SectorSize; off += MaxTransferSectors {
				n := MaxTransferSectors
				if rem := len(data)/disk.SectorSize - off; n > rem {
					n = rem
				}
				if err := r.v.writeSectors(r.lay.ntB+off, data[off*disk.SectorSize:(off+n)*disk.SectorSize]); err != nil {
					return err
				}
			}
			r.flushed = len(r.manifest)
		}
		if err := r.d.Sync(); err != nil {
			return err
		}
		ck.cands, ck.damaged, ck.manifestCRC = len(r.cands), len(r.damaged), crc
	}
	buf := encodeSalvageCheckpoint(ck)
	if err := r.v.writeSectors(r.lay.logBase+salvageCkA, buf); err != nil {
		return err
	}
	if err := r.d.Sync(); err != nil {
		return err
	}
	if err := r.v.writeSectors(r.lay.logBase+salvageCkB, buf); err != nil {
		return err
	}
	r.st.Checkpoints++
	return r.d.Sync()
}

// loadManifest rebuilds the sweep's in-memory state from the manifest a
// checkpoint describes: damaged addresses verbatim, candidate leaders by
// re-reading and re-decoding their sectors (idempotent — a leader clamped by
// an earlier claiming pass decodes to its clamped form). It reports false
// when the manifest is missing or fails its CRC; the caller then restarts
// the sweep, which is always possible because the data region is never
// destroyed.
func (r *salvageRun) loadManifest(ck salvageCheckpoint) bool {
	if !r.hasMan {
		return false
	}
	total := ck.cands + ck.damaged
	if total > r.manifestCapacity() {
		return false
	}
	var data []byte
	if nsec := (4*total + disk.SectorSize - 1) / disk.SectorSize; nsec > 0 {
		buf, err := r.read(r.lay.ntB, nsec)
		if err != nil {
			return false
		}
		data = buf[:4*total]
	}
	if crc32.ChecksumIEEE(data) != ck.manifestCRC {
		return false
	}
	for i := 0; i < total; i++ {
		raw := binary.BigEndian.Uint32(data[4*i:])
		if raw&salvageDamagedBit != 0 {
			r.damaged = append(r.damaged, int(raw&^uint32(salvageDamagedBit)))
			r.manifest = append(r.manifest, raw)
			continue
		}
		addr := int(raw)
		r.seen[addr] = true
		sec, err := r.read(addr, 1)
		if err != nil {
			// Decayed since it was swept: it is a damaged sector now.
			r.st.addProblem("sector %d: manifested leader unreadable on resume", addr)
			r.damaged = append(r.damaged, addr)
			r.manifest = append(r.manifest, raw|salvageDamagedBit)
			continue
		}
		if binary.BigEndian.Uint32(sec) != leaderMagic {
			r.st.addProblem("sector %d: manifested leader no longer decodes", addr)
			continue
		}
		e, tot, ok := decodeLeaderEntry(sec)
		if !ok || len(e.Runs) == 0 || int(e.Runs[0].Start) != addr {
			r.st.addProblem("sector %d: manifested leader no longer decodes", addr)
			continue
		}
		r.cands = append(r.cands, salvageCand{e, tot})
		r.manifest = append(r.manifest, raw)
	}
	r.st.CandidateLeaders = len(r.cands)
	r.st.DamagedSectors = len(r.damaged)
	return true
}

// sweepChunk is one read unit of the sweep's chunk table: the same
// (addr, n) sequence the original sequential loop produced.
type sweepChunk struct {
	addr, n int
}

// sweepChunks lists the data-region chunks from the cursor on: transfers
// of up to MaxTransferSectors, clamped at the metadata range (which the
// sweep skips) and the end of the volume.
func (r *salvageRun) sweepChunks(from int) []sweepChunk {
	lay := r.lay
	metaLo, metaHi := lay.logBase, lay.vamBase+lay.vamSectors
	addr := from
	if addr < lay.dataLo {
		addr = lay.dataLo
	}
	var chunks []sweepChunk
	for addr < lay.total {
		if addr >= metaLo && addr < metaHi {
			addr = metaHi
			continue
		}
		n := MaxTransferSectors
		if addr < metaLo && addr+n > metaLo {
			n = metaLo - addr
		}
		if addr+n > lay.total {
			n = lay.total - addr
		}
		chunks = append(chunks, sweepChunk{addr, n})
		addr += n
	}
	return chunks
}

// sweepChunkResult is what one swept chunk contributes, in address order
// within the chunk: unreadable sectors and structurally valid candidate
// leaders. The driver folds results strictly in chunk order, so the
// manifest, the stats, and the checkpoint cursor are identical at every
// worker count.
type sweepChunkResult struct {
	damaged []int
	cands   []salvageCand
}

// readChunkData reads one sweep chunk, falling back to single sectors when
// damage aborts the bulk transfer so one bad sector costs one sector.
func (r *salvageRun) readChunkData(addr, n int) (buf []byte, damaged []int, err error) {
	buf, err = r.read(addr, n)
	if err == nil {
		return buf, nil, nil
	}
	if errors.Is(err, disk.ErrHalted) {
		return nil, nil, err
	}
	buf = make([]byte, 0, n*disk.SectorSize)
	for i := 0; i < n; i++ {
		one, rerr := r.read(addr+i, 1)
		if rerr != nil {
			if errors.Is(rerr, disk.ErrHalted) {
				return nil, nil, rerr
			}
			damaged = append(damaged, addr+i)
			one = make([]byte, disk.SectorSize)
		}
		buf = append(buf, one...)
	}
	return buf, damaged, nil
}

// sweepChunkScan decodes one chunk's sectors into its result slot,
// charging the decode cost to the worker.
func sweepChunkScan(w *parscan.Worker, ch sweepChunk, buf []byte, res *sweepChunkResult) {
	cpu := time.Duration(ch.n) * sim.CostLabelInterpret
	for i := 0; i < ch.n; i++ {
		sec := buf[i*disk.SectorSize : (i+1)*disk.SectorSize]
		if binary.BigEndian.Uint32(sec) != leaderMagic {
			continue
		}
		cpu += csumCost
		e, total, ok := decodeLeaderEntry(sec)
		if !ok || len(e.Runs) == 0 || int(e.Runs[0].Start) != ch.addr+i {
			continue
		}
		res.cands = append(res.cands, salvageCand{e, total})
	}
	w.Charge(cpu)
}

// sweepCheckpointChunks is the sweep's checkpoint interval (1 MB of data
// region): what the driver reads, hands to the pool, merges and makes durable.
const sweepCheckpointChunks = 32

// sweep is phase 1: one pass of the data region looking for leader pages.
// A candidate must decode, and its first run must start at its own
// address — a leader names itself as the file's first page, which rejects
// byte-for-byte copies of leaders living inside file data.
//
// The disk has one arm, so the pass has one reader (DESIGN §17): this
// goroutine reads a checkpoint interval's chunks in ascending order, the
// damaged-sector fallback included, and only then do Config.CheckWorkers
// workers decode the buffers. Results fold here, in chunk order, into the
// seen-address dedup, the append-only manifest and the stats, and the
// interval ends in a flush: the checkpoint cursor never passes a sector that
// has not been swept and merged (the PR 8 resume contract), and the virtual
// clock — a function of the Go scheduler while two reading workers dragged
// the arm between their halves of the disk — repeats at every width.
func (r *salvageRun) sweep(from int) error {
	lay, st, v := r.lay, r.st, r.v
	// The first checkpoint precedes any destructive write (the manifest
	// overwrites name-table copy B): once it lands, plain mounts refuse
	// the volume until salvage finishes.
	if err := r.flush(salvageSweep, from); err != nil {
		return err
	}
	sweepStart := v.clk.Now()
	chunks := r.sweepChunks(from)
	st.Workers = r.cfg.checkWorkers()

	// The pool's CPU critical path — each interval's balanced share, at one
	// worker the sequential total — goes on the clock after the last read.
	var balanced time.Duration
	for len(chunks) > 0 {
		part := chunks
		if len(part) > sweepCheckpointChunks {
			part = part[:sweepCheckpointChunks]
		}
		chunks = chunks[len(part):]
		bufs := make([][]byte, len(part))
		results := make([]sweepChunkResult, len(part))
		for c, ch := range part {
			var err error
			if bufs[c], results[c].damaged, err = r.readChunkData(ch.addr, ch.n); err != nil {
				return err
			}
		}
		ps, _ := parscan.Run(st.Workers, len(part), func(w *parscan.Worker, c int) error {
			sweepChunkScan(w, part[c], bufs[c], &results[c])
			return nil
		})
		balanced += ps.BalancedCPU()
		st.SweepCPU += ps.TotalCPU()
		st.Steals += ps.Steals()
		for c, ch := range part {
			st.SectorsScanned += ch.n
			for _, bad := range results[c].damaged {
				st.DamagedSectors++
				r.damaged = append(r.damaged, bad)
				r.manifest = append(r.manifest, uint32(bad)|salvageDamagedBit)
			}
			for _, cand := range results[c].cands {
				addr := int(cand.e.Runs[0].Start)
				if r.seen[addr] {
					continue
				}
				r.seen[addr] = true
				st.CandidateLeaders++
				r.cands = append(r.cands, cand)
				r.manifest = append(r.manifest, uint32(addr))
			}
		}
		if len(part) == sweepCheckpointChunks {
			last := part[len(part)-1]
			if err := r.flush(salvageSweep, last.addr+last.n); err != nil {
				return err
			}
		}
	}
	v.cpu.Charge(balanced)
	st.SweepElapsed = v.clk.Now() - sweepStart
	return r.flush(salvageSweep, lay.total)
}

// resolve turns candidates into claimed entries. Highest UID wins a
// (name, version) collision — UIDs are allocation-ordered, so it is the
// latest incarnation. Then claim pages newest-first: a stale leader (of a
// deleted file whose pages were reallocated) overlaps the current owner and
// is dropped. Truncated leaders are rewritten clamped; re-running resolve
// after a crash re-derives the same winners (the UID order is total) and
// finds already-clamped leaders consistent, so the pass is idempotent.
func (r *salvageRun) resolve() error {
	lay, st := r.lay, r.st
	byKey := make(map[string]salvageCand)
	for _, c := range r.cands {
		k := string(entryKey(c.e.Name, c.e.Version))
		if prev, ok := byKey[k]; !ok || c.e.UID > prev.e.UID {
			byKey[k] = c
		}
	}
	resolved := make([]salvageCand, 0, len(byKey))
	for _, c := range byKey {
		resolved = append(resolved, c)
	}
	st.ConflictsDropped = len(r.cands) - len(resolved)
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].e.UID > resolved[j].e.UID })
	owned := make(map[uint32]bool)
claiming:
	for _, c := range resolved {
		pages := 0
		for _, run := range c.e.Runs {
			if run.Len == 0 || int(run.Start)+int(run.Len) > lay.total {
				st.ConflictsDropped++
				st.addProblem("%s!%d: run [%d,+%d) out of range", c.e.Name, c.e.Version, run.Start, run.Len)
				continue claiming
			}
			for p := run.Start; p < run.Start+run.Len; p++ {
				if lay.metaRange(int(p)) || owned[p] {
					st.ConflictsDropped++
					continue claiming
				}
				pages++
			}
		}
		for _, run := range c.e.Runs {
			for p := run.Start; p < run.Start+run.Len; p++ {
				owned[p] = true
			}
		}
		if c.total > len(c.e.Runs) {
			// Only the preamble survived: clamp the byte size to the
			// reachable pages and rewrite the leader so it describes the
			// truncated file exactly (runCRC over the trimmed table).
			st.FilesPartial++
			if max := uint64(pages-1) * disk.SectorSize; c.e.ByteSize > max {
				c.e.ByteSize = max
			}
			if err := r.v.writeSectors(int(c.e.Runs[0].Start), encodeLeader(c.e)); err != nil {
				return err
			}
			st.addProblem("%s!%d: truncated to %d runs (%d lost with the name table)",
				c.e.Name, c.e.Version, len(c.e.Runs), c.total-len(c.e.Runs))
		}
		r.entries = append(r.entries, c)
		if c.e.UID > r.maxUID {
			r.maxUID = c.e.UID
		}
	}
	st.FilesRecovered = len(r.entries)
	return nil
}

// rebuild is phase 2: the metadata is rebuilt from scratch — a fresh log,
// zeroed name-table copy A (stale non-virgin pages must not masquerade as
// valid after a crash mid-rebuild), and a new B-tree holding the recovered
// entries, inserted in key order for locality. While a manifest exists,
// copy B is left alone (it holds the manifest) and the cache runs
// single-copy; finalize mirrors the finished copy A over it.
func (r *salvageRun) rebuild() error {
	v, d, lay, cfg := r.v, r.d, r.lay, r.cfg
	// Record the phase before the first destructive write, so a crash
	// anywhere in the rebuild resumes here — from the manifest — instead
	// of trusting a half-built name table.
	if err := r.flush(salvageRebuild, lay.total); err != nil {
		return err
	}
	var err error
	v.log, err = wal.Format(d, lay.logBase, lay.logSize, v.clk, cfg.walConfig())
	if err != nil {
		return err
	}
	v.cache = newNTCache(v, cfg.cacheSize())
	if r.hasMan {
		v.cfg.SingleCopyNT = true
	}
	ntSectors := lay.ntPages * NTPageSectors
	zero := make([]byte, MaxTransferSectors*disk.SectorSize)
	zeroRegion := func(base int) error {
		for off := 0; off < ntSectors; off += MaxTransferSectors {
			n := MaxTransferSectors
			if off+n > ntSectors {
				n = ntSectors - off
			}
			if err := v.writeSectors(base+off, zero[:n*disk.SectorSize]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := zeroRegion(lay.ntA); err != nil {
		return err
	}

	metaLo, metaHi := lay.logBase, lay.vamBase+lay.vamSectors
	v.vm = vam.New(lay.total)
	v.vm.MarkFree(lay.dataLo, lay.total-lay.dataLo)
	if metaHi > metaLo {
		v.vm.MarkAllocated(metaLo, metaHi-metaLo)
	}
	for _, c := range r.entries {
		for _, run := range c.e.Runs {
			v.vm.MarkAllocated(int(run.Start), int(run.Len))
		}
	}
	for _, bad := range r.damaged {
		// Unreadable data sectors become bad blocks: never allocated.
		v.vm.MarkAllocated(bad, 1)
	}
	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return err
	}
	v.hookLog()

	v.nt, err = btree.Create(v.cache)
	if err != nil {
		return err
	}
	sort.Slice(r.entries, func(i, j int) bool {
		return string(entryKey(r.entries[i].e.Name, r.entries[i].e.Version)) <
			string(entryKey(r.entries[j].e.Name, r.entries[j].e.Version))
	})
	for i, c := range r.entries {
		v.cpu.Charge(sim.CostBTreeOp)
		if err := v.nt.Put(entryKey(c.e.Name, c.e.Version), encodeEntry(c.e)); err != nil {
			return fmt.Errorf("core: salvage rebuild: %w", err)
		}
		if (i+1)%64 == 0 {
			// Bound the staged-image batch so no single force overruns
			// a log third.
			if err := v.log.Force(); err != nil {
				return err
			}
		}
	}
	if err := v.log.Force(); err != nil {
		return err
	}
	if err := v.cache.flushAll(); err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return err
	}
	// The tree is complete and home in copy A: everything finalize does is
	// re-derivable from it, so advance the checkpoint past the rebuild.
	return r.flush(salvageFinalize, lay.total)
}

// finalize is phase 3: root page, allocation-map save (or invalidation),
// mirroring the finished name table over the manifest, and — last of all —
// clearing the checkpoint. Every step can be redone from the tree in copy A,
// so a crash anywhere here resumes through resumeFinalize.
func (r *salvageRun) finalize() error {
	v, lay, cfg := r.v, r.lay, r.cfg
	uidChunk := r.uidChunk
	if chunk := (r.maxUID >> 32) + 1; chunk > uidChunk {
		uidChunk = chunk
	} else {
		uidChunk++
	}
	v.uidNext.Store(uidChunk << 32)
	if err := v.writeRoot(rootPage{layout: lay, clean: false, logVAM: cfg.LogVAM, uidChunk: uidChunk, formatted: r.formatted}); err != nil {
		return err
	}
	if cfg.LogVAM {
		if err := v.vm.SaveWith(v.writeSectors, lay.vamBase); err != nil {
			return err
		}
	} else if err := vam.InvalidateWith(v.writeSectors, lay.vamBase); err != nil {
		return err
	}
	if !cfg.SingleCopyNT && lay.ntB != lay.ntA {
		// Mirror copy A over the manifest so both name-table copies agree
		// again, then restore two-copy operation.
		v.cfg.SingleCopyNT = false
		ntSectors := lay.ntPages * NTPageSectors
		for off := 0; off < ntSectors; off += MaxTransferSectors {
			n := MaxTransferSectors
			if off+n > ntSectors {
				n = ntSectors - off
			}
			buf, err := r.read(lay.ntA+off, n)
			if err != nil {
				if errors.Is(err, disk.ErrHalted) {
					return err
				}
				// A damaged source sector mirrors as a virgin page; the
				// cache serves the surviving copy and the scrub pass
				// re-duplicates it.
				buf = make([]byte, 0, n*disk.SectorSize)
				for i := 0; i < n; i++ {
					one, rerr := r.read(lay.ntA+off+i, 1)
					if rerr != nil {
						if errors.Is(rerr, disk.ErrHalted) {
							return rerr
						}
						one = make([]byte, disk.SectorSize)
					}
					buf = append(buf, one...)
				}
			}
			if err := v.writeSectors(lay.ntB+off, buf); err != nil {
				return err
			}
		}
	}
	if err := r.d.Sync(); err != nil {
		return err
	}
	if err := clearSalvageCheckpoint(v.writeSectors, lay); err != nil {
		return err
	}
	if err := r.d.Sync(); err != nil {
		return err
	}
	if cfg.LogVAM {
		v.enableVAMLogging()
	}
	return nil
}

// resumeFinalize handles a crash after the rebuilt tree was complete in
// copy A but before the checkpoint was cleared: re-open the tree, rescan it
// for the allocation map and the UID horizon, and redo the idempotent
// finalize steps. The interrupted run's damaged-sector list is not
// recoverable here, so those sectors return to the free pool; reusing one
// is absorbed by the write path's retry/remap policy.
func (r *salvageRun) resumeFinalize() error {
	v, d, lay, cfg, st := r.v, r.d, r.lay, r.cfg, r.st
	var err error
	v.log, err = wal.Format(d, lay.logBase, lay.logSize, v.clk, cfg.walConfig())
	if err != nil {
		return err
	}
	v.cache = newNTCache(v, cfg.cacheSize())
	if lay.ntB != lay.ntA {
		// Copy B still holds the manifest (or a torn mirror); trust copy A
		// alone until finalize mirrors it.
		v.cfg.SingleCopyNT = true
	}
	v.hookLog()
	v.nt, err = btree.Open(v.cache)
	if err != nil {
		return fmt.Errorf("core: salvage resume: rebuilt name table unreadable: %w", err)
	}
	metaLo, metaHi := lay.logBase, lay.vamBase+lay.vamSectors
	v.vm = vam.New(lay.total)
	v.vm.MarkFree(lay.dataLo, lay.total-lay.dataLo)
	if metaHi > metaLo {
		v.vm.MarkAllocated(metaLo, metaHi-metaLo)
	}
	err = v.nt.Scan(nil, func(k, val []byte) bool {
		name, ver, ok := splitKey(k)
		if !ok {
			return true
		}
		e, derr := decodeEntry(name, ver, val)
		if derr != nil {
			return true
		}
		v.cpu.Charge(sim.CostBTreeOp / 4)
		for _, run := range e.Runs {
			v.vm.MarkAllocated(int(run.Start), int(run.Len))
		}
		if e.UID > r.maxUID {
			r.maxUID = e.UID
		}
		st.FilesRecovered++
		return true
	})
	if err != nil {
		return err
	}
	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return err
	}
	return r.finalize()
}

// Salvage rebuilds a volume whose name table is lost in both copies: it
// scans the whole data region for leader pages, reconstructs an entry from
// each (newest incarnation wins any page-ownership conflict), re-creates an
// empty log and name table, and inserts the recovered entries. Committed
// files reachable from an intact leader survive; files whose leader decayed,
// and the tail runs of files longer than the leader preamble, are lost —
// that is the report in SalvageStats. Deleted files whose leader page was
// never reallocated may resurrect, exactly as under the CFS scavenger.
//
// The previous log contents are abandoned: salvage runs only when replaying
// them already failed, and a rebuilt name table makes stale records
// meaningless. Layout comes from the volume root page when either replica
// survives; otherwise it is recomputed from the geometry and cfg, which must
// then match the format-time configuration.
//
// Salvage is resumable: if the volume carries a progress checkpoint from a
// salvage that crashed partway, the run continues from the recorded phase
// (see the package comment above salvagePhase) and SalvageStats.Resumed
// reports it.
func Salvage(d *disk.Disk, cfg Config) (*Volume, SalvageStats, error) {
	var st SalvageStats
	clk := d.Clock()
	start := clk.Now()

	var lay layout
	uidChunk := uint64(1)
	formatted := clk.Now()
	if root, err := readRoot(d, cfg.readRetries()); err == nil {
		lay = root.layout
		cfg.LogVAM = root.logVAM
		uidChunk = root.uidChunk
		formatted = root.formatted
	} else {
		lay, err = computeLayout(d.Geometry(), cfg)
		if err != nil {
			return nil, st, err
		}
	}
	v := newVolume(d, cfg, lay)
	r := &salvageRun{
		v: v, d: d, lay: lay, cfg: cfg, st: &st,
		seen:      make(map[int]bool),
		hasMan:    lay.ntB != lay.ntA,
		uidChunk:  uidChunk,
		formatted: formatted,
	}

	entry := salvageSweep
	sweepFrom := lay.dataLo
	if ck, ok := readSalvageCheckpoint(d, lay); ok {
		st.Resumed = true
		st.ResumedPhase = ck.phase.String()
		switch ck.phase {
		case salvageSweep, salvageRebuild:
			if r.loadManifest(ck) {
				entry = ck.phase
				if ck.phase == salvageSweep {
					sweepFrom = ck.cursor
				}
			} else {
				st.addProblem("checkpoint (phase %s) without a usable manifest: restarting the sweep", ck.phase)
			}
		case salvageFinalize:
			entry = salvageFinalize
		}
	}

	st.Workers = cfg.checkWorkers()
	if entry == salvageFinalize {
		if err := r.resumeFinalize(); err != nil {
			return nil, st, err
		}
		st.FinalizeElapsed = clk.Now() - start
	} else {
		if entry == salvageSweep {
			if err := r.sweep(sweepFrom); err != nil {
				return nil, st, err
			}
		}
		rebuildStart := clk.Now()
		if err := r.resolve(); err != nil {
			return nil, st, err
		}
		if err := r.rebuild(); err != nil {
			return nil, st, err
		}
		st.RebuildElapsed = clk.Now() - rebuildStart
		finalizeStart := clk.Now()
		if err := r.finalize(); err != nil {
			return nil, st, err
		}
		st.FinalizeElapsed = clk.Now() - finalizeStart
	}

	st.Elapsed = clk.Now() - start
	v.startTicker()
	v.finishMount()
	return v, st, nil
}
