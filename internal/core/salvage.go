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
// The JSON names are fsdctl's -json keys; a field it does not print is "-".
type SalvageStats struct {
	SectorsScanned   int           `json:"sectors_scanned"`
	DamagedSectors   int           `json:"damaged_sectors"`   // unreadable sectors (retired from allocation)
	CandidateLeaders int           `json:"-"`                 // structurally valid leader pages found
	FilesRecovered   int           `json:"files_recovered"`   // entries rebuilt into the fresh name table
	FilesPartial     int           `json:"files_partial"`     // recovered with a truncated run table (tail lost)
	ConflictsDropped int           `json:"conflicts_dropped"` // stale leaders losing a page-ownership conflict
	Resumed          bool          `json:"-"`                 // a progress checkpoint from a crashed salvage was found
	ResumedPhase     string        `json:"-"`                 // phase recorded in that checkpoint
	Checkpoints      int           `json:"-"`                 // progress checkpoints written during this run
	Problems         []string      `json:"problems"`
	Elapsed          time.Duration `json:"elapsed_sim_ns"`

	// Parallel-sweep accounting (ISSUE 10). Workers is the pool width of
	// the sweep; Steals counts work-stealing migrations (load-balance
	// diagnostics — nondeterministic, excluded from output equality). The
	// phase splits let fsdctl and the pfsck bench separate the sweep from
	// the single-applier rebuild.
	Workers         int           `json:"workers"`
	Steals          int           `json:"-"`
	SweepElapsed    time.Duration `json:"sweep_sim_ns"`
	SweepCPU        time.Duration `json:"sweep_pool_sim_ns"` // total worker CPU spent decoding the sweep
	RebuildElapsed  time.Duration `json:"rebuild_sim_ns"`    // resolve + rebuild (single applier)
	FinalizeElapsed time.Duration `json:"finalize_sim_ns"`

	// The sweep's two timelines (DESIGN §17): SweepArm is the device's busy
	// time over the sweep (reads and checkpoint writes), SweepCPU / Workers
	// the pool's, and SweepHidden how much of the pool's share cost no
	// elapsed time because the arm was reading the next interval meanwhile:
	// SweepElapsed = SweepArm + SweepCPU/Workers - SweepHidden.
	SweepArm    time.Duration `json:"sweep_arm_sim_ns"`
	SweepHidden time.Duration `json:"sweep_hidden_sim_ns"`
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

// decodeSalvageCheckpoint decodes a checkpoint sector; a buffer shorter
// than a sector is refused like a bad magic or checksum.
func decodeSalvageCheckpoint(buf []byte) (salvageCheckpoint, bool) {
	be := binary.BigEndian
	if len(buf) < disk.SectorSize || be.Uint32(buf[0:]) != salvageMagic {
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

// readSalvageCheckpoint looks for a valid checkpoint in either copy, each
// read with up to retries in-place retries, as readRoot reads the root page.
// Mounts call it right after reading the root page, before touching anything.
func readSalvageCheckpoint(d *disk.Disk, lay layout, retries int) (salvageCheckpoint, bool) {
	for _, addr := range []int{lay.logBase + salvageCkA, lay.logBase + salvageCkB} {
		buf, _, err := disk.ReadSectorsRetry(d, addr, 1, retries)
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

	// onScan, when a test sets it, is called by every chunk function of the
	// sweep with its interval's index, on the pool's goroutine.
	onScan func(interval int)
}

// read is the salvage read path: bounded retries, transient faults charged
// to the health budget (a salvage that limps through decay lands Degraded,
// like a mount whose replay did). Reads that stay failed are salvage's
// normal input — damaged sectors become bad blocks — and are not charged;
// only a halted device escalates.
func (r *salvageRun) read(addr, n int) ([]byte, error) {
	buf := make([]byte, n*disk.SectorSize)
	if err := r.readInto(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readInto is read into the caller's buffers of whole sectors; on an error
// they are partly overwritten. The sweep and finalize's mirror of copy A
// read through it past damage (disk.ReadPast).
func (r *salvageRun) readInto(addr int, dst ...[]byte) error {
	retried, err := disk.ReadSectorsRetryInto(r.d, addr, r.cfg.readRetries(), dst...)
	if retried > 0 || err != nil {
		r.v.noteReadFault(retried, err, err == nil)
	}
	return err
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

// sweepChunk is one read unit of the sweep: a transfer of up to
// MaxTransferSectors.
type sweepChunk struct {
	addr, n int
}

// sweepCursor walks the data region in sweep chunks from a start address on:
// transfers of up to MaxTransferSectors, clamped at the metadata range (which
// the sweep skips) and the end of the volume. It is a value: a copy counts
// ahead without moving the original.
type sweepCursor struct {
	lay  layout
	addr int
}

// next returns the chunk at the cursor and moves past it; ok=false at the end
// of the volume.
func (c *sweepCursor) next() (ch sweepChunk, ok bool) {
	lay := c.lay
	metaLo, metaHi := lay.logBase, lay.vamBase+lay.vamSectors
	if c.addr < lay.dataLo {
		c.addr = lay.dataLo
	}
	if c.addr >= metaLo && c.addr < metaHi {
		c.addr = metaHi
	}
	if c.addr >= lay.total {
		return sweepChunk{}, false
	}
	n := MaxTransferSectors
	if c.addr < metaLo && c.addr+n > metaLo {
		n = metaLo - c.addr
	}
	if c.addr+n > lay.total {
		n = lay.total - c.addr
	}
	ch = sweepChunk{c.addr, n}
	c.addr += n
	return ch, true
}

// intervals counts the checkpoint intervals from the cursor to the end.
func (c sweepCursor) intervals() int {
	chunks := 0
	for _, ok := c.next(); ok; _, ok = c.next() {
		chunks++
	}
	return (chunks + sweepCheckpointChunks - 1) / sweepCheckpointChunks
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

// sweepCheckpointChunks is the sweep's checkpoint interval (1 MB of data
// region): what the driver reads, hands to the pool, merges and makes durable.
const sweepCheckpointChunks = 32

// sweepSet is one of the sweep's two buffer sets: an interval's chunks, the
// sectors read for them (chunk c at c*MaxTransferSectors sectors) and the
// result slots the pool fills. The driver owns a set while it reads into it
// and again from the merge on; in between it is the pool's (parscan.Overlap).
// The whole sweep reads through these two megabytes.
type sweepSet struct {
	part    []sweepChunk
	buf     []byte
	results []sweepChunkResult
}

func newSweepSet() sweepSet {
	return sweepSet{
		part:    make([]sweepChunk, 0, sweepCheckpointChunks),
		buf:     make([]byte, sweepCheckpointChunks*MaxTransferSectors*disk.SectorSize),
		results: make([]sweepChunkResult, sweepCheckpointChunks),
	}
}

// chunkBuf is the part of the set's buffer chunk c was read into.
func (s *sweepSet) chunkBuf(c int) []byte {
	off := c * MaxTransferSectors * disk.SectorSize
	return s.buf[off : off+s.part[c].n*disk.SectorSize]
}

// readInterval is the driver's half of an interval: the next
// sweepCheckpointChunks chunks from the cursor, read in ascending order and
// past damage into the set, whose result slots it empties for the pool and
// fills with the damaged sectors.
func (r *salvageRun) readInterval(cur *sweepCursor, s *sweepSet) (chunks int, err error) {
	s.part = s.part[:0]
	for len(s.part) < sweepCheckpointChunks {
		ch, ok := cur.next()
		if !ok {
			break
		}
		c := len(s.part)
		s.part = append(s.part, ch)
		res := &s.results[c]
		res.cands = res.cands[:0]
		if res.damaged, err = disk.ReadPast(ch.addr, s.chunkBuf(c), res.damaged[:0], r.readInto); err != nil {
			return 0, err
		}
	}
	return len(s.part), nil
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

// mergeInterval is the driver's other half: fold a checked interval's results,
// in chunk order, into the seen-address dedup, the append-only manifest and
// the stats, and — a full interval — make them durable.
func (r *salvageRun) mergeInterval(s *sweepSet, ps parscan.Stats) error {
	st := r.st
	st.SweepCPU += ps.TotalCPU()
	st.Steals += ps.Steals()
	for c, ch := range s.part {
		st.SectorsScanned += ch.n
		for _, bad := range s.results[c].damaged {
			st.DamagedSectors++
			r.damaged = append(r.damaged, bad)
			r.manifest = append(r.manifest, uint32(bad)|salvageDamagedBit)
		}
		for _, cand := range s.results[c].cands {
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
	if len(s.part) < sweepCheckpointChunks {
		return nil // the tail: sweep's closing flush covers it
	}
	last := s.part[len(s.part)-1]
	return r.flush(salvageSweep, last.addr+last.n)
}

// sweep is phase 1: one pass of the data region looking for leader pages.
// A candidate must decode, and its first run must start at its own
// address — a leader names itself as the file's first page, which rejects
// byte-for-byte copies of leaders living inside file data.
//
// The disk has one arm, so the pass has one reader (DESIGN §17): this
// goroutine reads a checkpoint interval's chunks in ascending order, the
// damaged-sector fallback included, and while Config.CheckWorkers workers
// decode that interval it reads the next one into the other buffer set
// (parscan.Overlap). Results fold here, in chunk order, and the interval ends
// in a flush — written after the next interval's read was issued, but
// covering only what is swept and merged: the checkpoint cursor never passes
// a sector that has not been (the PR 8 resume contract; a crash re-reads at
// most the two intervals in hand). The pool's balanced share of each interval
// runs on the clock's lane beside the next read, so an interval costs the
// larger of the two, and the virtual clock — a function of the Go scheduler
// while two reading workers dragged the arm between their halves of the
// disk — repeats at every width.
func (r *salvageRun) sweep(from int) error {
	st, v := r.st, r.v
	// The first checkpoint precedes any destructive write (the manifest
	// overwrites name-table copy B): once it lands, plain mounts refuse
	// the volume until salvage finishes.
	if err := r.flush(salvageSweep, from); err != nil {
		return err
	}
	sweepStart, armStart := v.clk.Now(), r.d.Stats().BusyTime()
	st.Workers = r.cfg.checkWorkers()
	lane := v.cpu.NewLane()
	cur := sweepCursor{lay: r.lay, addr: from}
	sets := [2]sweepSet{newSweepSet(), newSweepSet()}
	err := parscan.Overlap(lane, st.Workers, cur.intervals(), 1,
		func(i int) (int, error) { return r.readInterval(&cur, &sets[i%2]) },
		func(i int, w *parscan.Worker, c int) {
			if r.onScan != nil {
				r.onScan(i)
			}
			s := &sets[i%2]
			sweepChunkScan(w, s.part[c], s.chunkBuf(c), &s.results[c])
		},
		func(i int, ps parscan.Stats) error { return r.mergeInterval(&sets[i%2], ps) })
	if err != nil {
		return err
	}
	st.SweepElapsed = v.clk.Now() - sweepStart
	st.SweepArm = r.d.Stats().BusyTime() - armStart
	st.SweepHidden = lane.Hidden()
	return r.flush(salvageSweep, r.lay.total)
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
	if err := v.useLog(wal.Format(d, lay.logBase, lay.logSize, v.clk, v.walConfig())); err != nil {
		return err
	}
	v.copyAOnly = r.hasMan
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

	v.vm = lay.emptyVAM()
	for _, c := range r.entries {
		for _, run := range c.e.Runs {
			v.vm.MarkAllocated(int(run.Start), int(run.Len))
		}
	}
	for _, bad := range r.damaged {
		// Unreadable data sectors become bad blocks: never allocated.
		v.vm.MarkAllocated(bad, 1)
	}
	var err error
	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return err
	}

	v.nt, err = btree.Create(v.cache)
	if err != nil {
		return err
	}
	sort.Slice(r.entries, func(i, j int) bool {
		return string(entryKey(r.entries[i].e.Name, r.entries[i].e.Version)) <
			string(entryKey(r.entries[j].e.Name, r.entries[j].e.Version))
	})
	for _, c := range r.entries {
		v.cpu.Charge(sim.CostBTreeOp)
		if err := v.nt.Put(entryKey(c.e.Name, c.e.Version), encodeEntry(c.e)); err != nil {
			return fmt.Errorf("core: salvage rebuild: %w", err)
		}
	}
	if err := v.log.Checkpoint(); err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return err
	}
	// The tree is complete and home in copy A: everything finalize does is
	// re-derivable from it, so advance the checkpoint past the rebuild.
	return r.flush(salvageFinalize, lay.total)
}

// finalize is phase 3: root page, allocation-map invalidation,
// mirroring the finished name table over the manifest, and — last of all —
// clearing the checkpoint. Every step can be redone from the tree in copy A,
// so a crash anywhere here resumes through resumeFinalize.
func (r *salvageRun) finalize() error {
	v, lay := r.v, r.lay
	uidChunk := r.uidChunk
	if chunk := (r.maxUID >> 32) + 1; chunk > uidChunk {
		uidChunk = chunk
	} else {
		uidChunk++
	}
	v.uidNext.Store(uidChunk << 32)
	if err := v.writeRoot(rootPage{layout: lay, clean: false, uidChunk: uidChunk, formatted: r.formatted}); err != nil {
		return err
	}
	if err := vam.Invalidate(v.writeSectors, lay.vamBase); err != nil {
		return err
	}
	if lay.ntB != lay.ntA {
		// Mirror copy A over the manifest so both name-table copies agree
		// again, then restore two-copy operation.
		v.copyAOnly = false
		ntSectors := lay.ntPages * NTPageSectors
		chunk := make([]byte, MaxTransferSectors*disk.SectorSize)
		for off := 0; off < ntSectors; off += MaxTransferSectors {
			buf := chunk[:min(MaxTransferSectors, ntSectors-off)*disk.SectorSize]
			// A damaged source sector mirrors as a virgin page; the cache
			// serves the surviving copy and the scrub pass re-duplicates it.
			if _, err := disk.ReadPast(lay.ntA+off, buf, nil, r.readInto); err != nil {
				return err
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
	return r.d.Sync()
}

// resumeFinalize handles a crash after the rebuilt tree was complete in
// copy A but before the checkpoint was cleared: re-open the tree, rebuild the
// allocation map and the UID horizon with the mount's scan of copy A, and
// redo the idempotent finalize steps. Every recovered entry has a leader
// page of its own (resolve gave each page one owner), so the scan's leader
// map holds one UID per file. The interrupted run's damaged-sector list is
// not recoverable here, so those sectors return to the free pool; reusing one
// is absorbed by the write path's retry/remap policy.
func (r *salvageRun) resumeFinalize() error {
	v, d, lay, cfg, st := r.v, r.d, r.lay, r.cfg, r.st
	if err := v.useLog(wal.Format(d, lay.logBase, lay.logSize, v.clk, v.walConfig())); err != nil {
		return err
	}
	// Copy B still holds the manifest (or a torn mirror); trust copy A alone
	// until finalize mirrors it.
	v.copyAOnly = lay.ntB != lay.ntA
	var err error
	v.nt, err = btree.Open(v.cache)
	if err != nil {
		return fmt.Errorf("core: salvage resume: rebuilt name table unreadable: %w", err)
	}
	owners, _, err := v.mountScan(v.nt.AllocatedPages(), nil)
	if err != nil {
		return err
	}
	for _, uid := range owners {
		r.maxUID = max(r.maxUID, uid)
	}
	st.FilesRecovered = len(owners)
	v.al, err = newAllocator(v.vm, lay, cfg)
	if err != nil {
		return err
	}
	return r.finalize()
}

// newSalvageRun sets a salvage up: the layout from the volume root page when
// either replica survives, else recomputed from the geometry and cfg, and an
// unmounted volume over it.
func newSalvageRun(d *disk.Disk, cfg Config, st *SalvageStats) (*salvageRun, error) {
	var lay layout
	uidChunk := uint64(1)
	formatted := d.Clock().Now()
	root, err := readRoot(d, cfg.readRetries())
	switch {
	case errors.Is(err, ErrVolumeFormat):
		return nil, err
	case err == nil:
		lay = root.layout
		uidChunk = root.uidChunk
		formatted = root.formatted
	default:
		lay, err = computeLayout(d.Geometry(), d.Params(), cfg)
		if err != nil {
			return nil, err
		}
	}
	return &salvageRun{
		v: newVolume(d, cfg, lay), d: d, lay: lay, cfg: cfg, st: st,
		seen:      make(map[int]bool),
		hasMan:    lay.ntB != lay.ntA,
		uidChunk:  uidChunk,
		formatted: formatted,
	}, nil
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
	r, err := newSalvageRun(d, cfg, &st)
	if err != nil {
		return nil, st, err
	}
	v, lay := r.v, r.lay

	entry := salvageSweep
	sweepFrom := lay.dataLo
	if ck, ok := readSalvageCheckpoint(d, lay, cfg.readRetries()); ok {
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
	v.goLive()
	return v, st, nil
}
