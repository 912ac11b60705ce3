package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	cedarfs "repro"
)

// A loadClient is one closed-loop logical client: it owns a namespace, a
// model of it and a seeded generator, and runs one operation of its mix
// per step, checking the result against the model as it goes.
type loadClient interface {
	step() int // runs one operation, returns its kind
	warm()     // touches the client's whole namespace once
	stats() *clientStats
}

type clientStats struct {
	m         *model
	userBytes int64 // payload + name bytes written
	failed    int
	problems  []string
}

func (s *clientStats) stats() *clientStats { return s }

func (s *clientStats) fail(format string, args ...interface{}) {
	s.failed++
	if len(s.problems) < 4 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// newPool returns the seeded byte pool payloads are cut from; the model
// keeps checksums, so no payload is ever built twice.
func newPool(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func cut(pool []byte, rng *rand.Rand, n int) []byte {
	off := rng.Intn(len(pool) - n)
	return pool[off : off+n]
}

// weighted picks an index of w with probability proportional to its weight.
func weighted(rng *rand.Rand, w []int, total int) int {
	r := rng.Intn(total)
	for i, x := range w {
		if r < x {
			return i
		}
		r -= x
	}
	return len(w) - 1
}

func sum(w []int) int {
	t := 0
	for _, x := range w {
		t += x
	}
	return t
}

// --- metadata client ---

const (
	mStat = iota
	mOpenRead
	mList
	mRingCreate
	mRecreate
	mRename
	mSetKeep
	mTemp
	mForce
	mWait
	numMetaOps
)

var metaOpNames = []string{"stat", "open-read", "list", "ring-create", "recreate", "rename", "setkeep", "temp", "force", "wait"}

// remoteMetaMix is the remote-meta traffic mix, in percent. Every create is
// balanced: the ring keeps two or three versions per slot, recreate deletes
// first, temp deletes the file made four temps ago. The 2 % temp churn
// uses never-reused names on purpose — it is what leaves emptied B-tree
// leaves behind, the slowdown this benchmark has to keep visible.
var remoteMetaMix = []int{35, 15, 8, 15, 8, 5, 2, 2, 5, 5}

// mutationMix is the unforced tail every workload ends with, and the
// between-crash traffic of check-repair: the mutations of the mix above
// with no reads and no forces.
var mutationMix = []int{0, 0, 0, 40, 20, 15, 10, 15, 0, 0}

// asyncTailMix is mutationMix without renames, for the unforced tail on
// volumes running the asynchronous pipeline. There a crash can fall between
// a rename's two steps; the remounted volume then holds both names over
// the same pages and Verify reports the double ownership (seen once in
// about thirty runs). Until rename is crash-atomic the tail leaves it out,
// so that no operation of the benchmark fails by design.
var asyncTailMix = []int{0, 0, 0, 40, 35, 0, 10, 15, 0, 0}

const (
	ringSlots = 64
	tempDepth = 4
)

type metaClient struct {
	clientStats
	fs     cedarfs.FS
	ackSeq func() uint64
	rng    *rand.Rand
	pool   []byte
	mix    []int
	mixSum int

	perDir int
	dirs   []string    // list prefixes, "ns/dNN/"
	names  [][2]string // base file names, both rename states
	alt    []bool      // which of the two names is current
	ring   []string
	tmpDir string
	tmp    []string
	tmpSeq int

	// unbalanced is the smoke test's hook: ring creates go to fresh names
	// instead of a slot kept to two versions, so the live set grows.
	unbalanced bool
}

// newMetaClient lays out a namespace of dirs x perDir small base files, a
// 64-slot version ring and a temp directory under ns. populate creates it.
func newMetaClient(fs cedarfs.FS, ackSeq func() uint64, ns string, seed int64, pool []byte, mix []int, dirs, perDir int) *metaClient {
	c := &metaClient{fs: fs, ackSeq: ackSeq, rng: rand.New(rand.NewSource(seed)), pool: pool,
		mix: mix, mixSum: sum(mix), perDir: perDir, tmpDir: ns + "/tmp/"}
	c.m = newModel()
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("%s/d%02d/", ns, d)
		c.dirs = append(c.dirs, dir)
		for i := 0; i < perDir; i++ {
			c.names = append(c.names, [2]string{fmt.Sprintf("%sf%03d", dir, i), fmt.Sprintf("%sg%03d", dir, i)})
		}
	}
	c.alt = make([]bool, len(c.names))
	for i := 0; i < ringSlots; i++ {
		c.ring = append(c.ring, fmt.Sprintf("%s/ring/r%02d", ns, i))
	}
	return c
}

func (c *metaClient) cur(i int) string {
	if c.alt[i] {
		return c.names[i][1]
	}
	return c.names[i][0]
}

func (c *metaClient) create(name string, size int) bool {
	data := cut(c.pool, c.rng, size)
	h, err := c.fs.Create(bg, name, data)
	if err != nil {
		c.fail("create %s: %v", name, err)
		return false
	}
	want := c.m.create(name, size, crc32.ChecksumIEEE(data))
	c.userBytes += int64(size + len(name))
	if fi := h.Info(); fi.Version != want.ver || int(fi.ByteSize) != size {
		c.fail("create %s: got v%d size %d, want v%d size %d", name, fi.Version, fi.ByteSize, want.ver, size)
	}
	if err := h.Close(); err != nil {
		c.fail("close %s: %v", name, err)
	}
	return true
}

func (c *metaClient) remove(name string) {
	if err := c.fs.Delete(bg, name, 0); err != nil {
		c.fail("delete %s: %v", name, err)
		return
	}
	c.m.del(name)
	c.userBytes += int64(len(name))
}

func (c *metaClient) setKeep(name string, keep uint16) {
	if err := c.fs.SetKeep(bg, name, keep); err != nil {
		c.fail("setkeep %s: %v", name, err)
		return
	}
	c.m.setKeep(name, keep)
	c.userBytes += int64(len(name))
}

// smallSize draws a base file's size: 200 to 2,000 bytes, at most four pages.
func (c *metaClient) smallSize() int { return 200 + c.rng.Intn(1800) }

// populate builds the namespace through c.fs: one version per base file,
// two per ring slot with keep=2 (so the ring is in steady state from the
// first measured create), and a full temp FIFO.
func (c *metaClient) populate() {
	for i := range c.names {
		c.create(c.cur(i), c.smallSize())
	}
	for _, r := range c.ring {
		c.create(r, 500)
		c.setKeep(r, 2)
		c.create(r, 500)
	}
	for i := 0; i < tempDepth; i++ {
		c.pushTemp()
	}
}

// warm stats every base file once. A freshly mounted volume fills its
// name-table cache one miss at a time — tens of thousands of random
// operations before the miss rate settles — while one pass over the
// namespace leaves the cache as full as it will ever be.
func (c *metaClient) warm() {
	for i := range c.names {
		if _, err := c.fs.Stat(bg, c.cur(i), 0); err != nil {
			c.fail("warm-up stat %s: %v", c.cur(i), err)
		}
	}
}

func (c *metaClient) pushTemp() {
	name := fmt.Sprintf("%st%07d", c.tmpDir, c.tmpSeq)
	c.tmpSeq++
	if c.create(name, 300) {
		c.tmp = append(c.tmp, name)
	}
}

func (c *metaClient) step() int {
	kind := weighted(c.rng, c.mix, c.mixSum)
	switch kind {
	case mStat:
		name := c.cur(c.rng.Intn(len(c.names)))
		fi, err := c.fs.Stat(bg, name, 0)
		want := c.m.files[name].newest()
		if err != nil {
			c.fail("stat %s: %v", name, err)
		} else if fi.Version != want.ver || int(fi.ByteSize) != want.size || fi.Keep != want.keep {
			c.fail("stat %s: got v%d size %d keep %d, want %+v", name, fi.Version, fi.ByteSize, fi.Keep, *want)
		}
	case mOpenRead:
		name := c.cur(c.rng.Intn(len(c.names)))
		data, _, err := readWhole(c.fs, name, 0)
		if err != nil {
			c.fail("read %s: %v", name, err)
		} else if want := c.m.files[name].newest(); len(data) != want.size || crc32.ChecksumIEEE(data) != want.crc {
			c.fail("read %s: payload mismatch (%d bytes, want %d)", name, len(data), want.size)
		}
	case mList:
		dir := c.dirs[c.rng.Intn(len(c.dirs))]
		infos, err := c.fs.List(bg, dir)
		if err != nil {
			c.fail("list %s: %v", dir, err)
		} else if len(infos) != c.perDir {
			c.fail("list %s: %d entries, want %d", dir, len(infos), c.perDir)
		}
	case mRingCreate:
		if c.unbalanced {
			c.tmpSeq++
			c.create(fmt.Sprintf("%su%07d", c.tmpDir, c.tmpSeq), 500)
			break
		}
		c.create(c.ring[c.rng.Intn(len(c.ring))], 500)
	case mRecreate:
		name := c.cur(c.rng.Intn(len(c.names)))
		c.remove(name)
		c.create(name, c.smallSize())
	case mRename:
		i := c.rng.Intn(len(c.names))
		from := c.cur(i)
		c.alt[i] = !c.alt[i]
		to := c.cur(i)
		if err := c.fs.Rename(bg, from, to); err != nil {
			c.alt[i] = !c.alt[i]
			c.fail("rename %s: %v", from, err)
		} else {
			c.m.rename(from, to)
			c.userBytes += int64(len(from) + len(to))
		}
	case mSetKeep:
		name := c.ring[c.rng.Intn(len(c.ring))]
		keep := uint16(2)
		if c.m.files[name].newest().keep == 2 {
			keep = 3
		}
		c.setKeep(name, keep)
	case mTemp:
		c.pushTemp()
		if len(c.tmp) > tempDepth {
			c.remove(c.tmp[0])
			c.tmp = c.tmp[1:]
		}
	case mForce:
		if _, err := c.fs.Force(bg); err != nil {
			c.fail("force: %v", err)
		}
	case mWait:
		seq := c.ackSeq()
		if err := c.fs.WaitCommitted(bg, seq); err != nil {
			c.fail("wait %d: %v", seq, err)
		}
	}
	return kind
}

// --- data client ---

const (
	dSeqRead = iota
	dHotRead
	dRewrite
	dRandRead
	dInPlace
	numDataOps
)

var dataOpNames = []string{"seq-read", "hot-read", "rewrite", "rand-read-4k", "inplace-4k"}

// remoteDataMix: writes run beside the reads, so a read-path gain that
// taxes the write-through path shows in the same number.
var remoteDataMix = []int{45, 20, 20, 10, 5}

const (
	chunk     = 32 << 10
	page4k    = 4 << 10
	hotSize   = 32 << 10
	inplaceSz = 64 << 10
)

type dataFile struct {
	name string
	src  []byte // newest version's bytes: a pool slice, or a private copy for in-place files
}

type dataClient struct {
	clientStats
	fs   cedarfs.FS
	rng  *rand.Rand
	pool []byte

	cold    []dataFile // read sequentially and at random
	rewrite []int      // indices into cold of the files that are also rewritten, spread evenly over the sizes

	inplace []dataFile
	hot     []dataFile // shared, read-only, created by client 0
	buf     []byte
}

// coldSize is the size of a client's i-th of n cold files: the quantiles of
// a log-uniform distribution over 16..256 KB (mean about 87 KB), in order,
// so every seed and every client has the same population and only which
// file an operation picks is random. Drawing the sizes at random moved
// bytes per op — and every metric that follows it — by 5 % between seeds.
func coldSize(i, n int) int {
	return int(16384 * math.Pow(16, (float64(i)+0.5)/float64(n)))
}

func newDataClient(fs cedarfs.FS, ns string, seed int64, pool []byte, cold, rewrite, inplace int, hot []dataFile) *dataClient {
	c := &dataClient{fs: fs, rng: rand.New(rand.NewSource(seed)), pool: pool, hot: hot, buf: make([]byte, 256<<10)}
	c.m = newModel()
	for i := 0; i < cold; i++ {
		c.cold = append(c.cold, dataFile{name: fmt.Sprintf("%s/cold/f%04d", ns, i)})
	}
	for k := 0; k < rewrite; k++ {
		c.rewrite = append(c.rewrite, k*cold/rewrite)
	}
	for i := 0; i < inplace; i++ {
		c.inplace = append(c.inplace, dataFile{name: fmt.Sprintf("%s/inpl/f%02d", ns, i)})
	}
	return c
}

// stream writes src as a new version of f the streaming way: Create(nil)
// then sequential 32 KB WriteAt calls.
func (c *dataClient) stream(f *dataFile, src []byte) {
	h, err := c.fs.Create(bg, f.name, nil)
	if err != nil {
		c.fail("create %s: %v", f.name, err)
		return
	}
	defer h.Close()
	for off := 0; off < len(src); off += chunk {
		end := off + chunk
		if end > len(src) {
			end = len(src)
		}
		if _, _, err := h.WriteAt(bg, src[off:end], int64(off)); err != nil {
			c.fail("write %s@%d: %v", f.name, off, err)
			return
		}
	}
	// The model's create mirrors core: the version was made empty and the
	// stream grew it, so size and checksum are the finished file's.
	want := c.m.create(f.name, len(src), crc32.ChecksumIEEE(src))
	if fi := h.Info(); fi.Version != want.ver {
		c.fail("create %s: got v%d, want v%d", f.name, fi.Version, want.ver)
	}
	f.src = src
	c.userBytes += int64(len(src) + len(f.name))
}

func (c *dataClient) populate() {
	for i := range c.cold {
		c.stream(&c.cold[i], cut(c.pool, c.rng, coldSize(i, len(c.cold))))
	}
	for _, i := range c.rewrite {
		// Two versions under keep=2 from the start: the live set does not
		// grow while the measured rewrites run.
		f := &c.cold[i]
		if err := c.fs.SetKeep(bg, f.name, 2); err != nil {
			c.fail("setkeep %s: %v", f.name, err)
		}
		c.m.setKeep(f.name, 2)
		c.stream(f, cut(c.pool, c.rng, len(f.src)))
	}
	for i := range c.inplace {
		c.stream(&c.inplace[i], append([]byte(nil), cut(c.pool, c.rng, inplaceSz)...))
	}
}

func (c *dataClient) warm() {
	for _, fs := range [][]dataFile{c.cold, c.inplace} {
		for _, f := range fs {
			if _, err := c.fs.Stat(bg, f.name, 0); err != nil {
				c.fail("warm-up stat %s: %v", f.name, err)
			}
		}
	}
}

// readInto opens name, reads [off, off+n) in 32 KB chunks into c.buf and
// closes; it returns the bytes read.
func (c *dataClient) readInto(name string, off, n int) []byte {
	h, err := c.fs.Open(bg, name, 0)
	if err != nil {
		c.fail("open %s: %v", name, err)
		return nil
	}
	defer h.Close()
	out := c.buf[:n]
	for done := 0; done < n; done += chunk {
		end := done + chunk
		if end > n {
			end = n
		}
		if k, err := h.ReadAt(bg, out[done:end], int64(off+done)); err != nil && !(err == io.EOF && k == end-done) {
			c.fail("read %s@%d: %v", name, off+done, err)
			return nil
		}
	}
	return out
}

func (c *dataClient) step() int {
	kind := weighted(c.rng, remoteDataMix, 100)
	switch kind {
	case dSeqRead:
		f := &c.cold[c.rng.Intn(len(c.cold))]
		if got := c.readInto(f.name, 0, len(f.src)); got != nil && !bytes.Equal(got, f.src) {
			c.fail("seq-read %s: payload mismatch", f.name)
		}
	case dHotRead:
		f := &c.hot[c.rng.Intn(len(c.hot))]
		if got := c.readInto(f.name, 0, len(f.src)); got != nil && !bytes.Equal(got, f.src) {
			c.fail("hot-read %s: payload mismatch", f.name)
		}
	case dRewrite:
		f := &c.cold[c.rewrite[c.rng.Intn(len(c.rewrite))]]
		c.stream(f, cut(c.pool, c.rng, len(f.src)))
	case dRandRead:
		f := &c.cold[c.rng.Intn(len(c.cold))]
		off := c.rng.Intn((len(f.src)-page4k)/page4k+1) * page4k
		if got := c.readInto(f.name, off, page4k); got != nil && !bytes.Equal(got, f.src[off:off+page4k]) {
			c.fail("rand-read %s@%d: payload mismatch", f.name, off)
		}
	case dInPlace:
		f := &c.inplace[c.rng.Intn(len(c.inplace))]
		off := c.rng.Intn(inplaceSz/page4k) * page4k
		data := cut(c.pool, c.rng, page4k)
		h, err := c.fs.Open(bg, f.name, 0)
		if err != nil {
			c.fail("open %s: %v", f.name, err)
			break
		}
		_, seq, err := h.WriteAt(bg, data, int64(off))
		if err == nil {
			err = c.fs.WaitCommitted(bg, seq)
		}
		if err != nil {
			c.fail("inplace %s@%d: %v", f.name, off, err)
		} else {
			copy(f.src[off:], data)
			c.m.rewrite(f.name, crc32.ChecksumIEEE(f.src))
			c.userBytes += page4k
		}
		h.Close()
	}
	return kind
}
