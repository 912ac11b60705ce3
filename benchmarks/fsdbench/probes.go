package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	cedarfs "repro"
	"repro/client"
	"repro/internal/btree"
	"repro/internal/bufcache"
	"repro/internal/disk"
	"repro/internal/intentq"
	"repro/internal/parscan"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Probes are small replay loops into one layer's exported functions, run
// after the traced workload: they put a wall-clock price on each layer's
// hot path in isolation, which counters inside a full run cannot do.

// probeInput is what the finished workload hands the probes.
type probeInput struct {
	vol     *cedarfs.Volume // quiesced end-of-run volume (VAM probe)
	keys    []string        // the workload's name set (B-tree probe)
	wireMix []wireMsg       // the recorded message mix; nil on local workloads
	tiny    bool            // smoke test: a tenth of the iterations
}

// wireMsg is one kind of request/reply pair with the share of the traffic
// it had.
type wireMsg struct {
	weight int
	req    wire.Request
	rep    wire.Reply
}

// prober runs the probes into m; shrink divides every iteration count (the
// smoke test runs a tenth).
type prober struct {
	m      results
	shrink int
}

// timeIt runs f(n) five times and returns the median nanoseconds per
// iteration.
func (p *prober) timeIt(n int, f func(n int)) float64 { return p.timeItPrep(n, func() {}, f) }

// timeItPrep is timeIt with an untimed prep before each timed f(n).
func (p *prober) timeItPrep(n int, prep func(), f func(n int)) float64 {
	n = max(n/p.shrink, 1)
	var per []float64
	for rep := 0; rep < 5; rep++ {
		prep()
		t0 := time.Now()
		f(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

var sinkBytes []byte // defeats dead-code elimination in the codec probes

func runProbes(m results, in probeInput) {
	p := &prober{m: m, shrink: 1}
	if in.tiny {
		p.shrink = 10
	}
	p.wire(in.wireMix)
	p.stub()
	p.intentq()
	p.btree(in.keys)
	p.vam(in.vol)
	p.bufcache()
	p.wal()
	p.disk()
	m.set("parscan.chunk_overhead_ns", p.timeIt(200000, func(n int) {
		parscan.Run(2, n, func(*parscan.Worker, int) error { return nil })
	}))
}

func (p *prober) wire(mix []wireMsg) {
	m := p.m
	names := []string{"wire.encode_req_ns", "wire.decode_req_ns", "wire.encode_reply_ns", "wire.decode_reply_ns"}
	if len(mix) == 0 {
		return // no transport on this workload
	}
	// Expand the mix into a replay sequence of 1,000 messages.
	var seq []wireMsg
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	for _, w := range mix {
		for i := 0; i < (w.weight*1000+total-1)/total; i++ {
			seq = append(seq, w)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	reqFrames := make([][]byte, len(seq))
	repFrames := make([][]byte, len(seq))
	for i := range seq {
		reqFrames[i] = wire.AppendRequest(nil, &seq[i].req)
		repFrames[i] = wire.AppendReply(nil, &seq[i].rep)
	}
	n := 20 * len(seq)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m.set(names[0], p.timeIt(n, func(n int) {
		for i := 0; i < n; i++ {
			sinkBytes = wire.AppendRequest(sinkBytes[:0], &seq[i%len(seq)].req)
		}
	}))
	m.set(names[1], p.timeIt(n, func(n int) {
		for i := 0; i < n; i++ {
			q, err := wire.DecodeRequest(reqFrames[i%len(seq)][wire.HeaderLen:])
			if err != nil {
				panic(err)
			}
			sinkBytes = q.Data
		}
	}))
	m.set(names[2], p.timeIt(n, func(n int) {
		for i := 0; i < n; i++ {
			sinkBytes = wire.AppendReply(sinkBytes[:0], &seq[i%len(seq)].rep)
		}
	}))
	m.set(names[3], p.timeIt(n, func(n int) {
		for i := 0; i < n; i++ {
			r, err := wire.DecodeReply(repFrames[i%len(seq)][wire.HeaderLen:])
			if err != nil {
				panic(err)
			}
			sinkBytes = r.Data
		}
	}))
	runtime.ReadMemStats(&ms1)
	// One message crosses all four codec calls; each ran five times over.
	m.set("wire.allocs_per_msg", float64(ms1.Mallocs-ms0.Mallocs)/float64(5*max(n/p.shrink, 1)))
}

// stubFS answers every call at once: what is left of a round trip over it
// is client + wire + server + the pipe.
type stubFS struct{}

func (stubFS) Open(context.Context, string, uint32) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrNotFound
}
func (stubFS) Create(context.Context, string, []byte) (cedarfs.Handle, error) {
	return nil, cedarfs.ErrReadOnly
}
func (stubFS) Stat(_ context.Context, name string, _ uint32) (cedarfs.FileInfo, error) {
	return cedarfs.FileInfo{Name: name, Version: 1, ByteSize: 500}, nil
}
func (stubFS) List(context.Context, string) ([]cedarfs.FileInfo, error) { return nil, nil }
func (stubFS) Rename(context.Context, string, string) error             { return nil }
func (stubFS) Delete(context.Context, string, uint32) error             { return nil }
func (stubFS) SetKeep(context.Context, string, uint16) error            { return nil }
func (stubFS) Force(context.Context) (uint64, error)                    { return 0, nil }
func (stubFS) WaitCommitted(context.Context, uint64) error              { return nil }
func (stubFS) Stats(context.Context) (cedarfs.FSStats, error)           { return cedarfs.FSStats{}, nil }
func (stubFS) Close() error                                             { return nil }

// pipeListener hands the server one end of each net.Pipe the client dials.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (p *prober) stub() {
	m := p.m
	srv := server.New(stubFS{}, server.Config{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := client.Dial("pipe", client.Options{Conns: 1, Dialer: func(string) (net.Conn, error) {
		a, b := net.Pipe()
		select {
		case ln.conns <- b:
			return a, nil
		case <-ln.done:
			return nil, net.ErrClosed
		}
	}})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	m.set("server.stub_rtt_us", p.timeIt(4000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Stat(bg, "probe/f0001", 0); err != nil {
				panic(err)
			}
		}
	})/1e3)
}

func (p *prober) intentq() {
	m := p.m
	q := intentq.New(sim.NewVirtualClock(), intentq.Config{Apply: func(any) error { return nil }})
	defer q.Close()
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("probe/d%02d/f%04d", i%8, i)
	}
	m.set("intentq.enqueue_apply_ns", p.timeIt(20000, func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(i, names[i%len(names)])
		}
		if err := q.Drain(); err != nil {
			panic(err)
		}
	}))
}

// probeBtree builds a MemPager tree from the workload's own key set, runs
// a churn of never-reused temp keys through it (the pattern that leaves
// emptied leaves behind), and then prices the four operations.
func (p *prober) btree(names []string) {
	m := p.m
	if len(names) > 20000 {
		names = names[:20000]
	}
	key := func(name string, ver uint32) []byte {
		k := append(append(make([]byte, 0, len(name)+5), name...), 0)
		return binary.BigEndian.AppendUint32(k, ver)
	}
	val := make([]byte, 96) // about one entry: properties plus a short run table
	t, err := btree.Create(btree.NewMemPager(2048, 4096))
	if err != nil {
		panic(err)
	}
	keys := make([][]byte, len(names))
	for i, n := range names {
		keys[i] = key(n, 1)
		if err := t.Put(keys[i], val); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4*len(names); i++ {
		k := key(fmt.Sprintf("%s.tmp%07d", names[i%len(names)], i), 1)
		if err := t.Put(k, val); err != nil {
			panic(err)
		}
		if err := t.Delete(k); err != nil {
			panic(err)
		}
	}
	n := len(keys)
	m.set("btree.get_ns", p.timeIt(n, func(n int) {
		for _, k := range keys[:n] {
			if _, err := t.Get(k); err != nil {
				panic(err)
			}
		}
	}))
	m.set("btree.put_ns", p.timeIt(n, func(n int) {
		for _, k := range keys[:n] {
			if err := t.Put(k, val); err != nil {
				panic(err)
			}
		}
	}))
	scratch := make([][]byte, 2000)
	for i := range scratch {
		scratch[i] = key(fmt.Sprintf("%s.del", names[i%len(names)]), uint32(i))
	}
	m.set("btree.delete_ns", p.timeItPrep(len(scratch), func() {
		for _, k := range scratch {
			if err := t.Put(k, val); err != nil {
				panic(err)
			}
		}
	}, func(n int) {
		for _, k := range scratch[:n] {
			if err := t.Delete(k); err != nil {
				panic(err)
			}
		}
	}))
	m.set("btree.scan_ns_per_entry", p.timeIt(n, func(n int) {
		seen := 0
		t.Scan(nil, func(_, _ []byte) bool { seen++; return seen < n })
	}))
	entries, err := t.Len()
	if err != nil {
		panic(err)
	}
	m.set("btree.height", float64(t.Height()))
	m.set("btree.pages_per_kentry", float64(t.AllocatedPages())/float64(entries)*1e3)
}

func (p *prober) vam(v *cedarfs.Volume) {
	m := p.m
	vm := v.VAM()
	pages := vm.Pages()
	m.set("vam.free_ratio", float64(vm.FreeCount())/float64(pages))
	rng := rand.New(rand.NewSource(1))
	starts := make([]int, 2000)
	for i := range starts {
		starts[i] = rng.Intn(pages)
	}
	found := 0
	m.set("vam.findrun_ns", p.timeIt(len(starts), func(n int) {
		for _, lo := range starts[:n] {
			_, n := vm.FindRun(16, lo, pages, 1)
			found += n
		}
	}))
}

func (p *prober) bufcache() {
	m := p.m
	const capacity = 2048 // the default 1 MB data cache
	c := bufcache.New(capacity)
	data := make([]byte, 8*disk.SectorSize)
	for a := 0; a < capacity; a += 8 {
		c.PutRange(a, data, c.Gen())
	}
	m.set("bufcache.get_hit_ns", p.timeIt(16*capacity/8, func(n int) {
		for i := 0; i < n; i++ {
			c.GetRange(i%(capacity/8)*8, 8)
		}
	}))
	next := capacity
	m.set("bufcache.put_evict_ns", p.timeIt(4000, func(n int) {
		for i := 0; i < n; i++ {
			c.PutRange(next, data, c.Gen())
			next += 8
		}
	}))
}

func (p *prober) wal() {
	m := p.m
	d, clk, err := newDisk(disk.SmallGeometry)
	if err != nil {
		panic(err)
	}
	log, err := wal.Format(d, 0, 4+3*800, clk, wal.Config{Interval: time.Hour})
	if err != nil {
		panic(err)
	}
	log.FlushHook = func(int) (int, error) { return 0, nil }
	img := make([]byte, disk.SectorSize)
	target := uint64(0)
	stage := func(n int) {
		for i := 0; i < n; i++ {
			target++
			if _, err := log.Append(wal.PageImage{Kind: wal.KindNameTable, Target: target, Data: img}); err != nil {
				panic(err)
			}
		}
	}
	force := func(int) {
		if err := log.Force(); err != nil {
			panic(err)
		}
	}
	// One batch is 16 images, the adaptive controller's target.
	m.set("wal.append_ns", p.timeItPrep(16, func() { force(0) }, stage))
	m.set("wal.force_wall_us", p.timeItPrep(1, func() { stage(16) }, force)/1e3)
}

func (p *prober) disk() {
	m := p.m
	d, _, err := newDisk(disk.DefaultGeometry)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 8*disk.SectorSize)
	const span = 4096
	for a := 0; a < span*8; a += 8 {
		d.WriteSectors(a, buf)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]int, 20000)
	for i := range addrs {
		addrs[i] = rng.Intn(span) * 8
	}
	m.set("disk.op_wall_ns", p.timeIt(len(addrs), func(n int) {
		for _, a := range addrs[:n] {
			if _, err := d.ReadSectors(a, 8); err != nil {
				panic(err)
			}
		}
	}))
}

// modelKeys returns the sorted names of m.
func modelKeys(m *model) []string {
	keys := make([]string, 0, len(m.files))
	for n := range m.files {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	return keys
}
