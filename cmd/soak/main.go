// Command soak drives an FSD network server with tens of thousands of
// concurrent simulated clients and reports latency percentiles and
// throughput — the scale experiment for the network front-end, in the
// spirit of the paper's "a building of Dorados against one file server".
//
// Each simulated client is a goroutine with its own Poisson arrival
// process (exponential think time at -rate ops/sec) and a configurable
// operation mix; all clients multiplex over one pooled, pipelining
// client.Client, so the socket count stays at -conns while the in-flight
// concurrency is the client population. Latencies are recorded in a
// log-linear histogram (16 sub-buckets per octave) and reduced to
// p50/p99/p99.9.
//
// With no -addr, soak starts an in-process fsdserver on a loopback socket
// (still real TCP through the full wire protocol) so one command
// reproduces the benchmark:
//
//	go run ./cmd/soak -clients 2000 -conns 16 -duration 5s -json BENCH_server.json
//
// (At 10,000 clients for 10 s the in-process volume's default name table
// fills up, and the run ends read-only: see EXPERIMENTS.md "10k-client soak".)
//
// Each client owns its namespace and issues its operations in order, and it
// keeps the size and CRC-32 of each file it wrote, so no operation may fail
// and every read and stat must show what the client wrote. The run fails
// (exit 1) if any protocol error is observed on either side, if any
// operation fails — a read whose bytes differ counts as failed — or if the
// volume leaves the healthy state; it prints the first few failures. Reads
// and stats that differ, and operations that failed with
// cedarfs.CodeInternal (an error with no canonical meaning, such as a leader
// checksum mismatch), are also counted apart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
	"repro/client"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server address (empty = start an in-process server)")
		clients  = flag.Int("clients", 10000, "concurrent simulated clients")
		conns    = flag.Int("conns", 64, "TCP connections in the shared pool")
		duration = flag.Duration("duration", 8*time.Second, "measurement window")
		rate     = flag.Float64("rate", 5, "mean ops/sec per client (Poisson arrivals)")
		mix      = flag.String("mix", "read=40,write=20,create=15,stat=10,list=5,delete=5,force=3,wait=2", "op mix weights")
		seed     = flag.Int64("seed", 1, "rng seed")
		async    = flag.Bool("async", true, "in-process server: run the async metadata pipeline")
		jsonOut  = flag.String("json", "", "write the result as JSON to this file (default stdout)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	if err := run(*addr, *clients, *conns, *duration, *rate, *mix, *seed, *async, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
}

// ---- op mix --------------------------------------------------------------

var opNames = []string{"read", "write", "create", "stat", "list", "delete", "force", "wait"}

const (
	opRead = iota
	opWrite
	opCreate
	opStat
	opList
	opDelete
	opForce
	opWait
	opCount
)

func parseMix(s string) ([opCount]int, error) {
	var w [opCount]int
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return w, fmt.Errorf("bad mix element %q", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		idx := -1
		for i, name := range opNames {
			if name == kv[0] {
				idx = i
			}
		}
		if idx < 0 {
			return w, fmt.Errorf("unknown op %q (have %s)", kv[0], strings.Join(opNames, ", "))
		}
		w[idx] = n
	}
	return w, nil
}

// ---- log-linear latency histogram ---------------------------------------

// hist is a concurrent log-linear histogram over nanoseconds: 16 linear
// sub-buckets per power-of-two octave, so percentiles are accurate to
// ~6% across the whole range. All mutation is a single atomic add.
type hist struct {
	buckets [64 * 16]atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64
}

func (h *hist) record(d time.Duration) {
	ns := uint64(d)
	if ns == 0 {
		ns = 1
	}
	oct := bits.Len64(ns) - 1
	var sub uint64
	if oct >= 4 {
		sub = (ns - 1<<oct) >> (oct - 4)
	}
	h.buckets[oct*16+int(sub)].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// quantile returns the representative latency at quantile q in [0,1].
func (h *hist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			oct, sub := i/16, uint64(i%16)
			lo := uint64(1) << oct
			width := lo / 16
			if width == 0 {
				width = 1
			}
			return time.Duration(lo + sub*width + width/2)
		}
	}
	return time.Duration(h.max.Load())
}

// ---- result --------------------------------------------------------------

type opResult struct {
	Ops    uint64  `json:"ops"`
	Errors uint64  `json:"errors"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	Maxus  float64 `json:"max_us"`
}

// soakClock is the clock line BENCH_server.json carries.
const soakClock = "duration_s, throughput_ops_s and every *_us: wall clock on the host running the soak, " +
	"client-observed (the server's simulated disk costs no wall time); ops and errors: counts"

type result struct {
	Clock          string              `json:"clock"`
	Clients        int                 `json:"clients"`
	Conns          int                 `json:"conns"`
	DurationS      float64             `json:"duration_s"`
	RatePerClient  float64             `json:"rate_per_client"`
	Mix            string              `json:"mix"`
	Async          bool                `json:"async"`
	Ops            uint64              `json:"ops_total"`
	Throughput     float64             `json:"throughput_ops_s"`
	Errors         uint64              `json:"errors_total"`
	ProtocolErrors uint64              `json:"protocol_errors"`
	P50us          float64             `json:"p50_us"`
	P99us          float64             `json:"p99_us"`
	P999us         float64             `json:"p999_us"`
	Maxus          float64             `json:"max_us"`
	PerOp          map[string]opResult `json:"per_op"`
	ErrorSamples   []string            `json:"error_samples,omitempty"`
	ServerSessions uint64              `json:"server_sessions_total,omitempty"`
	ServerStalls   uint64              `json:"server_stalls,omitempty"`

	// Mismatches counts the reads and stats that differ from what their
	// client wrote. InternalErrors counts the other operations that failed
	// with cedarfs.CodeInternal; InternalSamples holds the first distinct
	// ones.
	Mismatches      uint64   `json:"mismatches,omitempty"`
	InternalErrors  uint64   `json:"internal_errors,omitempty"`
	InternalSamples []string `json:"internal_samples,omitempty"`

	// In-process server mode only: final volume health, and the reason for
	// the last downward transition if any. A soak that ends anything but
	// "healthy" hit a fatal apply error worth investigating.
	VolumeHealth       string `json:"volume_health,omitempty"`
	VolumeHealthReason string `json:"volume_health_reason,omitempty"`
}

// errSampler keeps the first few distinct error strings so a nonzero
// errors_total in the report is diagnosable without a rerun.
type errSampler struct {
	mu      sync.Mutex
	samples []string
	seen    map[string]bool
}

func (s *errSampler) add(op string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	msg := op + ": " + err.Error()
	if len(s.samples) >= 8 || s.seen[msg] {
		return
	}
	s.seen[msg] = true
	s.samples = append(s.samples, msg)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- the soak ------------------------------------------------------------

func run(addr string, clients, conns int, duration time.Duration, rate float64, mixSpec string, seed int64, async bool, jsonOut string) error {
	weights, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	wTotal := 0
	for _, w := range weights {
		wTotal += w
	}
	if wTotal == 0 {
		return fmt.Errorf("empty op mix")
	}

	var srv *server.Server
	var vol *cedarfs.Volume
	if addr == "" {
		d, err := disk.New(disk.DefaultGeometry, disk.DefaultParams, sim.NewVirtualClock())
		if err != nil {
			return err
		}
		vol, err = cedarfs.Format(d, cedarfs.Config{AsyncApply: async, AdaptiveCommit: async})
		if err != nil {
			return err
		}
		srv = server.New(cedarfs.NewLocalFS(vol), server.Config{})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(l)
		addr = l.Addr().String()
		fmt.Fprintf(os.Stderr, "soak: in-process server on %s (async=%v)\n", addr, async)
	}

	cl, err := client.Dial(addr, client.Options{Conns: conns})
	if err != nil {
		return err
	}
	defer cl.Close()

	var (
		global   hist
		perOp    [opCount]hist
		opErrs   [opCount]atomic.Uint64
		sampler  errSampler
		differs  atomic.Uint64
		internal atomic.Uint64
		internS  errSampler
		started  = make(chan struct{})
		deadline = time.Now().Add(duration)
		wg       sync.WaitGroup
	)
	fmt.Fprintf(os.Stderr, "soak: launching %d clients over %d conns, %v at %.1f ops/s/client\n",
		clients, conns, duration, rate)

	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := soakClient{
				id:  id,
				rng: rand.New(rand.NewSource(seed + int64(id))),
				cl:  cl,
			}
			<-started
			for {
				// Poisson arrivals: exponential think time.
				think := time.Duration(c.rng.ExpFloat64() / rate * float64(time.Second))
				if left := time.Until(deadline); think >= left {
					return
				}
				time.Sleep(think)
				op := c.pickOp(weights, wTotal)
				t0 := time.Now()
				err := c.do(op)
				lat := time.Since(t0)
				global.record(lat)
				perOp[op].record(lat)
				if err != nil {
					opErrs[op].Add(1)
					sampler.add(opNames[op], err)
					if errors.Is(err, errDiffers) {
						differs.Add(1)
					} else if cedarfs.Code(err) == cedarfs.CodeInternal {
						internal.Add(1)
						internS.add(opNames[op], err)
					}
				}
			}
		}(id)
	}
	t0 := time.Now()
	close(started)
	wg.Wait()
	elapsed := time.Since(t0)

	res := result{
		Clock:         soakClock,
		Clients:       clients,
		Conns:         conns,
		DurationS:     elapsed.Seconds(),
		RatePerClient: rate,
		Mix:           mixSpec,
		Async:         async,
		Ops:           global.count.Load(),
		P50us:         us(global.quantile(0.50)),
		P99us:         us(global.quantile(0.99)),
		P999us:        us(global.quantile(0.999)),
		Maxus:         us(time.Duration(global.max.Load())),
		PerOp:         map[string]opResult{},
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	res.ProtocolErrors = cl.ProtocolErrors()
	res.ErrorSamples = sampler.samples
	res.Mismatches = differs.Load()
	res.InternalErrors, res.InternalSamples = internal.Load(), internS.samples
	for i := range perOp {
		if n := perOp[i].count.Load(); n > 0 {
			res.Errors += opErrs[i].Load()
			res.PerOp[opNames[i]] = opResult{
				Ops:    n,
				Errors: opErrs[i].Load(),
				P50us:  us(perOp[i].quantile(0.50)),
				P99us:  us(perOp[i].quantile(0.99)),
				P999us: us(perOp[i].quantile(0.999)),
				Maxus:  us(time.Duration(perOp[i].max.Load())),
			}
		}
	}
	if srv != nil {
		st := srv.Stats()
		res.ProtocolErrors += st.ProtocolErrors
		res.ServerSessions = st.SessionsTotal
		res.ServerStalls = st.Stalls
		res.VolumeHealth = vol.Health().String()
		res.VolumeHealthReason = vol.HealthReason()
	}

	out, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, out, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(out)
	}
	fmt.Fprintf(os.Stderr, "soak: %d ops in %.1fs = %.0f ops/s; p50=%.0fµs p99=%.0fµs p99.9=%.0fµs; errors=%d proto=%d\n",
		res.Ops, res.DurationS, res.Throughput, res.P50us, res.P99us, res.P999us, res.Errors, res.ProtocolErrors)

	if srv != nil {
		srv.Close()
		if err := vol.Shutdown(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	if res.ProtocolErrors > 0 {
		return fmt.Errorf("%d protocol errors", res.ProtocolErrors)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d operations failed (%d differ from what was written, %d others with an internal error), first: %s",
			res.Errors, res.Mismatches, res.InternalErrors, strings.Join(res.ErrorSamples, "; "))
	}
	if res.VolumeHealth != "" && res.VolumeHealth != "healthy" {
		return fmt.Errorf("volume degraded to %s: %s", res.VolumeHealth, res.VolumeHealthReason)
	}
	return nil
}

// soakClient is one simulated client: a private namespace of files and a
// working set of the files it has created, with what it wrote to each.
type soakClient struct {
	id    int
	rng   *rand.Rand
	cl    *client.Client
	files []soakFile
	n     int
}

// errDiffers marks a read or stat that differs from what its client wrote.
var errDiffers = errors.New("differs from what was written")

// soakFile is a file of a client's working set: its size and the CRC-32 of
// its bytes, as the client wrote them.
type soakFile struct {
	name string
	size uint64
	crc  uint32
}

// check fails if a file of size bytes, whose bytes are buf if buf is not
// nil, is not what the client wrote to f.
func (f *soakFile) check(size uint64, buf []byte) error {
	if size != f.size {
		return fmt.Errorf("%s: %w (%d bytes, want %d)", f.name, errDiffers, size, f.size)
	}
	if crc := crc32.ChecksumIEEE(buf); buf != nil && crc != f.crc {
		return fmt.Errorf("%s: %w (crc %08x, want %08x)", f.name, errDiffers, crc, f.crc)
	}
	return nil
}

func (c *soakClient) pickOp(weights [opCount]int, total int) int {
	// Ops that need an existing file degrade to create while the working
	// set is empty.
	r := c.rng.Intn(total)
	for op, w := range weights {
		if r < w {
			if len(c.files) == 0 && (op == opRead || op == opWrite || op == opStat || op == opDelete) {
				return opCreate
			}
			return op
		}
		r -= w
	}
	return opCreate
}

func (c *soakClient) randFile() *soakFile { return &c.files[c.rng.Intn(len(c.files))] }

// payload returns 256 to 2047 bytes of the client's random stream.
func (c *soakClient) payload() []byte {
	p := make([]byte, 256+c.rng.Intn(1792))
	c.rng.Read(p)
	return p
}

func (c *soakClient) do(op int) error {
	ctx := ctxTODO
	switch op {
	case opCreate:
		f := soakFile{name: fmt.Sprintf("soak/c%d/f%d", c.id, c.n)}
		c.n++
		payload := c.payload()
		h, err := c.cl.Create(ctx, f.name, payload)
		if err != nil {
			return err
		}
		f.size, f.crc = uint64(len(payload)), crc32.ChecksumIEEE(payload)
		if len(c.files) < 8 {
			c.files = append(c.files, f)
		} else {
			c.files[c.rng.Intn(len(c.files))] = f
		}
		return h.Close()
	case opRead:
		f := c.randFile()
		h, err := c.cl.Open(ctx, f.name, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, h.Info().ByteSize)
		_, err = h.ReadAt(ctx, buf, 0)
		if cerr := h.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = f.check(uint64(len(buf)), buf)
		}
		return err
	case opWrite:
		f := c.randFile()
		h, err := c.cl.Open(ctx, f.name, 0)
		if err != nil {
			return err
		}
		if err := f.check(h.Info().ByteSize, nil); err != nil {
			h.Close()
			return err
		}
		chunk := c.payload()
		_, _, err = h.WriteAt(ctx, chunk, int64(f.size))
		if cerr := h.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			f.size += uint64(len(chunk))
			f.crc = crc32.Update(f.crc, crc32.IEEETable, chunk)
		}
		return err
	case opStat:
		f := c.randFile()
		info, err := c.cl.Stat(ctx, f.name, 0)
		if err == nil {
			err = f.check(info.ByteSize, nil)
		}
		return err
	case opList:
		_, err := c.cl.List(ctx, fmt.Sprintf("soak/c%d/", c.id))
		return err
	case opDelete:
		i := c.rng.Intn(len(c.files))
		name := c.files[i].name
		c.files = append(c.files[:i], c.files[i+1:]...)
		return c.cl.Delete(ctxTODO, name, 0)
	case opForce:
		_, err := c.cl.Force(ctx)
		return err
	case opWait:
		return c.cl.WaitCommitted(ctx, c.cl.LastCommitSeq())
	}
	return nil
}

var ctxTODO = context.Background()
