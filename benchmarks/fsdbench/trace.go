package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
)

// Tracing is done from outside the program under test: a timing decorator
// around any cedarfs.FS (used twice — around the client the load drives,
// and around the adapter handed to server.New) and a counting net.Listener
// under srv.Serve. Spans stay in memory until the run ends.

type callKind uint8

const (
	callOpen callKind = iota
	callCreate
	callStat
	callList
	callRename
	callDelete
	callSetKeep
	callForce
	callWait
	callStats
	callRead
	callWrite
	callClose
	numCalls
)

var callNames = [numCalls]string{"open", "create", "stat", "list", "rename", "delete", "setkeep",
	"force", "wait", "stats", "read", "write", "close"}

// span is one timed call at one layer boundary; start is nanoseconds since
// the sink's epoch.
type span struct {
	start int64
	dur   int64
	n     int32 // payload bytes (create, read, write) or entries (list)
	kind  callKind
}

// spanSink holds one layer's spans. on gates recording, so the same wiring
// serves the traced rounds and the untraced ones that price the tracing.
type spanSink struct {
	layer string
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newSink(layer string, epoch time.Time) *spanSink {
	return &spanSink{layer: layer, epoch: epoch}
}

func (s *spanSink) begin() (time.Time, bool) {
	if !s.on.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (s *spanSink) end(k callKind, t0 time.Time, ok bool, n int) {
	if ok {
		s.add(k, t0, time.Since(t0), n)
	}
}

func (s *spanSink) add(k callKind, t0 time.Time, d time.Duration, n int) {
	s.mu.Lock()
	s.spans = append(s.spans, span{start: int64(t0.Sub(s.epoch)), dur: int64(d), n: int32(n), kind: k})
	s.mu.Unlock()
}

func (s *spanSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans)
}

// total returns the summed duration and the count of all spans.
func (s *spanSink) total() (sum int64, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.spans {
		sum += sp.dur
	}
	return sum, len(s.spans)
}

// kindStats is one call kind's share of a sink.
type kindStats struct {
	count  int
	meanUs float64
	meanN  int // mean payload bytes or list entries
}

func (s *spanSink) byKind() [numCalls]kindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [numCalls]kindStats
	var dur, n [numCalls]int64
	for _, sp := range s.spans {
		dur[sp.kind] += sp.dur
		n[sp.kind] += int64(sp.n)
		out[sp.kind].count++
	}
	for k := range out {
		if c := int64(out[k].count); c > 0 {
			out[k].meanUs = float64(dur[k]) / float64(c) / 1e3
			out[k].meanN = int(n[k] / c)
		}
	}
	return out
}

// spanFS decorates a cedarfs.FS. It forwards the optional fast-path
// methods the server probes for (IntentDepth, CommitSeq), so wrapping the
// adapter does not change which code the server runs.
type spanFS struct {
	inner cedarfs.FS
	sink  *spanSink
	depth interface{ IntentDepth() int }
	seq   interface{ CommitSeq() uint64 }
}

func newSpanFS(inner cedarfs.FS, sink *spanSink) *spanFS {
	f := &spanFS{inner: inner, sink: sink}
	f.depth, _ = inner.(interface{ IntentDepth() int })
	f.seq, _ = inner.(interface{ CommitSeq() uint64 })
	return f
}

func (f *spanFS) IntentDepth() int {
	if f.depth == nil {
		return 0
	}
	return f.depth.IntentDepth()
}

func (f *spanFS) CommitSeq() uint64 {
	if f.seq == nil {
		return 0
	}
	return f.seq.CommitSeq()
}

func (f *spanFS) Open(ctx context.Context, name string, version uint32) (cedarfs.Handle, error) {
	t0, ok := f.sink.begin()
	h, err := f.inner.Open(ctx, name, version)
	f.sink.end(callOpen, t0, ok, 0)
	if err != nil {
		return nil, err
	}
	return &spanHandle{h, f.sink}, nil
}

func (f *spanFS) Create(ctx context.Context, name string, data []byte) (cedarfs.Handle, error) {
	t0, ok := f.sink.begin()
	h, err := f.inner.Create(ctx, name, data)
	f.sink.end(callCreate, t0, ok, len(data))
	if err != nil {
		return nil, err
	}
	return &spanHandle{h, f.sink}, nil
}

func (f *spanFS) Stat(ctx context.Context, name string, version uint32) (cedarfs.FileInfo, error) {
	t0, ok := f.sink.begin()
	defer f.sink.end(callStat, t0, ok, 0)
	return f.inner.Stat(ctx, name, version)
}

func (f *spanFS) List(ctx context.Context, prefix string) ([]cedarfs.FileInfo, error) {
	t0, ok := f.sink.begin()
	infos, err := f.inner.List(ctx, prefix)
	f.sink.end(callList, t0, ok, len(infos))
	return infos, err
}

func (f *spanFS) Rename(ctx context.Context, oldName, newName string) error {
	t0, ok := f.sink.begin()
	defer f.sink.end(callRename, t0, ok, 0)
	return f.inner.Rename(ctx, oldName, newName)
}

func (f *spanFS) Delete(ctx context.Context, name string, version uint32) error {
	t0, ok := f.sink.begin()
	defer f.sink.end(callDelete, t0, ok, 0)
	return f.inner.Delete(ctx, name, version)
}

func (f *spanFS) SetKeep(ctx context.Context, name string, keep uint16) error {
	t0, ok := f.sink.begin()
	defer f.sink.end(callSetKeep, t0, ok, 0)
	return f.inner.SetKeep(ctx, name, keep)
}

func (f *spanFS) Force(ctx context.Context) (uint64, error) {
	t0, ok := f.sink.begin()
	defer f.sink.end(callForce, t0, ok, 0)
	return f.inner.Force(ctx)
}

func (f *spanFS) WaitCommitted(ctx context.Context, seq uint64) error {
	t0, ok := f.sink.begin()
	defer f.sink.end(callWait, t0, ok, 0)
	return f.inner.WaitCommitted(ctx, seq)
}

func (f *spanFS) Stats(ctx context.Context) (cedarfs.FSStats, error) {
	t0, ok := f.sink.begin()
	defer f.sink.end(callStats, t0, ok, 0)
	return f.inner.Stats(ctx)
}

func (f *spanFS) Close() error { return f.inner.Close() }

type spanHandle struct {
	inner cedarfs.Handle
	sink  *spanSink
}

func (h *spanHandle) Info() cedarfs.FileInfo { return h.inner.Info() }

func (h *spanHandle) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	t0, ok := h.sink.begin()
	n, err := h.inner.ReadAt(ctx, p, off)
	h.sink.end(callRead, t0, ok, n)
	return n, err
}

func (h *spanHandle) WriteAt(ctx context.Context, p []byte, off int64) (int, uint64, error) {
	t0, ok := h.sink.begin()
	defer h.sink.end(callWrite, t0, ok, len(p))
	return h.inner.WriteAt(ctx, p, off)
}

func (h *spanHandle) Close() error {
	t0, ok := h.sink.begin()
	defer h.sink.end(callClose, t0, ok, 0)
	return h.inner.Close()
}

// countingListener counts socket reads, writes and bytes of every
// accepted connection: the server's syscalls per operation.
type countingListener struct {
	net.Listener
	reads, writes, bytesIn, bytesOut atomic.Int64
}

// netCounts is a snapshot of a countingListener.
type netCounts struct{ reads, writes, bytes int64 }

func (a netCounts) sub(b netCounts) netCounts {
	return netCounts{a.reads - b.reads, a.writes - b.writes, a.bytes - b.bytes}
}

// snapshot reads the counters; a nil listener (untraced run) reads zero.
func (l *countingListener) snapshot() netCounts {
	if l == nil {
		return netCounts{}
	}
	return netCounts{l.reads.Load(), l.writes.Load(), l.bytesIn.Load() + l.bytesOut.Load()}
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{c, l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	c.l.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.bytesOut.Add(int64(n))
	return n, err
}

// --- trace file ---

// traceSpan is a span as written to the trace file. Parent is the index
// (within the same sample) of the span that caused it, -1 for a root;
// SelfUs is its duration minus the part its children cover.
type traceSpan struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"`
	Parent  int     `json:"parent"`
}

type layerSummary struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	Clock  string  `json:"clock"`
}

type roundRecord struct {
	Phase    string  `json:"phase"`
	Round    int     `json:"round"`
	Traced   bool    `json:"traced"`
	Ops      int     `json:"ops"`
	WallS    float64 `json:"wall_s"`
	OpsPerS  float64 `json:"ops_per_s"`
	P50Us    float64 `json:"p50_us"`
	TailUs   float64 `json:"tail_us"`
	SimS     float64 `json:"sim_s,omitempty"`
	TailRank string  `json:"tail_rank,omitempty"`
}

// traceFile is benchmarks/out/<workload>.trace.json. See ../README.md for
// how to read it.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Rounds   []roundRecord      `json:"rounds"`
	Summary  []layerSummary     `json:"summary"`
	Account  map[string]float64 `json:"account,omitempty"`
	Sample   []traceSpan        `json:"sample"`
	Metrics  map[string]float64 `json:"metrics"`
	Notes    []string           `json:"notes,omitempty"`
}

// sampleTrees links child spans to the parent span whose interval contains
// them. It is only sound where one operation is in flight at a time (the
// solo phase), which is where callers take the sample from.
func sampleTrees(parent, child *spanSink, from, limit int) []traceSpan {
	parent.mu.Lock()
	ps := append([]span(nil), parent.spans[from:]...)
	parent.mu.Unlock()
	if len(ps) > limit {
		ps = ps[:limit]
	}
	if len(ps) == 0 {
		return nil
	}
	lo, hi := ps[0].start, ps[len(ps)-1].start+ps[len(ps)-1].dur
	child.mu.Lock()
	var cs []span
	for _, c := range child.spans {
		if c.start >= lo && c.start+c.dur <= hi {
			cs = append(cs, c)
		}
	}
	child.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var out []traceSpan
	ci := 0
	for _, p := range ps {
		pi := len(out)
		out = append(out, traceSpan{Layer: parent.layer, Name: callNames[p.kind],
			StartUs: float64(p.start-lo) / 1e3, DurUs: float64(p.dur) / 1e3, Parent: -1})
		covered := int64(0)
		for ci < len(cs) && cs[ci].start < p.start {
			ci++
		}
		for ci < len(cs) && cs[ci].start+cs[ci].dur <= p.start+p.dur {
			c := cs[ci]
			out = append(out, traceSpan{Layer: child.layer, Name: callNames[c.kind],
				StartUs: float64(c.start-lo) / 1e3, DurUs: float64(c.dur) / 1e3, SelfUs: float64(c.dur) / 1e3, Parent: pi})
			covered += c.dur
			ci++
		}
		out[pi].SelfUs = float64(p.dur-covered) / 1e3
	}
	return out
}

// writeTrace writes tf under dir and returns the file's path.
func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
