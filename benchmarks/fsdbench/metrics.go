package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// A metric is one published number. Clock says what it was measured
// against: "wall" (this machine's real time), "sim" (the virtual clock:
// disk geometry plus calibrated CPU charges) or "count" (a counter or a
// ratio of counters, no time in it).
type metric struct {
	Name   string
	Unit   string
	Clock  string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd is the gated set, the same names on every workload. Bounds come
// from the A/A tables in ../README.md: about three times the widest spread
// (IQR / median over ten seeds) any workload showed, floored. The sim and
// count metrics are the gates. Of the wall-clock ones only setup_s is here,
// because the driver's contract wants it; the other four (wallUngated)
// spread by 0.04-0.07 between runs of identical code on this class of host,
// three times which is past the 0.10 a wall bound may be, so they are
// measured on every run but published in the per-layer set, without a bound.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Clock: "wall", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Clock: "count", Better: "lower", Bound: 0.05},
	{Name: "rss_peak_mb", Unit: "MB", Clock: "count", Better: "lower", Bound: 0.10},
	{Name: "ok_ratio", Unit: "ratio", Clock: "count", Better: "higher", Bound: 0},
	{Name: "sim_ms_per_op", Unit: "ms", Clock: "sim", Better: "lower", Bound: 0.05},
	{Name: "disk_ios_per_op", Unit: "ops", Clock: "count", Better: "lower", Bound: 0.05},
	{Name: "write_amp", Unit: "ratio", Clock: "count", Better: "lower", Bound: 0.03},
	{Name: "recover_sim_s", Unit: "s", Clock: "sim", Better: "lower", Bound: 0.15},
}

func layer(clock, better, unit, moves string, names ...string) []metric {
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{Name: n, Unit: unit, Clock: clock, Better: better, Moves: moves}
	}
	return out
}

// perLayer is the traced run's set. Moves is the prediction the README
// repeats: which end-to-end number a change in this one should show up in.
var perLayer = concat(
	// client
	layer("wall", "lower", "us", "wall_p50_us, wall_ops_per_s, cpu_us_per_op on remote-meta",
		"client.rtt_p50_us", "client.transport_us_per_op", "client.open8k_p50_us", "client.open8k_p99_us", "client.open8k_late_max_us"),
	layer("count", "lower", "count", "ok_ratio on the remote workloads", "client.protocol_errors"),
	// wire
	layer("wall", "lower", "ns", "cpu_us_per_op on remote-meta; wall_ops_per_s on remote-data",
		"wire.encode_req_ns", "wire.decode_req_ns", "wire.encode_reply_ns", "wire.decode_reply_ns"),
	layer("count", "lower", "count", "alloc_kb_per_op on remote-meta", "wire.allocs_per_msg"),
	layer("count", "lower", "bytes", "wall_ops_per_s on remote-data", "wire.bytes_per_op"),
	// server
	layer("count", "lower", "count", "wall_ops_per_s, cpu_us_per_op on remote-meta",
		"server.conn_reads_per_op", "server.conn_writes_per_op"),
	layer("count", "higher", "count", "wall_ops_per_s on the remote workloads", "server.requests"),
	layer("count", "lower", "count", "ok_ratio, wall_tail_us on the remote workloads", "server.errors", "server.stalls"),
	layer("wall", "lower", "us", "wall_p50_us on remote-meta", "server.stub_rtt_us"),
	// fsadapter
	layer("wall", "lower", "us", "the non-transport share of wall_p50_us on the remote workloads",
		"fsadapter.stat_us", "fsadapter.open_us", "fsadapter.read_us", "fsadapter.write_us", "fsadapter.create_us",
		"fsadapter.delete_us", "fsadapter.list_us", "fsadapter.force_us", "fsadapter.wait_us"),
	// intentq
	layer("count", "lower", "count", "wall_tail_us on remote-meta", "intentq.max_depth", "intentq.reader_waits_per_kop"),
	layer("sim", "lower", "ms", "sim_ms_per_op, wall_tail_us on remote-meta", "intentq.apply_lag_p50_sim_ms"),
	layer("sim", "lower", "ratio", "sim_ms_per_op on remote-meta", "intentq.applier_busy_share"),
	layer("wall", "lower", "ns", "cpu_us_per_op on remote-meta", "intentq.enqueue_apply_ns"),
	// core
	layer("sim", "lower", "ms", "sim_ms_per_op on paper-mix and remote-meta",
		"core.create_sim_ms", "core.open_sim_ms", "core.stat_sim_ms", "core.delete_sim_ms", "core.list_sim_ms",
		"core.read_sim_ms", "core.write_sim_ms", "core.force_sim_ms", "core.lockwait_sim_ms"),
	layer("count", "higher", "ratio", "disk_ios_per_op on paper-mix and remote-meta", "core.ntcache_hit_ratio"),
	layer("wall", "higher", "ratio", "wall_ops_per_s on remote-meta", "core.round_drift_ratio"),
	// btree
	layer("wall", "lower", "ns", "cpu_us_per_op on remote-meta",
		"btree.get_ns", "btree.put_ns", "btree.delete_ns", "btree.scan_ns_per_entry"),
	layer("count", "lower", "count", "disk_ios_per_op on paper-mix via name-table misses", "btree.height"),
	layer("count", "lower", "pages", "disk_ios_per_op on paper-mix via name-table misses", "btree.pages_per_kentry"),
	// vam
	layer("wall", "lower", "ns", "cpu_us_per_op on remote-data and paper-mix creates", "vam.findrun_ns"),
	layer("count", "higher", "ratio", "vam.findrun_ns", "vam.free_ratio"),
	// bufcache
	layer("count", "higher", "ratio", "disk_ios_per_op, sim_ms_per_op, wall_ops_per_s on remote-data", "bufcache.hit_ratio"),
	layer("count", "lower", "count", "disk_ios_per_op on remote-data",
		"bufcache.evicted_per_kop", "bufcache.coalesced_reads_per_kop"),
	layer("count", "lower", "sectors", "disk_ios_per_op, sim_ms_per_op on remote-data", "bufcache.readahead_sectors_per_op"),
	layer("wall", "lower", "ns", "wall_ops_per_s on remote-data", "bufcache.get_hit_ns", "bufcache.put_evict_ns"),
	// wal
	layer("count", "lower", "count", "disk_ios_per_op, write_amp on remote-meta and paper-mix", "wal.forces_per_kop", "wal.third_crossings"),
	layer("count", "higher", "ratio", "write_amp on remote-meta and paper-mix", "wal.batching_factor", "wal.elided_ratio"),
	layer("count", "lower", "sectors", "write_amp, recover_sim_s on remote-meta and paper-mix", "wal.sectors_per_force"),
	layer("sim", "higher", "ms", "disk_ios_per_op on remote-meta", "wal.force_interval_p50_sim_ms"),
	layer("wall", "lower", "ns", "cpu_us_per_op on remote-meta", "wal.append_ns"),
	layer("wall", "lower", "us", "wall_tail_us on remote-meta", "wal.force_wall_us"),
	// disk / sim
	layer("count", "lower", "ops", "disk_ios_per_op, sim_ms_per_op everywhere", "disk.reads_per_op", "disk.writes_per_op",
		"disk.seeks_per_op", "disk.lost_revs_per_op", "disk.mergeable_per_op"),
	layer("count", "lower", "sectors", "write_amp, sim_ms_per_op everywhere", "disk.sectors_read_per_op", "disk.sectors_written_per_op"),
	layer("sim", "lower", "ratio", "sim_ms_per_op everywhere (device side)", "disk.busy_share"),
	layer("sim", "lower", "ratio", "sim_ms_per_op everywhere (CPU side)", "sim.cpu_share"),
	layer("wall", "lower", "ns", "wall_ops_per_s on remote-data", "disk.op_wall_ns"),
	// parscan / check passes
	layer("sim", "lower", "s", "sim_ms_per_op, recover_sim_s on check-repair",
		"mount_sim_s", "verify_sim_s", "scrub_sim_s", "salvage_sim_s"),
	layer("wall", "lower", "ms", "wall_ops_per_s, wall_p50_us on check-repair",
		"mount_wall_ms", "verify_wall_ms", "scrub_wall_ms", "salvage_wall_ms"),
	layer("count", "lower", "count", "wall_ops_per_s on check-repair", "parscan.steals"),
	layer("wall", "lower", "ns", "wall_ops_per_s on check-repair", "parscan.chunk_overhead_ns"),
	// runtime / harness
	layer("count", "lower", "count", "alloc_kb_per_op, wall_tail_us on the remote workloads", "go.allocs_per_op", "go.gc_cycles_per_kop"),
	layer("wall", "lower", "ms", "wall_tail_us on the remote workloads", "go.gc_pause_total_ms"),
	layer("wall", "lower", "ratio", "how far traced numbers sit above untraced ones", "trace.overhead_ratio"),
	wallUngated,
)

// wallUngated is the wall-clock user-visible set: what the end-to-end table
// would hold if this class of host could repeat them within 0.10.
var wallUngated = []metric{
	{Name: "wall_ops_per_s", Unit: "ops/s", Clock: "wall", Better: "higher", Moves: "itself: user-visible, too noisy on this class of host to gate"},
	{Name: "wall_p50_us", Unit: "us", Clock: "wall", Better: "lower", Moves: "itself: user-visible, too noisy to gate"},
	{Name: "wall_tail_us", Unit: "us", Clock: "wall", Better: "lower", Moves: "itself: user-visible, too noisy to gate"},
	{Name: "cpu_us_per_op", Unit: "us", Clock: "wall", Better: "lower", Moves: "itself: user-visible, too noisy to gate"},
}

func concat(parts ...[]metric) []metric {
	var out []metric
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json).
var workloadWhy = []struct{ Name, Why string }{
	{"remote-meta", "small-file metadata mix over loopback TCP: wire, server, client, intentq and btree do the work, the data path almost none"},
	{"remote-data", "96 MB cold set against a 1 MB cache plus a hot set that fits: frame copies, bufcache and disk transfer dominate, metadata is minor"},
	{"paper-mix", "the paper's own create/list/read/bulk-update/MakeDo cycles on one goroutine, no transport: bypasses wire, server, client, intentq and bufcache"},
	{"check-repair", "crash, mount, verify, scrub and salvage passes: parscan, WAL replay and VAM rebuild do the work, the foreground path none"},
}

// results collects metric values by name; a name set twice is a bug.
type results map[string]float64

func (r results) set(name string, v float64) {
	if _, dup := r[name]; dup {
		panic("fsdbench: metric set twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what one run of one workload produced.
type outcome struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string // correctness violations, first few
	Metrics   results
	Notes     []string // sample counts and other context printed with the table
	TraceFile string   // traced runs: where the trace was written
	Inputs    uint32   // fingerprint of the model at the end of the measured part
}

func (o *outcome) problem(format string, args ...interface{}) {
	o.Failed++
	if len(o.Problems) < 12 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// printTable writes every metric of defs by name with unit and clock; a
// metric the workload did not produce is an error for end-to-end metrics
// and zero for per-layer ones (the layer is bypassed on that workload).
func printTable(w io.Writer, o *outcome, defs []metric, strict bool) error {
	fmt.Fprintf(w, "%-36s %16s  %-8s %-6s\n", "metric ("+o.Workload+")", "value", "unit", "clock")
	for _, m := range defs {
		v, ok := o.Metrics[m.Name]
		if !ok && strict {
			return fmt.Errorf("workload %s produced no %s", o.Workload, m.Name)
		}
		fmt.Fprintf(w, "%-36s %16.6f  %-8s %-6s\n", m.Name, v, m.Unit, m.Clock)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	return nil
}

// resultLine renders the last line of standard output the driver parses.
func resultLine(o *outcome, defs []metric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]mv{}}
	for _, m := range defs {
		out.Metrics[m.Name] = mv{o.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// benchmarkJSON renders BENCHMARK.json from the catalogue, so the file at
// the repo root can never name a metric the harness does not emit.
func benchmarkJSON(runSeconds int) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, pl{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// --- small statistics ---

// quantile returns the q-quantile (nearest rank) of vs; vs is sorted in
// place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

func median(vs []float64) float64 {
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
