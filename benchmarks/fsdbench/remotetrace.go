package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cedarfs "repro"
	"repro/internal/wire"
)

// traceMetrics turns a traced remote run into the per-layer metrics that
// come from the decorators, the counting listener and counter deltas, and
// starts the trace file.
func (e *remoteEnv) traceMetrics(o runOpts, out *outcome, sat, solo []roundResult, w window, ops, soloMark int, net netCounts) *traceFile {
	m := out.Metrics
	layerDeltas(m, w, ops)

	// Traced operations only: the untraced rounds recorded no spans.
	tracedOps, observedNs := 0, int64(0)
	for _, r := range append(pick(sat, true), pick(solo, true)...) {
		tracedOps += r.ops
		for _, l := range r.lat {
			observedNs += l
		}
	}
	clientNs, calls := e.clientSink.total()
	adapterNs, _ := e.adapterSink.total()
	m.set("client.transport_us_per_op", float64(clientNs-adapterNs)/1e3/float64(tracedOps))

	// One FS call is one round trip (reads and writes here stay under the
	// frame limit), so the solo phase's call spans are the RTT sample.
	e.clientSink.mu.Lock()
	var rtt []float64
	for _, sp := range e.clientSink.spans[soloMark:] {
		rtt = append(rtt, float64(sp.dur)/1e3)
	}
	e.clientSink.mu.Unlock()
	m.set("client.rtt_p50_us", quantile(rtt, 0.5))

	ad := e.adapterSink.byKind()
	for name, k := range map[string]callKind{"stat": callStat, "open": callOpen, "read": callRead, "write": callWrite,
		"create": callCreate, "delete": callDelete, "list": callList, "force": callForce, "wait": callWait} {
		m.set("fsadapter."+name+"_us", ad[k].meanUs)
	}

	// The listener counts every round of the measured part, recording or not.
	m.set("server.conn_reads_per_op", float64(net.reads)/float64(ops))
	m.set("server.conn_writes_per_op", float64(net.writes)/float64(ops))
	m.set("wire.bytes_per_op", float64(net.bytes)/float64(ops))

	first, last := pick(sat, true)[0], pick(sat, true)[len(pick(sat, true))-1]
	m.set("core.round_drift_ratio", last.opsPerS()/first.opsPerS())
	m.set("trace.overhead_ratio", overheadRatio(sat))

	tf := &traceFile{Workload: o.workload, Seed: o.seed}
	cl := e.clientSink.byKind()
	for k := callKind(0); k < numCalls; k++ {
		if cl[k].count > 0 {
			tf.Summary = append(tf.Summary, layerSummary{"client", callNames[k], cl[k].count, cl[k].meanUs, "wall"})
		}
	}
	for k := callKind(0); k < numCalls; k++ {
		if ad[k].count > 0 {
			tf.Summary = append(tf.Summary, layerSummary{"fsadapter", callNames[k], ad[k].count, ad[k].meanUs, "wall"})
		}
	}
	clientMean := float64(clientNs) / 1e3 / float64(tracedOps)
	adapterMean := float64(adapterNs) / 1e3 / float64(tracedOps)
	tf.Account = map[string]float64{
		"client_span_us_per_op":      clientMean,
		"fsadapter_span_us_per_op":   adapterMean,
		"client_transport_us_per_op": clientMean - adapterMean,
		"calls_per_op":               float64(calls) / float64(tracedOps),
		// What the load generator saw per operation, and how much of it
		// the two span layers explain; the rest is the harness's own
		// bookkeeping between calls.
		"observed_us_per_op": float64(observedNs) / 1e3 / float64(tracedOps),
		"accounted_share":    clientMean / (float64(observedNs) / 1e3 / float64(tracedOps)),
	}
	tf.Sample = sampleTrees(e.clientSink, e.adapterSink, soloMark, 300)
	return tf
}

// wireMix rebuilds the request/reply mix the traced run put on the wire
// from the client decorator's call counts and mean payload sizes.
func (e *remoteEnv) wireMix() []wireMsg {
	ks := e.clientSink.byKind()
	name := "m/c0/d00/f000"
	info := cedarfs.FileInfo{Name: name, Version: 1, ByteSize: 1024, Pages: 2}
	blob := func(n int) []byte { return make([]byte, n) }
	infos := func(n int) []cedarfs.FileInfo {
		out := make([]cedarfs.FileInfo, n)
		for i := range out {
			out[i] = info
		}
		return out
	}
	mk := map[callKind]func(kindStats) (wire.Request, wire.Reply){
		callOpen: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpOpen, Name: name}, wire.Reply{Op: wire.OpOpen, Handle: 1, Info: info}
		},
		callCreate: func(k kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpCreate, Name: name, Data: blob(k.meanN)}, wire.Reply{Op: wire.OpCreate, Handle: 1, Info: info}
		},
		callStat: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpStat, Name: name}, wire.Reply{Op: wire.OpStat, Info: info}
		},
		callList: func(k kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpList, Name: "m/c0/d00/"}, wire.Reply{Op: wire.OpList, Infos: infos(k.meanN)}
		},
		callRename: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpRename, Name: name, Name2: name}, wire.Reply{Op: wire.OpRename}
		},
		callDelete: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpDelete, Name: name}, wire.Reply{Op: wire.OpDelete}
		},
		callSetKeep: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpSetKeep, Name: name, Keep: 2}, wire.Reply{Op: wire.OpSetKeep}
		},
		callForce: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpForce}, wire.Reply{Op: wire.OpForce, Seq: 1 << 20}
		},
		callWait: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpWaitCommitted, Seq: 1 << 20}, wire.Reply{Op: wire.OpWaitCommitted}
		},
		callRead: func(k kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpRead, Handle: 1, N: uint32(k.meanN)}, wire.Reply{Op: wire.OpRead, Data: blob(k.meanN)}
		},
		callWrite: func(k kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpWrite, Handle: 1, Data: blob(k.meanN)}, wire.Reply{Op: wire.OpWrite, N: uint32(k.meanN)}
		},
		callClose: func(kindStats) (wire.Request, wire.Reply) {
			return wire.Request{Op: wire.OpCloseHandle, Handle: 1}, wire.Reply{Op: wire.OpCloseHandle}
		},
	}
	var mix []wireMsg
	for k := callKind(0); k < numCalls; k++ {
		if f, ok := mk[k]; ok && ks[k].count > 0 {
			q, p := f(ks[k])
			q.ID, p.ID, p.CommitSeq = 7, 7, 1<<20
			mix = append(mix, wireMsg{weight: ks[k].count, req: q, rep: p})
		}
	}
	return mix
}

// openLoop is the report-only open-loop probe: one pacer issues stats at a
// fixed rate whether or not earlier ones have answered, each latency is
// timed from the moment the request was due, and the generator's own
// lateness is reported. At most maxOut requests are outstanding; a request
// due while all are busy is counted as overflow (a failure of the offered
// rate, not of the benchmark).
func openLoop(fs cedarfs.FS, names []string, rate int, dur time.Duration, maxOut int) (p50us, p99us, lateMaxUs float64, sent, overflow int) {
	type job struct {
		due  time.Time
		name string
	}
	jobs := make(chan job) // unbuffered: a send succeeds only if one of the maxOut workers is idle
	var mu sync.Mutex
	var lats []float64
	var lateMax atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxOut; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for j := range jobs {
				if late := int64(time.Since(j.due)); late > lateMax.Load() {
					lateMax.Store(late) // racy max is fine for a report-only figure
				}
				fs.Stat(bg, j.name, 0)
				mine = append(mine, float64(time.Since(j.due))/1e3)
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	total := int(dur.Seconds() * float64(rate))
	gap := time.Second / time.Duration(rate)
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case jobs <- job{due, names[i%len(names)]}:
			sent++
		default:
			overflow++
		}
	}
	close(jobs)
	wg.Wait()
	return quantile(lats, 0.5), quantile(lats, 0.99), float64(lateMax.Load()) / 1e3, sent, overflow
}

func (e *remoteEnv) openLoopProbe(o runOpts, out *outcome) {
	m := out.Metrics
	mc, ok := e.clients[0].(*metaClient)
	if !ok {
		return // remote-meta only
	}
	var names []string
	for i := range mc.names {
		names = append(names, mc.cur(i))
	}
	dur := 6 * time.Second
	if o.tiny {
		dur = 100 * time.Millisecond
	}
	p50, p99, late, sent, overflow := openLoop(e.cl, names, 8000, dur, 256)
	m.set("client.open8k_p50_us", p50)
	m.set("client.open8k_p99_us", p99)
	m.set("client.open8k_late_max_us", late)
	out.Notes = append(out.Notes, fmt.Sprintf("open loop: 8000 stat/s for %v, %d sent, %d overflowed (more than 256 outstanding), report-only", dur, sent, overflow))
}
