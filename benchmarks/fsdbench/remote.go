package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	cedarfs "repro"
	"repro/client"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/sim"
)

// The two remote workloads share one shape: a volume served over loopback
// TCP, a saturation phase of 2 connections x 4 closed-loop logical clients
// each, then a solo phase of 1 connection with 1 operation in flight.

const (
	satConns   = 2
	satClients = 8
)

// remoteSizing holds the frozen operation counts of one remote workload,
// per --seconds second. They were calibrated once on 2 cores so that the
// saturation phase takes about 60 % of --seconds and the solo phase the
// rest; see ../README.md.
type remoteSizing struct {
	satOpsPerSec  int // saturation phase, all clients together
	soloOpsPerSec int
	warmupOps     int // per client, the warm-up pass that is part of set-up
	// settleOps, per client, run once on the image the run uses, after
	// set-up and before the measured part. A freshly mounted volume takes
	// tens of thousands of operations to reach the miss rate it then
	// holds; paying that three times inside set-up would double the run.
	settleOps int
}

var (
	remoteMetaSizing = remoteSizing{satOpsPerSec: 15300, soloOpsPerSec: 8000, warmupOps: 500, settleOps: 8000}
	remoteDataSizing = remoteSizing{satOpsPerSec: 1400, soloOpsPerSec: 500, warmupOps: 100, settleOps: 300}
)

type remoteEnv struct {
	cfg     cedarfs.Config
	d       *disk.Disk
	clk     *sim.VirtualClock
	vol     *cedarfs.Volume
	srv     *server.Server
	addr    string
	ln      *countingListener // nil unless tracing
	cl      *client.Client
	clients []loadClient
	tail    *metaClient
	extra   []*model // models of shared, read-only files

	// traced invocations only
	clientSink, adapterSink *spanSink
}

func (e *remoteEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.vol != nil {
		e.vol.Crash()
	}
}

func (e *remoteEnv) models() *model {
	ms := append([]*model(nil), e.extra...)
	for _, c := range e.clients {
		ms = append(ms, c.stats().m)
	}
	return merged(ms...)
}

func (e *remoteEnv) setTrace(on bool) {
	if e.clientSink != nil {
		e.clientSink.on.Store(on)
		e.adapterSink.on.Store(on)
	}
}

// fsFor returns what the load drives: the client, decorated when tracing.
func (e *remoteEnv) fsFor(cl *client.Client) cedarfs.FS {
	if e.clientSink != nil {
		return newSpanFS(cl, e.clientSink)
	}
	return cl
}

// retarget points every logical client at fs.
func (e *remoteEnv) retarget(fs cedarfs.FS, ackSeq func() uint64) {
	for _, c := range e.clients {
		switch c := c.(type) {
		case *metaClient:
			c.fs, c.ackSeq = fs, ackSeq
		case *dataClient:
			c.fs = fs
		}
	}
}

// buildRemote is one set-up: format, populate straight on the volume,
// force, shut down, mount, listen, dial, and one warm-up pass through the
// network.
func buildRemote(o runOpts, sz remoteSizing) (*remoteEnv, error) {
	e := &remoteEnv{cfg: pinned(cedarfs.Config{AsyncApply: true, AdaptiveCommit: true})}
	var err error
	if e.d, e.clk, err = newDisk(disk.DefaultGeometry); err != nil {
		return nil, err
	}
	vol, err := cedarfs.Format(e.d, e.cfg)
	if err != nil {
		return nil, err
	}
	local := cedarfs.NewLocalFS(vol)
	pool := newPool(o.seed, 4<<20)
	switch o.workload {
	case "remote-meta":
		dirs, perDir := 40, 38 // 8 x 1,520 = 12,160 small files, list prefixes of 38
		if o.tiny {
			dirs, perDir = 2, 16
		}
		for i := 0; i < satClients; i++ {
			c := newMetaClient(local, vol.CommitSeq, fmt.Sprintf("m/c%d", i), o.seed*1000+int64(i), pool, remoteMetaMix, dirs, perDir)
			c.unbalanced = o.unbalanced
			c.populate()
			e.clients = append(e.clients, c)
		}
	case "remote-data":
		cold, rewrite, inplace, hot := 150, 19, 8, 8 // 8 x 150 cold files of 16-256 KB: about 100 MB
		if o.tiny {
			cold, rewrite, inplace, hot = 6, 2, 2, 2
		}
		hc := newDataClient(local, "d/hot", o.seed*1000+99, pool, 0, 0, 0, nil)
		for i := 0; i < hot; i++ {
			f := dataFile{name: fmt.Sprintf("d/hot/h%02d", i)}
			hc.stream(&f, cut(pool, hc.rng, hotSize))
			hc.hot = append(hc.hot, f)
		}
		if hc.failed > 0 {
			return nil, fmt.Errorf("populate hot set: %v", hc.problems)
		}
		e.extra = append(e.extra, hc.m)
		for i := 0; i < satClients; i++ {
			c := newDataClient(local, fmt.Sprintf("d/c%d", i), o.seed*1000+int64(i), pool, cold, rewrite, inplace, hc.hot)
			c.populate()
			e.clients = append(e.clients, c)
		}
	}
	e.tail = newTail(o.seed, pool, o.tiny, e.cfg.AsyncApply)
	e.tail.attach(vol)
	e.tail.populate()
	for _, c := range append(e.clients[:len(e.clients):len(e.clients)], e.tail) {
		if s := c.stats(); s.failed > 0 {
			return nil, fmt.Errorf("populate: %v", s.problems)
		}
	}
	if err := vol.Force(); err != nil {
		return nil, err
	}
	if err := vol.Shutdown(); err != nil {
		return nil, err
	}
	if e.vol, _, err = cedarfs.Mount(e.d, e.cfg); err != nil {
		return nil, err
	}

	var fs cedarfs.FS = cedarfs.NewLocalFS(e.vol)
	if o.traced {
		epoch := time.Now()
		e.clientSink, e.adapterSink = newSink("client", epoch), newSink("fsadapter", epoch)
		fs = newSpanFS(fs, e.adapterSink)
	}
	e.srv = server.New(fs, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	if o.traced {
		e.ln = &countingListener{Listener: ln}
		ln = e.ln
	}
	go e.srv.Serve(ln)
	if err := e.dial(satConns); err != nil {
		e.srv.Close()
		return nil, err
	}
	for _, c := range e.clients {
		c.warm()
	}
	runRounds(e.clients, sz.warmupOps, []bool{false}, 16, e.clk, e.setTrace)
	return e, nil
}

// dial replaces the connection pool with one of n connections and points
// every logical client at it, so at most n connections exist at a time.
func (e *remoteEnv) dial(n int) error {
	if e.cl != nil {
		e.cl.Close()
	}
	var err error
	if e.cl, err = client.Dial(e.addr, client.Options{Conns: n}); err != nil {
		return err
	}
	e.retarget(e.fsFor(e.cl), e.cl.LastCommitSeq)
	return nil
}

// runRemote is the measured part and the end checks of a remote workload.
func runRemote(o runOpts, sz remoteSizing, opNames []string) (*outcome, error) {
	out := &outcome{Workload: o.workload, Metrics: results{}}
	if o.tiny {
		sz = remoteSizing{satOpsPerSec: sz.satOpsPerSec / 50, soloOpsPerSec: sz.soloOpsPerSec / 100, warmupOps: 10, settleOps: 10}
	}
	e, setupS, err := setupMedian(func() (*remoteEnv, error) { return buildRemote(o, sz) }, (*remoteEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	plan := roundPlan(o.traced)
	liveStart := len(e.models().files)

	runRounds(e.clients, sz.settleOps, []bool{false}, len(opNames), e.clk, e.setTrace)
	for _, c := range e.clients {
		c.stats().userBytes = 0 // count the measured part's writes only
	}

	// Saturation phase.
	satPerClient := max(sz.satOpsPerSec*o.seconds/measuredRounds/satClients, 4)
	runtime.GC()
	snap0, mem0, net0 := snapVolume(e.vol, e.clk), memStats(), e.ln.snapshot()
	sat := runRounds(e.clients, satPerClient, plan, len(opNames), e.clk, e.setTrace)
	mem1 := memStats()
	satOps := 0
	for _, r := range sat {
		satOps += r.ops
	}

	// Solo phase: the pool is closed and one connection dialled, so at most
	// nproc connections ever exist; client 0 continues alone.
	if err := e.dial(1); err != nil {
		return nil, err
	}
	soloMark := 0
	if e.clientSink != nil {
		soloMark = e.clientSink.len()
	}
	soloPerRound := max(sz.soloOpsPerSec*o.seconds/measuredRounds, 8)
	solo := runRounds(e.clients[:1], soloPerRound, plan, len(opNames), e.clk, e.setTrace)
	snap1, net1 := snapVolume(e.vol, e.clk), e.ln.snapshot()
	ops := satOps
	for _, r := range solo {
		ops += r.ops
	}
	out.Attempted = ops

	var userBytes int64
	for _, c := range e.clients {
		userBytes += c.stats().userBytes
	}

	m := out.Metrics
	// The wall metrics come from the rounds that ran with recording off:
	// all of an untraced invocation's, three of a traced one's.
	tput, _, tail, cpuUs := roundMedians(pick(sat, false), 0.99)
	_, p50, _, _ := roundMedians(pick(solo, false), 0.99)
	w := between(snap0, snap1)
	wallMetrics(out, setupS, tput, p50, tail, cpuUs)
	processMetrics(m, mem0, mem1, satOps)
	costMetrics(m, w, ops, userBytes)
	out.Notes = append(out.Notes,
		fmt.Sprintf("saturation: %d rounds x %d ops on %d connections x %d clients; tail is p99 of %d samples per round",
			len(sat), sat[0].ops, satConns, satClients/satConns, sat[0].ops),
		fmt.Sprintf("solo: %d rounds x %d ops, 1 connection, 1 in flight", len(solo), solo[0].ops),
		seriesNote("saturation", sat), seriesNote("solo", solo),
		"mix: "+kindsLine(opNames, sat, solo))

	// The pool again, for the open-loop probe and the read-back.
	if err := e.dial(satConns); err != nil {
		return nil, err
	}
	var tf *traceFile
	if o.traced {
		tf = e.traceMetrics(o, out, sat, solo, w, ops, soloMark, net1.sub(net0))
		tf.Rounds = append(roundRecords("saturation", sat, 0.99), roundRecords("solo", solo, 0.99)...)
		e.openLoopProbe(o, out)
	}

	// End checks. The read-back goes through the client, so the whole
	// stack serves it; the tail and recovery run on the volume directly.
	guardLive(out, liveStart, len(e.models().files))
	for _, c := range e.clients {
		collect(out, c.stats())
	}
	v2, err := finish(out, e.vol, e.d, e.cfg, e.cl, e.tail, e.models)
	protoErrs := e.cl.ProtocolErrors() + e.srv.Stats().ProtocolErrors
	if protoErrs > 0 {
		out.problem("%d protocol errors", protoErrs)
	}
	srvStats := e.srv.Stats()
	e.cl.Close()
	e.srv.Close()
	e.cl, e.srv, e.vol = nil, nil, nil
	if err != nil {
		return nil, err
	}
	defer v2.Crash()
	closingMetrics(out)

	if o.traced {
		m.set("client.protocol_errors", float64(protoErrs))
		m.set("server.requests", float64(srvStats.Requests))
		m.set("server.errors", float64(srvStats.Errors))
		m.set("server.stalls", float64(srvStats.Stalls))
		runProbes(m, probeInput{vol: v2, keys: modelKeys(e.models()), wireMix: e.wireMix(), tiny: o.tiny})
		tf.Metrics, tf.Notes = m, out.Notes
		if out.TraceFile, err = writeTrace(o.outDir, tf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func kindsLine(names []string, phases ...[]roundResult) string {
	tot := make([]int, len(names))
	all := 0
	for _, rs := range phases {
		for _, r := range rs {
			for k, n := range r.kinds {
				tot[k] += n
				all += n
			}
		}
	}
	s := ""
	for k, n := range tot {
		s += fmt.Sprintf("%s %.1f%% ", names[k], 100*float64(n)/float64(all))
	}
	return s
}
