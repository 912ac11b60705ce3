// Command fsdserver serves an FSD volume over TCP: the network front-end
// of the reproduction, speaking the internal/wire protocol through
// internal/server to any client built on the cedarfs.FS interface
// (package client, cmd/soak).
//
// The volume lives on a fresh simulated disk formatted at startup; the
// simulation clock is virtual, so disk time advances with activity and the
// server runs as fast as the host allows. Stop it with SIGINT/SIGTERM for
// a clean shutdown (the volume stamps clean; a kill -9 is the crash case).
//
// Usage:
//
//	fsdserver [-addr :9353] [-geometry default|small] [-async] [-adaptive]
//	          [-sessions N] [-bp N] [-stats 10s]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	cedarfs "repro"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", ":9353", "listen address")
		geometry = flag.String("geometry", "default", "volume geometry: default (300 MB) or small (19 MB)")
		async    = flag.Bool("async", false, "run the asynchronous metadata pipeline")
		adaptive = flag.Bool("adaptive", false, "adaptive group-commit deadline (with -async)")
		sessions = flag.Int("sessions", 0, "max concurrent sessions (0 = unlimited)")
		bp       = flag.Int("bp", 0, "backpressure intent-queue depth (0 = auto, -1 = off)")
		statsEvc = flag.Duration("stats", 0, "print a stats line every interval (0 = off)")
	)
	flag.Parse()
	if err := run(*addr, *geometry, *async, *adaptive, *sessions, *bp, *statsEvc); err != nil {
		fmt.Fprintf(os.Stderr, "fsdserver: %v\n", err)
		os.Exit(1)
	}
}

// run listens on addr and serves until SIGINT or SIGTERM.
func run(addr, geometry string, async, adaptive bool, sessions, bp int, statsEvery time.Duration) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		fmt.Fprintf(os.Stderr, "fsdserver: %v, shutting down\n", <-sigc)
		close(stop)
	}()
	return serve(l, stop, geometry, async, adaptive, sessions, bp, statsEvery)
}

// serve formats a fresh volume, serves it on l until stop is closed or the
// listener fails, and then shuts the volume down cleanly. It closes l.
func serve(l net.Listener, stop <-chan struct{}, geometry string, async, adaptive bool, sessions, bp int, statsEvery time.Duration) error {
	defer l.Close()
	g := disk.DefaultGeometry
	switch geometry {
	case "default":
	case "small":
		g = disk.SmallGeometry
	default:
		return fmt.Errorf("unknown geometry %q", geometry)
	}
	d, err := disk.New(g, disk.DefaultParams, sim.NewVirtualClock())
	if err != nil {
		return err
	}
	vol, err := cedarfs.Format(d, cedarfs.Config{AsyncApply: async, AdaptiveCommit: adaptive})
	if err != nil {
		return err
	}
	fs := cedarfs.NewLocalFS(vol)
	srv := server.New(fs, server.Config{MaxSessions: sessions, BackpressureDepth: bp})
	fmt.Fprintf(os.Stderr, "fsdserver: serving %s volume on %s (async=%v adaptive=%v)\n",
		geometry, l.Addr(), async, adaptive)

	if statsEvery > 0 {
		go func() {
			for range time.Tick(statsEvery) {
				st := srv.Stats()
				vst := vol.Stats()
				fmt.Fprintf(os.Stderr,
					"fsdserver: sessions=%d/%d reqs=%d errs=%d proto=%d stalls=%d handles=%d commit=%d depth=%d\n",
					st.Sessions, st.SessionsTotal, st.Requests, st.Errors, st.ProtocolErrors,
					st.Stalls, st.OpenHandles, vol.CommitSeq(), vst.Intent.Depth)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case <-stop:
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	fs.Close()
	return vol.Shutdown()
}
