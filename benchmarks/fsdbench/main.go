// Command fsdbench is the repository's benchmark: four fixed-op-count
// workloads against the public surface of every layer, each ending in a
// crash, a recovery and a full correctness check. See ../README.md.
//
// The driver's form is
//
//	fsdbench --workload W --seed N --seconds S --trace 0|1
//
// whose last line of standard output is one JSON object. With no flags it
// runs every workload untraced and traced and prints every metric.
package main

import (
	"flag"
	"fmt"
	"os"
)

// recordedSeconds is run_seconds in BENCHMARK.json: the --seconds the
// frozen op counts were calibrated at.
const recordedSeconds = 15

func runWorkload(o runOpts) (*outcome, error) {
	switch o.workload {
	case "remote-meta":
		return runRemote(o, remoteMetaSizing, metaOpNames)
	case "remote-data":
		return runRemote(o, remoteDataSizing, dataOpNames)
	case "paper-mix":
		return runPaperMix(o)
	case "check-repair":
		return runCheckRepair(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func main() {
	var (
		wl      = flag.String("workload", "all", "remote-meta, remote-data, paper-mix, check-repair, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", recordedSeconds, "time budget of the measured part; op counts are this many times the frozen per-second counts")
		trace   = flag.Int("trace", 2, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; 2: both")
		outDir  = flag.String("out", "benchmarks/out", "directory for <workload>.trace.json")
		aa      = flag.Int("aa", 0, "A/A calibration: run the workload this many times (seeds seed, seed+1, ...) and report each end-to-end metric's spread")
		emit    = flag.Bool("benchmark-json", false, "print BENCHMARK.json generated from the metric catalogue and exit")
	)
	flag.Parse()
	if *emit {
		fmt.Print(benchmarkJSON(recordedSeconds))
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 2 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "fsdbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*wl}
	if *wl == "all" {
		names = nil
		for _, w := range workloadWhy {
			names = append(names, w.Name)
		}
	}
	if *aa > 0 {
		os.Exit(runAA(names, *aa, *seed, *seconds))
	}

	failed := false
	var last string
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == 0) || (!traced && *trace == 1) {
				continue
			}
			o, err := runWorkload(runOpts{workload: name, seed: *seed, seconds: *seconds, traced: traced, outDir: *outDir})
			if err != nil {
				fmt.Fprintf(os.Stderr, "fsdbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := printTable(os.Stdout, o, defs, !traced); err != nil {
				fmt.Fprintf(os.Stderr, "fsdbench: %v\n", err)
				os.Exit(1)
			}
			failed = failed || o.Failed > 0
			last = resultLine(o, defs)
		}
	}
	fmt.Println(last)
	if failed {
		os.Exit(1)
	}
}
