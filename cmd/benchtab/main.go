// Benchtab regenerates every table and measured claim of the paper's
// evaluation on full-size simulated volumes and prints a paper-vs-measured
// comparison. Each record of bench.Records runs once; its tables are printed
// from that run, and -json writes the run as BENCH_<name>.json.
//
// Usage:
//
//	benchtab                  # every record
//	benchtab -table 2         # just Table 2
//	benchtab -table gc        # the group-commit statistics (5.4)
//	benchtab -table model     # the analytical-model validation (6)
//	benchtab -table recovery  # recovery comparison (7)
//	benchtab -table ablations # one record: the six ablations
//	benchtab -json .          # every record, written at the repo root
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is benchtab with its arguments and output streams; it returns the exit
// status: 0 ok, 1 a run or write failed, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "what to regenerate: a record (tables, faultpath, robustness, crashsweep, nestedcrash, pfsck, datapath, ablations), one paper table (hw, 1-5, gc, model, recovery) or all")
	dir := fs.String("json", "", "also write each record run to `DIR`/BENCH_<name>.json (-json . at the repo root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := strings.ToLower(*table)
	var recs []bench.Record
	var parts []bench.Part
	for _, r := range bench.Records {
		if want == "all" || want == r.Name {
			recs = append(recs, r)
			continue
		}
		for _, p := range r.Parts {
			if p.Name == want {
				parts = append(parts, p)
			}
		}
	}
	switch {
	case len(recs) == 0 && len(parts) == 0:
		fmt.Fprintf(stderr, "benchtab: unknown table %q\n", *table)
		return 2
	case *dir != "" && len(recs) == 0:
		fmt.Fprintf(stderr, "benchtab: -json writes whole records; %q is one table of one\n", *table)
		return 2
	}
	// A directory that cannot take the files fails here, not after the runs.
	if *dir != "" {
		if err := writable(*dir); err != nil {
			fmt.Fprintf(stderr, "benchtab: -json: %v\n", err)
			return 1
		}
	}

	out := func(format string, args ...any) { fmt.Fprintf(stdout, format, args...) }
	for _, p := range parts {
		t, err := p.Run()
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %s: %v\n", p.Name, err)
			return 1
		}
		t.Print(out)
	}
	for _, r := range recs {
		rep, err := r.Run()
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %s: %v\n", r.Name, err)
			return 1
		}
		for _, t := range rep.Render() {
			t.Print(out)
		}
		if *dir != "" {
			if err := r.Write(*dir, rep); err != nil {
				fmt.Fprintf(stderr, "benchtab: %v\n", err)
				return 1
			}
			out("\nwrote %s\n", filepath.Join(*dir, r.File()))
		}
	}
	return 0
}

// writable reports whether dir is a directory a file can be created in.
func writable(dir string) error {
	f, err := os.CreateTemp(dir, ".benchtab-")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}
