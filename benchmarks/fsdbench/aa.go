package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method) — the same rule the driver applies.
func quartiles(vs []float64) (q1, q3 float64) {
	v := append([]float64(nil), vs...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		pos := p * float64(len(v)+1)
		i := int(math.Floor(pos))
		if i < 1 {
			return v[0]
		}
		if i >= len(v) {
			return v[len(v)-1]
		}
		return v[i-1] + (pos-float64(i))*(v[i]-v[i-1])
	}
	return at(0.25), at(0.75)
}

// runAA is the A/A calibration: it runs each workload n times in fresh
// processes of this binary, one seed apart, and prints for every
// end-to-end metric the median, the quartiles, the spread (IQR / median)
// and the worst pairwise deviation. It returns non-zero when a spread
// exceeds half the metric's bound — past that, the same code measured
// twice can trip the bound on noise alone.
func runAA(workloads []string, n int, seed int64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed+int64(i)), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fsdbench: A/A run %d of %s (seed %d): %v\n%s", i, w, seed+int64(i), err, stdout)
				return 1
			}
			var lastLine string
			sc := bufio.NewScanner(bytes.NewReader(stdout))
			for sc.Scan() {
				lastLine = sc.Text()
			}
			var res struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lastLine), &res); err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "fsdbench: A/A run %d of %s: bad result line %q (%v)\n", i, w, lastLine, err)
				return 1
			}
			for name, mv := range res.Metrics {
				vals[name] = append(vals[name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "A/A %s run %d/%d done\n", w, i+1, n)
		}
		fmt.Printf("A/A %s: %d runs, seeds %d..%d, --seconds %d\n", w, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("| %-16s | %12s | %12s | %12s | %8s | %8s | %6s | %s |\n", "metric", "median", "q1", "q3", "iqr/med", "max dev", "bound", "ok")
		fmt.Printf("|%s|\n", strings.Repeat("-", 100))
		for _, m := range endToEnd {
			v := vals[m.Name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			ok := "yes"
			if spread > m.Bound/2 {
				ok = "NO"
				status = 1
			}
			fmt.Printf("| %-16s | %12.4f | %12.4f | %12.4f | %8.4f | %8.4f | %6.2f | %s |\n",
				m.Name, med, q1, q3, spread, ratio(hi-lo, med), m.Bound, ok)
		}
		fmt.Println("values in run order:")
		for _, m := range endToEnd {
			fmt.Printf("  %-16s", m.Name)
			for _, x := range vals[m.Name] {
				fmt.Printf(" %.5g", x)
			}
			fmt.Println()
		}
	}
	return status
}
