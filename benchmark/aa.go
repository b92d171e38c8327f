package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runAA is the same-code agreement check: two interleaved sets (A, B) of n
// runs of the current tree on every workload, each run its own process with
// its own seed (run i of both sets uses seed+i). Per workload and end-to-end
// metric it prints both medians, both inter-quartile ranges as a share of
// the median, the gap between the medians in the direction that counts as
// worse, and the bound; it fails when a gap exceeds its bound. It is what
// decides whether the benchmark can tell a change from noise.
func runAA(n int, seed uint64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	// samples[workload][set][metric] are the n values of one set.
	samples := make(map[string][2]map[string][]float64)
	start := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				res, err := runChild(exe, w.name, seed+uint64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: -aa: %s: %v\n", w.name, err)
					return 1
				}
				sets := samples[w.name]
				if sets[set] == nil {
					sets[set] = make(map[string][]float64)
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				samples[w.name] = sets
			}
		}
		fmt.Fprintf(os.Stderr, "-aa: pair %d of %d done after %.0f s\n", i+1, n, time.Since(start).Seconds())
	}
	fmt.Printf("A/A: two interleaved sets of %d runs, seeds %d..%d, %.0f s\n", n, seed, seed+uint64(n)-1, time.Since(start).Seconds())
	fmt.Printf("%-19s %-15s %12s %12s %7s %7s %8s %6s\n", "workload", "metric", "median A", "median B", "IQR A", "IQR B", "gap", "bound")
	failed := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := samples[w.name][0][m.name], samples[w.name][1][m.name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // how much worse B reads than A
			if m.better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > m.bound || -gap > m.bound {
				verdict = "  FAIL"
				failed++
			}
			fmt.Printf("%-19s %-15s %12.3f %12.3f %6.2f%% %6.2f%% %+7.2f%% %5.1f%%%s\n",
				w.name, m.name, ma, mb, 100*iqrShare(a), 100*iqrShare(b), 100*gap, 100*m.bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("A/A: %d metrics differ by more than their bound on identical code\n", failed)
		return 1
	}
	fmt.Println("A/A: every metric agrees within its bound")
	return 0
}

// iqrShare is the inter-quartile range as a share of the median.
func iqrShare(values []float64) float64 {
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// runChild runs one untraced run in its own process (peak RSS is a
// per-process reading) and parses the JSON object on its last line.
func runChild(exe, workload string, seed uint64) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
