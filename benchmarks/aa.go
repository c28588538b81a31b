package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runAA is the benchmark judging itself: every workload is run as two
// interleaved sets of n end-to-end runs of this same binary, run k of either
// set on seed+k, each in its own process the way the driver runs it. Two
// sets of the same code must agree: a pair of medians further apart than the
// metric's bound is a failure of the instrument, and a set whose
// inter-quartile spread exceeds the bound cannot resolve a change of that
// size at all.
func runAA(selected []*workload, seed int64, seconds float64, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set, got %d", n)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println(fingerprint(seed, seconds).String())
	fmt.Printf("A/A: 2 sets x %d runs per workload, seeds %d..%d, %g s per run\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-9s %-24s %13s %13s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound", "verdict")
	differs := 0
	for _, wl := range selected {
		sets := [2]map[string][]float64{{}, {}}
		for k := 0; k < n; k++ {
			for i := 0; i < 2; i++ {
				set := (k + i) % 2 // alternate which set goes first
				res, err := runSelf(self, wl.name, seed+int64(k), seconds)
				if err != nil {
					return fmt.Errorf("workload %s seed %d: %w", wl.name, seed+int64(k), err)
				}
				for name, mv := range res.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // B's median as a change from A's, positive = worse
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := "ok"
			switch {
			case max(worse, -worse) > d.bound:
				verdict = "DIFFERS"
				differs++
			case d.name != "setup_s" && max(sa, sb) > d.bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-9s %-24s %13.6g %13.6g %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.name, d.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	if differs > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ between two sets of runs of the same code", differs)
	}
	return nil
}

// runSelf makes one end-to-end run in a child process and parses its result
// line.
func runSelf(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported %d failures", res.Failed)
	}
	return &res, nil
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// iqrShare is the distance between the first and third quartile as a share
// of the median.
func iqrShare(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / q[1]
}

// quartiles cuts the values the way Python's statistics.quantiles(values,
// n=4) does (the exclusive method), which is what the driver uses.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
