// Command slicebench regenerates the tables and figures of the State-Slice
// paper's evaluation (Section 7) as tab-separated series on stdout.
//
// Usage:
//
//	slicebench -exp fig17            # memory comparison, 6 panels
//	slicebench -exp fig18            # service rate comparison, 6 panels
//	slicebench -exp fig19            # Mem-Opt vs CPU-Opt, 5 panels
//	slicebench -exp fig11 -grid 9    # analytic savings surfaces
//	slicebench -exp table2           # chain execution trace
//	slicebench -exp plans            # compiled plans of every strategy
//	slicebench -exp all
//	slicebench -json report.json     # machine-readable perf report
//
// The -json flag runs the tracked performance suite — the Section 7.3 chain
// workload through the sequential engine at several micro-batch sizes, plus
// the workload's equijoin twin through the engine and the key-range sharded
// executor at the -shards sweep, plus its band-join twin (|A.Key - B.Key| <=
// -band) through the band-partitioned sharded executor at the same sweep,
// plus the admission suite (per-Attach barrier latency and the steady-state
// rate of a chain that admitted its queries live against the same chain
// built whole) — and writes a JSON report (service rate, comparison counts,
// allocs per input tuple, state memory, GOMAXPROCS for cross-host
// comparability) to the given path ("-" for stdout). Committed snapshots live in
// BENCH_<pr>.json files at the repository root and track the perf trajectory
// across PRs. -cpuprofile wraps any run in a CPU profile.
//
// The measured experiments (fig17-19) run the full 90-virtual-second
// workloads of the paper by default; -duration scales them down. Service
// rate is reported twice: the paper's hardware-independent comparison-count
// metric (tuples per million comparisons) and the wall-clock rate on this
// machine. Shapes — who wins, by what factor, where the curves cross — are
// the reproduction target; see EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"stateslice"
	"stateslice/internal/bench"
	"stateslice/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig11, fig17, fig18, fig19, table2, plans, all")
		duration   = flag.Float64("duration", workload.DurationSeconds, "virtual run length in seconds")
		seed       = flag.Int64("seed", 2006, "generator seed")
		grid       = flag.Int("grid", 9, "grid resolution for fig11 surfaces")
		rateList   = flag.String("rates", "20,40,60,80", "input rates to sweep (tuples/sec)")
		jsonOut    = flag.String("json", "", "write the machine-readable perf report to this path (\"-\" for stdout) and exit")
		reps       = flag.Int("reps", 3, "repetitions per perf variant for -json (best wall clock wins)")
		shardList  = flag.String("shards", "1,2,4,8", "shard counts for the -json equijoin sweep (empty disables the sharded suite)")
		bandWidth  = flag.Int64("band", 1, "band width B of the -json band-join suite (|A.Key - B.Key| <= B; negative disables the suite)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		// check exits through stopProfile, so an error mid-run still
		// flushes a usable profile.
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer func() {
			stopProfile()
			stopProfile = nil
		}()
	}

	if *jsonOut != "" {
		shards, err := parseShards(*shardList)
		check(err)
		if *bandWidth == 0 {
			// PerfConfig treats 0 as "use the tracked default", so an
			// explicit -band 0 would silently measure B=1. B=0 is the
			// equijoin degenerate, which the equijoin suite already
			// measures with the cheaper hash partitioner.
			check(fmt.Errorf("-band 0 is the equijoin degenerate (measured by the sharded suite); use a positive width, or -band -1 to disable the band suite"))
		}
		check(perfJSON(*jsonOut, *duration, *seed, *reps, shards, *bandWidth))
		return
	}

	rates, err := parseRates(*rateList)
	check(err)

	run := map[string]func(){
		"table2": func() { table2() },
		"fig11":  func() { fig11(*grid) },
		"fig17":  func() { fig17(rates, *duration, *seed) },
		"fig18":  func() { fig18(rates, *duration, *seed) },
		"fig19":  func() { fig19(rates, *duration, *seed) },
		"plans":  func() { plans(rates[0]) },
	}
	if *exp == "all" {
		for _, name := range []string{"table2", "fig11", "fig17", "fig18", "fig19", "plans"} {
			run[name]()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		check(fmt.Errorf("unknown experiment %q", *exp))
	}
	f()
}

func table2() {
	fmt.Println("== Table 2: chain execution trace (see also cmd/slicetrace) ==")
	rows, err := bench.Table2Trace(false)
	check(err)
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println()
}

func fig11(grid int) {
	fmt.Println("== Figure 11: analytic savings of state-slice sharing, Eq. (4) ==")
	fmt.Println("series\trho\tssigma\tsaving_pct")
	for name, pts := range bench.Fig11Series(grid) {
		for _, pt := range pts {
			fmt.Printf("%s\t%.3f\t%.3f\t%.2f\n", name, pt.Rho, pt.SSigma, pt.Value)
		}
	}
	fmt.Println()
}

func fig17(rates []float64, dur float64, seed int64) {
	fmt.Println("== Figure 17: state memory (avg tuples in join states) vs input rate ==")
	fmt.Println("panel\tdist\ts1\tssigma\trate\tpullup\tstateslice\tpushdown")
	for _, p := range bench.Fig17Panels() {
		pts, err := bench.RunPanel(p, rates, dur, seed)
		check(err)
		for _, pt := range pts {
			fmt.Printf("%s\t%s\t%g\t%g\t%g\t%.0f\t%.0f\t%.0f\n",
				p.Label, p.Dist, p.S1, p.SSigma, pt.Rate,
				pt.By[bench.PullUp].AvgStateTuples,
				pt.By[bench.StateSlice].AvgStateTuples,
				pt.By[bench.PushDown].AvgStateTuples)
		}
	}
	fmt.Println()
}

func fig18(rates []float64, dur float64, seed int64) {
	fmt.Println("== Figure 18: service rate vs input rate ==")
	fmt.Println("(comp = tuples per million comparisons, the paper's CPU metric; wall = tuples/sec on this host)")
	fmt.Println("panel\tdist\ts1\tssigma\trate\tpullup_comp\tstateslice_comp\tpushdown_comp\tpullup_wall\tstateslice_wall\tpushdown_wall")
	for _, p := range bench.Fig18Panels() {
		pts, err := bench.RunPanel(p, rates, dur, seed)
		check(err)
		for _, pt := range pts {
			fmt.Printf("%s\t%s\t%g\t%g\t%g\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				p.Label, p.Dist, p.S1, p.SSigma, pt.Rate,
				pt.By[bench.PullUp].CompRate,
				pt.By[bench.StateSlice].CompRate,
				pt.By[bench.PushDown].CompRate,
				pt.By[bench.PullUp].ServiceRate,
				pt.By[bench.StateSlice].ServiceRate,
				pt.By[bench.PushDown].ServiceRate)
		}
	}
	fmt.Println()
}

func fig19(rates []float64, dur float64, seed int64) {
	fmt.Println("== Figure 19: Mem-Opt vs CPU-Opt chain service rate ==")
	fmt.Println("(comp metric weighted with Csys=3 per-invocation overhead, matching what CPU-Opt optimizes; wall = tuples/sec)")
	fmt.Println("panel\tdist\tqueries\trate\tslices_mem\tslices_cpu\tmemopt_comp\tcpuopt_comp\tmemopt_wall\tcpuopt_wall")
	for _, p := range bench.Fig19Panels() {
		pts, err := runFig19(p, rates, dur, seed)
		check(err)
		for _, pt := range pts {
			fmt.Printf("%s\t%s\t%d\t%g\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
				p.Label, p.Dist, p.Queries, pt.Rate,
				pt.Slices[bench.MemOpt], pt.Slices[bench.CPUOpt],
				pt.By[bench.MemOpt].CompRate, pt.By[bench.CPUOpt].CompRate,
				pt.By[bench.MemOpt].ServiceRate, pt.By[bench.CPUOpt].ServiceRate)
		}
	}
	fmt.Println()
}

// plans compiles the Table 3 uniform workload under every sharing strategy
// through the unified Build entry point and prints each plan's operator
// graph and modelled cost — the qualitative companion to the measured
// figures.
func plans(rate float64) {
	fmt.Println("== Compiled plans: Table 3 uniform workload under every strategy ==")
	w, err := workload.ThreeQueries(workload.Uniform, 0.5, 0.1)
	check(err)
	model := stateslice.CostModel{
		RateA: rate, RateB: rate,
		JoinSelectivity: 0.1,
		Csys:            stateslice.DefaultCsys,
		TupleKB:         stateslice.DefaultTupleKB,
	}
	for _, s := range stateslice.Strategies() {
		p, err := stateslice.Build(w, s, stateslice.WithCostParams(model))
		check(err)
		fmt.Print(p.Explain())
		if est, err := p.EstimatedCost(); err == nil {
			fmt.Printf("  modelled: %.1f KB state, %.0f comparisons/s\n", est.MemoryKB, est.CPU)
		}
		fmt.Println()
	}
}

// runFig19 sweeps one panel with the overhead-weighted metric.
func runFig19(p bench.Fig19Panel, rates []float64, dur float64, seed int64) ([]bench.Fig19Point, error) {
	w, err := workload.NQueries(p.Dist, p.Queries, 0.025)
	if err != nil {
		return nil, err
	}
	var out []bench.Fig19Point
	for _, rate := range rates {
		rc := bench.RunConfig{
			Rate: rate, DurationSec: dur, Seed: seed,
			MetricCsys: bench.DefaultCsys,
		}
		m, slices, err := bench.RunChainVariants(w, rc, 4)
		if err != nil {
			return nil, err
		}
		out = append(out, bench.Fig19Point{Rate: rate, By: m, Slices: slices})
	}
	return out, nil
}

// perfJSON runs the tracked perf suite and writes the JSON report.
func perfJSON(path string, duration float64, seed int64, reps int, shards []int, band int64) error {
	rep, err := bench.RunPerf(bench.PerfConfig{
		DurationSec: duration,
		Seed:        seed,
		Reps:        reps,
		Shards:      shards,
		BandWidth:   band,
	})
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// parseShards parses the -shards list; an empty string yields an empty
// (suite-disabling) slice rather than RunPerf's default sweep.
func parseShards(s string) ([]int, error) {
	out := []int{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad shard count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// stopProfile flushes the -cpuprofile output; check invokes it before
// exiting because os.Exit skips deferred calls.
var stopProfile func()

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicebench:", err)
		if stopProfile != nil {
			stopProfile()
		}
		os.Exit(1)
	}
}
