// Command benchmarks is the repository's benchmark: five workloads, each run
// through a saturation pass (closed loop), a paced pass (open loop, fixed
// rate) and a traced pass, every pass checked against an independent oracle,
// every metric printed by name with its unit. BENCHMARK.json at the root of
// the repository names the workloads and metrics; README.md in this directory
// says what each is for.
//
//	go run ./benchmarks -workload all
//	go run ./benchmarks -workload probe -seed 7 -seconds 15 -trace 0
//	go run ./benchmarks -aa 10
//
// With -trace 0 or 1 the last line of standard output is one JSON object:
// the end-to-end metrics (0) or the per-layer metrics (1) of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 2006, "seed of the input generator")
		seconds = flag.Float64("seconds", 15, "nominal measuring time per run; every pass scales with it")
		trace   = flag.Int("trace", -1, "0: end-to-end passes only; 1: traced pass, probes and short untraced passes; default: all of them")
		spans   = flag.String("spans", "", "write the traced pass's sampled spans to this file as JSON lines")
		jsonOut = flag.String("json", "", "write a JSON summary of the whole run to this file")
		aa      = flag.Int("aa", 0, "A/A mode: run every workload as two sets of N end-to-end runs and compare them")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spans, *jsonOut, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, spansPath, jsonPath string, aa int) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	selected := workloads
	if name != "all" {
		wl, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []*workload{wl}
	}
	if aa > 0 {
		return runAA(selected, seed, seconds, aa)
	}
	m, defs := modeFull, append(append([]metricDef(nil), endToEnd...), perLayer...)
	switch trace {
	case 0:
		m, defs = modeEndToEnd, endToEnd
	case 1:
		m, defs = modePerLayer, perLayer
	case -1:
	default:
		return fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	if trace >= 0 && len(selected) != 1 {
		return fmt.Errorf("-trace %d prints one result line and needs one -workload", trace)
	}

	fp := fingerprint(seed, seconds)
	fmt.Println(fp.String())
	var reports []*report
	failed := false
	for _, wl := range selected {
		rep, err := runWorkload(wl, seed, seconds, m)
		if err != nil {
			return fmt.Errorf("workload %s: %w", wl.name, err)
		}
		reports = append(reports, rep)
		rep.print(os.Stdout, wl, defs)
		failed = failed || !rep.correct()
	}
	if spansPath != "" {
		if err := writeSpanFile(spansPath, reports); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := writeSummary(jsonPath, fp, reports, defs); err != nil {
			return err
		}
	}
	if trace >= 0 {
		line, err := json.Marshal(resultLine(reports[0], defs))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("outputs differ from the oracle")
	}
	return nil
}

// host identifies where and how a report was made; wall-clock numbers mean
// nothing without it.
type host struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	PacedTPS   map[string]int `json:"paced_inputs_per_s"`
	SatInputs  map[string]int `json:"saturation_ref_inputs_per_s"`
	OpEvery    map[string]int `json:"session_op_every_inputs,omitempty"`
}

func fingerprint(seed int64, seconds float64) host {
	h := host{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds,
		PacedTPS: map[string]int{}, SatInputs: map[string]int{}, OpEvery: map[string]int{},
	}
	for _, wl := range workloads {
		h.PacedTPS[wl.name] = wl.pacedTPS
		h.SatInputs[wl.name] = wl.refTPS
		if wl.opEvery > 0 {
			h.OpEvery[wl.name] = wl.opEvery
		}
	}
	return h
}

func (h host) String() string {
	b, _ := json.Marshal(h) // a struct of strings, numbers and string-keyed maps
	return "host " + string(b)
}

// multicore reports whether wall-clock metrics of a sharded workload mean
// anything on this host: with fewer than two CPUs the replicas and the merge
// layer take turns on one core.
func (wl *workload) multicore() bool { return wl.shards == 0 || runtime.NumCPU() >= 2 }

// wallClock are the end-to-end metrics that are times; the others are counts
// and hold on any host.
var wallClock = map[string]bool{
	"setup_s": true, "input_tps": true, "cpu_s_per_minput": true,
	"result_latency_p50_ms": true, "result_latency_p95_ms": true,
}

// print writes the report: one line per metric, name, value and unit.
func (r *report) print(w io.Writer, wl *workload, defs []metricDef) {
	fmt.Fprintf(w, "\nworkload %s — %s\n", wl.name, wl.why)
	for _, d := range defs {
		val, ok := r.values[d.name]
		switch {
		case !ok:
			continue
		case wallClock[d.name] && !wl.multicore():
			fmt.Fprintf(w, "  %-34s %14s %s\n", d.name, "unresolved", "(needs 2 CPUs)")
		default:
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, val, d.unit)
		}
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g share (%d failed of %d attempted)\n", "error_share", share, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the driver-facing result: exactly the metrics of defs. A
// per-layer metric that does not apply to the workload reads 0.
func resultLine(r *report, defs []metricDef) result {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		val := r.values[d.name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		out.Metrics[d.name] = metricValue{Value: val, Unit: d.unit}
	}
	return out
}

// writeSpanFile writes every report's sampled spans as JSON lines.
func writeSpanFile(path string, reports []*report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range reports {
		for _, s := range r.spans {
			s.Workload = r.workload
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// writeSummary writes the whole run as one JSON document. This benchmark
// measures; it claims nothing, so the summary ends with a null claim.
func writeSummary(path string, h host, reports []*report, defs []metricDef) error {
	type summary struct {
		Host      host              `json:"host"`
		Workloads map[string]result `json:"workloads"`
		Claim     *string           `json:"claim"`
	}
	s := summary{Host: h, Workloads: make(map[string]result)}
	for _, r := range reports {
		s.Workloads[r.workload] = resultLine(r, defs)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
