package main

import (
	"fmt"
	"slices"
	"time"

	"stateslice"
	"stateslice/benchmarks/oracle"
)

// mode says which passes a run makes and what share of -seconds each gets.
type mode struct {
	sat, paced, traced float64
	probes             bool
	// setups is how many session set-ups the run times at least — the
	// passes' own plus set-up-only ones; setup_s is their median. 0 = the
	// passes' own only.
	setups int
}

var (
	// modeEndToEnd is `-trace 0`: tracing off everywhere, the whole time on
	// the two passes the end-to-end metrics come from.
	modeEndToEnd = mode{sat: 0.6, paced: 0.4, setups: 5}
	// modePerLayer is `-trace 1`: the traced pass and the kernel probes,
	// plus short untraced passes for the per-layer figures that are read off
	// them (GC, lateness, tracing overhead).
	modePerLayer = mode{sat: 0.2, paced: 0.2, traced: 0.4, probes: true, setups: 5}
	// modeFull is the default for a person at a terminal: every pass at the
	// length a driver run gives it.
	modeFull = mode{sat: 0.6, paced: 0.4, traced: 0.4, probes: true, setups: 5}
)

// maxSetups caps the set-ups one run times.
const maxSetups = 25

// report is the outcome of one workload run.
type report struct {
	workload          string
	values            map[string]float64
	attempted, failed uint64
	notes             []string
	spans             []span
}

func (r *report) correct() bool { return r.failed == 0 }

// passResult is what every pass hands to the correctness check.
type passResult struct {
	name   string
	s      *session
	fed    int // measured inputs actually fed
	res    *stateslice.Result
	digest []oracle.Digest // filled in by the oracle
}

func runWorkload(wl *workload, seed int64, seconds float64, m mode) (*report, error) {
	rep := &report{workload: wl.name, values: make(map[string]float64)}
	v := rep.values

	text := wl.text()
	base, err := oracle.ParseQueries(text)
	if err != nil {
		return nil, err
	}
	maxWindow := stateslice.Time(base[len(base)-1].Window)

	nSat := max(int(seconds*m.sat*float64(wl.refTPS))/segments, 1) * segments
	nPaced := max(int(seconds*m.paced*float64(wl.pacedTPS)), 1)
	nTraced := 0
	if m.traced > 0 {
		nTraced = max(int(seconds*m.traced*float64(wl.refTPS))/segments, 1) * segments
	}

	t0 := time.Now()
	in, err := generate(wl, maxWindow, seed, max(nSat, nPaced, nTraced))
	if err != nil {
		return nil, err
	}
	generateS := time.Since(t0).Seconds()

	var setups []time.Duration
	var passes []*passResult

	// Saturation: closed loop, tracing off.
	heapBase := liveHeap()
	sat, err := setup(wl, in, nSat, 0, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, sat.setupTime())
	p0 := readProc()
	satLoop := closedLoop(sat, in, in.warm, in.warm+nSat, time.Duration(seconds*m.sat*float64(time.Second)), nil)
	p1 := readProc()
	heap := float64(liveHeap()) - float64(heapBase)
	satRes := sat.r.Finish()
	passes = append(passes, &passResult{name: "saturation", s: sat, fed: satLoop.inputs, res: satRes})

	// Paced: open loop, tracing off.
	paced, err := setup(wl, in, nPaced, wl.gap(), nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, paced.setupTime())
	pacedLoopStats := pacedLoop(paced, in, in.warm, in.warm+nPaced)
	passes = append(passes, &passResult{name: "paced", s: paced, fed: nPaced, res: paced.r.Finish()})
	lat := paced.sk.latency()

	// Traced: closed loop through the wrapped twin.
	var tr *tracer
	var traced *session
	var tracedLoop loopStats
	var tracedCPU time.Duration
	if m.traced > 0 {
		tr = &tracer{callbackNS: calibrateCallback()}
		if traced, err = setup(wl, in, nTraced, 0, tr); err != nil {
			return nil, err
		}
		tr.reset()
		tr.t0 = time.Now()
		c0 := readProc().cpu
		tracedLoop = closedLoop(traced, in, in.warm, in.warm+nTraced, time.Duration(seconds*m.traced*float64(time.Second)), tr)
		tracedCPU = readProc().cpu - c0
		passes = append(passes, &passResult{name: "traced", s: traced, fed: tracedLoop.inputs, res: traced.r.Finish()})
		if traced.ch != nil && traced.ch.lastBlob != nil {
			d0 := time.Now()
			if err := traced.ch.sess.decode(traced.ch.lastBlob); err != nil {
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("traced: checkpoint blob does not decode: %v", err))
			}
			tr.decode = time.Since(d0)
		}
		rep.spans = tr.allSpans()
	}

	// Set-up only sessions, so setup_s is a median of several: at least
	// m.setups, and as many more of a cheap set-up as fit in a fifteenth of
	// the run, because a 50 ms set-up is noisier than a 400 ms one.
	var extra time.Duration
	budget := time.Duration(seconds / 15 * float64(time.Second))
	for len(setups) < m.setups || (m.setups > 0 && extra < budget && len(setups) < maxSetups) {
		s, err := setup(wl, in, 0, 0, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setupTime())
		extra += s.setupTime()
		s.r.Finish()
	}

	// The oracle joins the input once and is read at every pass's cut.
	t0 = time.Now()
	cuts := make([]int, len(passes))
	for i, p := range passes {
		cuts[i] = in.warm + p.fed
	}
	sorted := slices.Clone(cuts)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	digests := oracle.Run(in.events, wl.oracleQueries(base, in.warm, max(nSat, nPaced, nTraced)), sorted)
	oracleS := time.Since(t0).Seconds()
	for i, p := range passes {
		p.digest = digests[slices.Index(sorted, cuts[i])]
		rep.check(p)
	}

	// End-to-end metrics.
	slices.Sort(setups)
	v["setup_s"] = setups[len(setups)/2].Seconds()
	n := float64(satLoop.inputs)
	v["input_tps"] = satLoop.medianRate()
	v["cpu_s_per_minput"] = (p1.cpu - p0.cpu).Seconds() / n * 1e6
	v["allocs_per_input"] = float64(p1.mem.Mallocs-p0.mem.Mallocs) / n
	v["result_latency_p50_ms"] = lat.quantile(0.50)
	v["result_latency_p95_ms"] = lat.quantile(0.95)
	v["comparisons_per_input"] = float64(satRes.Meter.Comparisons()) / float64(satRes.Inputs)
	v["state_tuples_avg"] = satRes.Memory.Avg
	v["live_heap_mb"] = heap / (1 << 20)

	// Per-layer metrics read off the untraced passes.
	v["sliceql.parse_ms"] = ms(sat.parse)
	v["optimizer.compile_ms"] = ms(sat.compile)
	v["plan.slices"] = float64(len(sat.plan.Ends()))
	v["driver.generate_s"] = generateS
	v["engine.warmup_s"] = sat.warmup.Seconds()
	v["operator.results_per_input"] = float64(satRes.TotalOutputs()) / float64(satRes.Inputs)
	v["runtime.gc_cycles"] = float64(p1.mem.NumGC - p0.mem.NumGC)
	v["runtime.gc_pause_ms"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6
	if cpu := p1.allCPU - p0.allCPU; cpu > 0 {
		v["runtime.gc_cpu_share"] = (p1.gcCPU - p0.gcCPU) / cpu
	}
	v["runtime.bytes_per_input"] = float64(p1.mem.TotalAlloc-p0.mem.TotalAlloc) / n
	v["driver.lateness_p99_ms"] = pacedLoopStats.late.quantile(0.99)
	v["driver.latency_p99_ms"] = lat.quantile(0.99)
	v["driver.latency_samples"] = float64(lat.n)
	if paced.ch != nil {
		v["shard.barrier_shadow_share"] = paced.ch.shadow.Seconds() / pacedLoopStats.wall.Seconds()
	}
	v["driver.oracle_s"] = oracleS

	if tr != nil {
		tr.metrics(v, tracedLoop, passes[2].res, tracedCPU)
		satPer := satLoop.wall.Seconds() / float64(satLoop.inputs)
		v["driver.trace_overhead_share"] = tracedLoop.wall.Seconds()/float64(tracedLoop.inputs)/satPer - 1
		v["driver.trace_spans"] = float64(len(rep.spans))
	}
	if m.probes {
		budget := time.Duration(seconds / 120 * float64(time.Second))
		for _, k := range kernels {
			v[k.name] = k.measure(budget)
		}
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// check counts what a pass attempted and what of it failed: feeds, session
// operations, and results against the oracle's digests at the pass's cut.
func (rep *report) check(p *passResult) {
	rep.attempted += uint64(p.s.sk.warm) + uint64(p.fed)
	rep.failed += uint64(p.s.failedFeeds)
	if c := p.s.ch; c != nil {
		rep.attempted += uint64(c.ops)
		rep.failed += uint64(c.failed)
	}
	for _, d := range p.digest {
		rep.attempted += d.Count
	}
	if p.res.Err != nil {
		rep.failed++
		rep.notes = append(rep.notes, fmt.Sprintf("%s: session ended with %v", p.name, p.res.Err))
	}
	if p.res.OrderViolations != 0 {
		rep.failed += uint64(p.res.OrderViolations)
		rep.notes = append(rep.notes, fmt.Sprintf("%s: the engine's own sinks saw %d order violations", p.name, p.res.OrderViolations))
	}
	if bad, first := p.s.sk.check(p.digest); bad != 0 {
		rep.failed += bad
		rep.notes = append(rep.notes, fmt.Sprintf("%s: digest mismatch, first differing query id %d (%d results missing, extra or misordered)", p.name, first, bad))
	}
}

// calibrateCallback measures what one sink callback costs, in nanoseconds,
// on results shaped like the engine's. The traced pass cannot afford two
// clock reads around each of the several hundred callbacks an input causes,
// so it counts them and charges this price.
func calibrateCallback() float64 {
	const queries, pool, calls = 12, 4096, 1 << 21
	sk := newSinks(queries, 0, 0)
	sk.tr = &tracer{sequential: true, eng: []*engineTrace{new(engineTrace)}, sinkq: make([]sinkTrace, queries)}
	src := make([]stateslice.Tuple, 2*pool)
	res := make([]stateslice.Tuple, pool)
	for i := range res {
		a, b := &src[2*i], &src[2*i+1]
		a.Seq, b.Seq = uint64(2*i+1), uint64(2*i+2)
		res[i] = stateslice.Tuple{Seq: uint64(i/8)*2 + 1, A: a, B: b} // odd: never a span sample
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		sk.handle(stateslice.QueryID(i%queries), &res[i%pool])
	}
	return float64(time.Since(start).Nanoseconds()) / calls
}
