package main

import (
	"fmt"
	"slices"
	"time"

	"stateslice"
	"stateslice/internal/engine"
	"stateslice/internal/operator"
	"stateslice/internal/plan"
	"stateslice/internal/shard"
)

// The traced pass measures every layer from outside: it builds the same job
// the public API builds, but through the internal constructors, so that it
// can wrap every operator the engine schedules in a decorator that times
// Step, and it puts its own clocks around every call the driver makes. No
// file outside this directory knows it is being traced.

// opClass groups operators by concrete type, one class per layer metric.
type opClass int

const (
	classSplit  opClass = iota // ChainInput: the male/female role splitter
	classJoin                  // SlicedBinaryJoin: purge, probe, propagate
	classFilter                // lineage mark, gates, mask filters, routers
	classUnion                 // per-query order-preserving union
	classSink                  // query sinks (direct sinks run inside their producer's Step)
	numClasses
)

var classLayer = [numClasses]string{"operator.split", "operator.join", "operator.filter", "operator.union", "operator.sink"}

func classify(op operator.Operator) opClass {
	switch op.(type) {
	case *operator.ChainInput:
		return classSplit
	case *operator.SlicedBinaryJoin:
		return classJoin
	case *operator.Union:
		return classUnion
	case *operator.Sink:
		return classSink
	default:
		return classFilter
	}
}

// opClock accumulates one operator class on one engine instance.
type opClock struct {
	busy               time.Duration
	calls, idle, items uint64
	delivered          uint64 // sink callbacks fired during this class's Steps
}

// engineTrace holds the clocks of one engine instance — the sequential
// engine, or one shard replica. Only the goroutine running that engine
// touches it while the pass runs.
type engineTrace struct {
	clk [numClasses]opClock
	cur opClass // class whose Step is running
	// Sequential engine only: while a sampled input is being fed, every
	// Step is recorded as a child span of the Feed.
	spanSeq    uint64
	spanParent int
	spans      []span
	_          [64]byte
}

func (e *engineTrace) busy() time.Duration {
	var d time.Duration
	for c := range e.clk {
		d += e.clk[c].busy
	}
	return d
}

// tracedOp times Step on behalf of its class. Steps with nothing pending are
// counted but not timed: they are the scheduler's wasted calls, and their few
// nanoseconds belong to the scheduler's self time.
type tracedOp struct {
	operator.Operator
	class opClass
	eng   *engineTrace
	tr    *tracer
}

func (o *tracedOp) Step(m *operator.CostMeter, max int) int {
	c := &o.eng.clk[o.class]
	c.calls++
	if !o.Operator.Pending() {
		n := o.Operator.Step(m, max)
		if n == 0 {
			c.idle++
		}
		c.items += uint64(n)
		return n
	}
	o.eng.cur = o.class
	t0 := time.Now()
	n := o.Operator.Step(m, max)
	d := time.Since(t0)
	c.busy += d
	c.items += uint64(n)
	if n == 0 {
		c.idle++
	}
	if o.eng.spanSeq != 0 {
		o.eng.spans = append(o.eng.spans, o.tr.newSpan(classLayer[o.class], o.eng.spanSeq, o.eng.spanParent, t0, d))
	}
	return n
}

// wrap replaces every operator of the plan that is not wrapped yet. Chain
// restructures rebuild the operator list from the bare operators, so this
// runs again after every session operation.
func (tr *tracer) wrap(p *engine.Plan, eng *engineTrace) {
	for i, op := range p.Ops {
		if _, ok := op.(*tracedOp); !ok {
			p.Ops[i] = &tracedOp{Operator: op, class: classify(op), eng: eng, tr: tr}
		}
	}
}

// span is one timed interval. Spans caused by the same input share its
// sequence number; Parent is the ID of the span that caused this one (0 =
// root). Times are nanoseconds since the traced loop started.
type span struct {
	Workload string `json:"workload"` // filled in when the spans are written
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Seq      uint64 `json:"seq"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanStride is the deterministic span sample: inputs whose sequence number
// is a multiple of it.
const spanStride = 1024

// sinkTrace records, per query, the first delivery of every sampled input.
type sinkTrace struct {
	last  uint64
	spans []span
	_     [64]byte
}

// tracer is the state of one traced pass.
type tracer struct {
	t0         time.Time
	sequential bool
	eng        []*engineTrace
	chains     []*plan.StateSlicePlan // the chains behind eng, for re-wrapping
	sinkq      []sinkTrace
	callbackNS float64 // calibrated cost of one sink callback

	// Driver-side clocks.
	feedBusy  time.Duration
	feedDur   []int32 // every Feed call, ns
	drainBusy time.Duration
	finish    time.Duration
	opDur     [opKinds][]time.Duration
	encDur    []time.Duration
	ckptBytes int
	decode    time.Duration
	spans     []span
	nextID    int
}

func (tr *tracer) newSpan(layer string, seq uint64, parent int, start time.Time, d time.Duration) span {
	// Only the sequential engine's goroutine and the driver — the same
	// goroutine — allocate ids while the loop runs; sink spans get theirs
	// when the spans are collected.
	tr.nextID++
	s := start.Sub(tr.t0).Nanoseconds()
	return span{ID: tr.nextID, Parent: parent, Layer: layer, Seq: seq, Start: s, End: s + d.Nanoseconds()}
}

// feed is the traced Feed: timed, and for a sampled input recorded as a root
// span whose children are the operator Steps it caused.
func (tr *tracer) feed(r runner, t *stateslice.Tuple) error {
	sampled := t.Seq%spanStride == 0
	id := 0
	if sampled {
		tr.nextID++
		id = tr.nextID
		if tr.sequential {
			tr.eng[0].spanSeq, tr.eng[0].spanParent = t.Seq, id
		}
	}
	t0 := time.Now()
	err := r.Feed(t)
	d := time.Since(t0)
	tr.feedBusy += d
	tr.feedDur = append(tr.feedDur, int32(min(d, 1<<31-1)))
	if sampled {
		layer := "engine.feed"
		if !tr.sequential {
			layer = "shard.feed"
		}
		s := t0.Sub(tr.t0).Nanoseconds()
		tr.spans = append(tr.spans, span{ID: id, Layer: layer, Seq: t.Seq, Start: s, End: s + d.Nanoseconds()})
		if tr.sequential {
			tr.eng[0].spanSeq = 0
		}
	}
	return err
}

func (tr *tracer) drain(r runner) {
	t0 := time.Now()
	r.Drain()
	d := time.Since(t0)
	tr.drainBusy += d
	tr.spans = append(tr.spans, tr.newSpan("driver.drain", 0, 0, t0, d))
}

// op records one session operation.
func (tr *tracer) op(k opKind, d time.Duration) {
	tr.opDur[k] = append(tr.opDur[k], d)
	tr.spans = append(tr.spans, tr.newSpan(opLayer[k], 0, 0, time.Now().Add(-d), d))
}

var opLayer = [opKinds]string{"shard.checkpoint", "shard.detach", "shard.attach", "shard.migrate", "shard.migrate"}

func (tr *tracer) encoded(d time.Duration, n int) {
	tr.encDur = append(tr.encDur, d)
	tr.ckptBytes = n
}

// restructured re-wraps the chains after a session operation. The replicas
// are parked on their feed channels between the barrier's acknowledgement
// and the driver's next send, so the driver may touch their operator lists
// here.
func (tr *tracer) restructured() {
	for i, sp := range tr.chains {
		tr.wrap(sp.Plan, tr.eng[i])
	}
}

// delivered is called from the sink callback for every result.
func (tr *tracer) delivered(query int, seq uint64) {
	if tr.sequential {
		e := tr.eng[0]
		e.clk[e.cur].delivered++
	}
	if seq%spanStride == 0 {
		q := &tr.sinkq[query]
		if q.last != seq {
			q.last = seq
			now := time.Since(tr.t0).Nanoseconds()
			q.spans = append(q.spans, span{Layer: "driver.sink", Seq: seq, Start: now, End: now})
		}
	}
}

// allSpans collects the spans of every goroutine once the pass is over. A
// sink span's parent is the Feed span of its input.
func (tr *tracer) allSpans() []span {
	feedOf := make(map[uint64]int)
	for _, s := range tr.spans {
		if s.Seq != 0 {
			feedOf[s.Seq] = s.ID
		}
	}
	out := slices.Clone(tr.spans)
	for _, e := range tr.eng {
		out = append(out, e.spans...)
	}
	for qi := range tr.sinkq {
		for _, s := range tr.sinkq[qi].spans {
			tr.nextID++
			s.ID, s.Parent = tr.nextID, feedOf[s.Seq]
			s.Layer = fmt.Sprintf("driver.sink.q%d", qi)
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b span) int { return int(a.Start - b.Start) })
	return out
}

// build assembles the traced twin of the workload's plan: the same workload,
// slice layout and options the public Build compiled, through
// plan.BuildStateSlice (sequential) or shard.New (sharded), with every
// operator wrapped.
func (tr *tracer) build(wl *workload, w stateslice.Workload, ends []stateslice.Time, sk *sinks) (runner, error) {
	tr.sinkq = make([]sinkTrace, len(sk.q))
	onResult := func(qi int, t *stateslice.Tuple) { sk.handle(stateslice.QueryID(qi), t) }
	cfg := plan.StateSliceConfig{Ends: ends, Migratable: wl.migratable, Name: "traced(" + wl.name + ")"}
	if wl.shards == 0 {
		tr.sequential = true
		cfg.OnResult = onResult
		sp, err := plan.BuildStateSlice(w, cfg)
		if err != nil {
			return nil, err
		}
		tr.eng = []*engineTrace{new(engineTrace)}
		tr.chains = []*plan.StateSlicePlan{sp}
		tr.wrap(sp.Plan, tr.eng[0])
		sess, err := engine.NewSession(sp.Plan, engine.Config{SampleEvery: sampleEvery})
		if err != nil {
			return nil, err
		}
		return &engineRunner{Session: sess, tr: tr}, nil
	}
	cfg.RawSliceResults = plan.RawSliceEligible(w, ends, wl.migratable)
	scfg := shard.Config{
		Shards:      wl.shards,
		SampleEvery: sampleEvery,
		OnResult:    onResult,
		SliceMerge:  cfg.RawSliceResults,
		Name:        cfg.Name,
	}
	if scfg.SliceMerge {
		for _, q := range w.Queries {
			scfg.Windows = append(scfg.Windows, q.Window)
		}
	}
	tr.eng = make([]*engineTrace, wl.shards)
	tr.chains = make([]*plan.StateSlicePlan, wl.shards)
	ex, err := shard.New(scfg, func(i int) (*plan.StateSlicePlan, error) {
		sp, err := plan.BuildStateSlice(w, cfg)
		if err != nil {
			return nil, err
		}
		tr.eng[i], tr.chains[i] = new(engineTrace), sp
		tr.wrap(sp.Plan, tr.eng[i])
		return sp, nil
	})
	if err != nil {
		return nil, err
	}
	return &shardRunner{ex: ex, tr: tr}, nil
}

// engineRunner drives the traced sequential engine session.
type engineRunner struct {
	*engine.Session
	tr *tracer
}

func (r *engineRunner) Finish() *stateslice.Result {
	t0 := time.Now()
	res := r.Session.Finish()
	r.tr.finish = time.Since(t0)
	return res
}

// shardRunner drives the traced shard executor.
type shardRunner struct {
	ex *shard.Executor
	tr *tracer
}

func (r *shardRunner) Feed(t *stateslice.Tuple) error { return r.ex.Feed(t) }
func (r *shardRunner) Drain()                         { r.ex.Drain() }

func (r *shardRunner) Finish() *stateslice.Result {
	t0 := time.Now()
	res, err := r.ex.Finish()
	r.tr.finish = time.Since(t0)
	res.Err = err
	return res
}

func (r *shardRunner) checkpoint() (func() ([]byte, error), error) {
	cp, err := r.ex.Checkpoint()
	if err != nil {
		return nil, err
	}
	return cp.Encode, nil
}

func (r *shardRunner) decode(blob []byte) error {
	_, err := shard.DecodeCheckpoint(blob)
	return err
}

func (r *shardRunner) attach(q stateslice.Query) (int, error) {
	id, _, err := r.ex.Attach(q)
	return id, err
}

func (r *shardRunner) detach(id int) error {
	_, err := r.ex.Detach(id)
	return err
}

func (r *shardRunner) migrate(to []stateslice.Time) error {
	_, err := r.ex.Migrate(to)
	return err
}

// reset zeroes the clocks once the warm-up prefix is through, so they cover
// the measured loop only. Every engine is quiescent when it runs.
func (tr *tracer) reset() {
	for _, e := range tr.eng {
		e.clk = [numClasses]opClock{}
		e.spans = nil
	}
	tr.feedBusy, tr.feedDur, tr.spans = 0, nil, nil
}

// quantiles returns the median and the maximum of the durations, in
// milliseconds.
func quantiles(ds []time.Duration) (p50, top float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return ms(s[len(s)/2]), ms(s[len(s)-1])
}

// metrics turns the clocks into the traced pass's per-layer metrics.
func (tr *tracer) metrics(v map[string]float64, st loopStats, res *stateslice.Result, cpu time.Duration) {
	wall := st.wall.Seconds()
	engines := float64(len(tr.eng))
	var sum [numClasses]opClock
	var busiest [numClasses]time.Duration
	var total []float64
	for _, e := range tr.eng {
		for c := range e.clk {
			k := e.clk[c]
			sum[c].busy += k.busy
			sum[c].calls += k.calls
			sum[c].idle += k.idle
			sum[c].delivered += k.delivered
			busiest[c] = max(busiest[c], k.busy)
		}
		total = append(total, e.busy().Seconds())
	}

	// Operator classes: self time, the sink callbacks they fired taken out.
	opBusy, callbacks, calls, idle := 0.0, 0.0, 0.0, 0.0
	for c := range sum {
		cb := float64(sum[c].delivered) * tr.callbackNS / 1e9
		self := sum[c].busy.Seconds() - cb
		v[classLayer[c]+".busy_s"] = self
		v[classLayer[c]+".busy_share"] = self / (wall * engines)
		opBusy += self
		callbacks += cb
		calls += float64(sum[c].calls)
		idle += float64(sum[c].idle)
	}
	inputs := float64(res.Inputs)
	v["operator.join.probe_cmp"] = float64(res.Meter.Probe) / inputs
	v["operator.join.purge_cmp"] = float64(res.Meter.Purge) / inputs
	v["operator.union.cmp"] = float64(res.Meter.Union) / inputs
	v["operator.filter.cmp"] = float64(res.Meter.Filter+res.Meter.Route) / inputs
	v["engine.steps_per_input"] = calls / float64(st.inputs)
	v["engine.idle_step_share"] = idle / calls

	feed := tr.feedBusy.Seconds()
	if tr.sequential {
		// Feed and Drain are synchronous: what they took beyond the
		// operators' Steps is the scheduler's own time, and what the loop
		// took beyond them is the driver's.
		engine := feed + tr.drainBusy.Seconds()
		v["engine.feed_busy_s"] = feed
		v["engine.finish_tail_s"] = tr.finish.Seconds()
		v["engine.sched_self_s"] = engine - opBusy - callbacks
		v["engine.sched_self_share"] = (engine - opBusy - callbacks) / wall
		v["driver.sink_callback_s"] = callbacks
		v["driver.sink_callback_share"] = callbacks / wall
		v["driver.self_share"] = (wall - engine) / wall
		return
	}

	// Sharded: the stages overlap, so the operator shares are of the
	// replicas' time and the rest of it is idle — waiting for input, blocked
	// on the merge layer inside a tap, or the replica's own scheduling.
	v["shard.replica.idle_share"] = 1 - opBusy/(wall*engines)
	v["shard.replica.join_busy_s"] = busiest[classJoin].Seconds()
	v["shard.replica.union_busy_s"] = busiest[classUnion].Seconds()
	v["shard.replica.busy_imbalance"] = imbalance(total)
	cmp := make([]float64, len(res.ReplicaComparisons))
	for i, c := range res.ReplicaComparisons {
		cmp[i] = float64(c)
	}
	v["shard.replica_cmp_imbalance"] = imbalance(cmp)

	// Feed calls more than ten times the median are the outside view of
	// back-pressure: the driver blocked on a full feed channel.
	durs := slices.Clone(tr.feedDur)
	slices.Sort(durs)
	slowN, slowS := 0, 0.0
	if len(durs) > 0 {
		limit := 10 * int64(durs[len(durs)/2])
		for i := len(durs) - 1; i >= 0 && int64(durs[i]) > limit; i-- {
			slowN++
			slowS += float64(durs[i]) / 1e9
		}
	}
	v["shard.feed_busy_s"] = feed
	v["shard.feed_slow_calls"] = float64(slowN)
	v["shard.feed_slow_s"] = slowS
	v["shard.finish_tail_s"] = tr.finish.Seconds()
	sinkS := float64(res.TotalOutputs()) * st.share(res) * tr.callbackNS / 1e9
	v["driver.sink_callback_s"] = sinkS
	// Everything the process burned that no clock of ours covers: k-merge,
	// assembly, channel hand-offs, the runtime.
	v["shard.residual_cpu_s"] = cpu.Seconds() - (feed - slowS) - opBusy - sinkS

	if len(tr.opDur[opCheckpoint]) == 0 {
		return // no session operations: the barrier metrics do not apply
	}
	v["shard.checkpoint_ms"], v["shard.checkpoint_max_ms"] = quantiles(tr.opDur[opCheckpoint])
	v["shard.checkpoint_bytes"] = float64(tr.ckptBytes)
	v["shard.ckpt_encode_ms"], _ = quantiles(tr.encDur)
	v["shard.ckpt_decode_ms"] = ms(tr.decode)
	v["shard.attach_ms"], v["shard.attach_max_ms"] = quantiles(tr.opDur[opAttach])
	v["shard.detach_ms"], v["shard.detach_max_ms"] = quantiles(tr.opDur[opDetach])
	v["shard.migrate_ms"], v["shard.migrate_max_ms"] = quantiles(append(slices.Clone(tr.opDur[opMerge]), tr.opDur[opSplit]...))
}

// share is the part of a session's inputs the measured loop fed.
func (st loopStats) share(res *stateslice.Result) float64 {
	return float64(st.inputs) / float64(res.Inputs)
}

// imbalance is max over mean.
func imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	top, sum := 0.0, 0.0
	for _, x := range xs {
		top = max(top, x)
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(xs)))
}
