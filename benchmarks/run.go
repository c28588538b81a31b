package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"stateslice"
	"stateslice/benchmarks/oracle"
)

// runner is the part of a session the driver loops use. The untraced passes
// drive the public stateslice.Session through it; the traced pass drives the
// internal engine session or shard executor it built around wrapped
// operators.
type runner interface {
	Feed(t *stateslice.Tuple) error
	Drain()
	Finish() *stateslice.Result
}

// sessionOps are the session operations churn scripts; the runners of sharded
// plans have them. checkpoint returns the snapshot's serializer, which the
// driver calls the way a user persisting the snapshot would.
type sessionOps interface {
	checkpoint() (encode func() ([]byte, error), err error)
	decode(blob []byte) error
	attach(q stateslice.Query) (int, error)
	detach(id int) error
	migrate(to []stateslice.Time) error
}

// publicRunner drives a plan through the public API.
type publicRunner struct {
	stateslice.Session
	plan stateslice.Plan
}

func (r publicRunner) checkpoint() (func() ([]byte, error), error) {
	cp, err := r.Session.Checkpoint(context.Background())
	if err != nil {
		return nil, err
	}
	return cp.Bytes, nil
}

func (r publicRunner) decode(blob []byte) error {
	_, err := stateslice.DecodeCheckpoint(blob)
	return err
}

func (r publicRunner) attach(q stateslice.Query) (int, error) {
	id, err := r.Session.Attach(q)
	return int(id), err
}

func (r publicRunner) detach(id int) error { return r.Session.Detach(stateslice.QueryID(id)) }

func (r publicRunner) migrate(to []stateslice.Time) error { return r.plan.Migrate(to) }

// opKind is one step of churn's session-operation cycle.
type opKind int

const (
	opCheckpoint opKind = iota
	opDetach
	opAttach
	opMerge
	opSplit
	opKinds
)

// The query churn rotates is Q7 (window 17.5 s): each cycle detaches its
// current holder and attaches a fresh query with the same window, which gets
// a new id. The migration merges the slices on either side of the 15 s
// boundary and splits them again.
const (
	churnQuery   = 6
	churnMergeAt = 15 * stateslice.Second
)

// churn is the script of one session's operations and its progress: op k
// (1-based) runs after warm+k×opEvery inputs, cycling through the five
// kinds.
type churn struct {
	sess         sessionOps
	every, next  int
	full, merged []stateslice.Time
	window       stateslice.Time
	holder       int // id of the query currently holding the rotating window
	lastBlob     []byte
	ops, failed  int
	shadow       time.Duration // total time the feed stood still inside operations
}

func newChurn(wl *workload, ops sessionOps, warm int, ends []stateslice.Time, windows []stateslice.Time) *churn {
	c := &churn{sess: ops, every: wl.opEvery, next: warm + wl.opEvery, full: ends, window: windows[churnQuery], holder: churnQuery}
	for _, e := range ends {
		if e != churnMergeAt {
			c.merged = append(c.merged, e)
		}
	}
	return c
}

// attaches is how many queries a session of n measured inputs admits.
func (wl *workload) attaches(n int) int {
	if wl.opEvery == 0 {
		return 0
	}
	ops := (n - 1) / wl.opEvery
	return (ops + int(opKinds) - 1 - int(opAttach)) / int(opKinds)
}

// oracleQueries extends the built-in queries with the active intervals the
// script of a session of n measured inputs produces.
func (wl *workload) oracleQueries(base []oracle.Query, warm, n int) []oracle.Query {
	qs := append([]oracle.Query(nil), base...)
	if wl.opEvery == 0 {
		return qs
	}
	holder := churnQuery
	for k := 1; k*wl.opEvery < n; k++ {
		pos := warm + k*wl.opEvery
		switch opKind((k - 1) % int(opKinds)) {
		case opDetach:
			qs[holder].To = pos
		case opAttach:
			holder = len(qs)
			qs = append(qs, oracle.Query{Window: base[churnQuery].Window, From: pos, To: oracle.Forever})
		}
	}
	return qs
}

// apply runs the operation due before input i, if any.
func (c *churn) apply(i int, tr *tracer) {
	if c == nil || i != c.next {
		return
	}
	kind := opKind(c.ops % int(opKinds))
	c.next += c.every
	c.ops++
	start := time.Now()
	t0 := start
	var err error
	switch kind {
	case opCheckpoint:
		var enc func() ([]byte, error)
		if enc, err = c.sess.checkpoint(); err == nil {
			if tr != nil {
				tr.op(opCheckpoint, time.Since(t0))
				t0 = time.Now()
			}
			c.lastBlob, err = enc()
			if tr != nil {
				tr.encoded(time.Since(t0), len(c.lastBlob))
			}
		}
	case opDetach:
		err = c.sess.detach(c.holder)
	case opAttach:
		c.holder, err = c.sess.attach(stateslice.Query{Window: c.window})
	case opMerge:
		err = c.sess.migrate(c.merged)
	case opSplit:
		err = c.sess.migrate(c.full)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "  session op %d (kind %d) failed: %v\n", c.ops, kind, err)
	} else if tr != nil && kind != opCheckpoint {
		tr.op(kind, time.Since(t0))
	}
	if tr != nil {
		tr.restructured()
	}
	c.shadow += time.Since(start)
}

// session is one pass's plan and session, warmed up.
type session struct {
	wl      *workload
	plan    stateslice.Plan
	r       runner
	sk      *sinks
	ch      *churn
	windows []stateslice.Time

	parse, compile, warmup time.Duration
	failedFeeds            int
}

// setupTime is one sample of setup_s: parse, compile and session construction
// through the warm-up prefix.
func (s *session) setupTime() time.Duration { return s.parse + s.compile + s.warmup }

// setup parses the workload's SliceQL text, builds its plan (the same parse →
// optimizer → lower spine CompileQuery runs), opens a session and feeds the
// warm-up prefix. n is the number of measured inputs the session will
// see (it sizes the sink table for scripted attaches); gap > 0 arms latency
// sampling; tr != nil builds the traced twin of the plan instead of the
// public session.
func setup(wl *workload, in *input, n int, gap time.Duration, tr *tracer) (*session, error) {
	s := &session{wl: wl}
	t0 := time.Now()
	w, err := stateslice.ParseWorkload(wl.text())
	if err != nil {
		return nil, err
	}
	s.parse = time.Since(t0)
	// Every shard replica builds its chain from this workload value, and
	// Attach appends to its query list: without spare capacity each replica
	// appends to a copy instead of racing for the same backing array.
	w.Queries = slices.Clip(w.Queries)
	for _, q := range w.Queries {
		s.windows = append(s.windows, q.Window)
	}
	s.sk = newSinks(len(w.Queries)+wl.attaches(n), in.warm, gap)
	s.sk.tr = tr

	opts := append(wl.options(), stateslice.WithResultHandler(s.sk.handle))
	if s.plan, err = stateslice.Build(w, wl.strategy, opts...); err != nil {
		return nil, err
	}
	if tr == nil {
		sess, err := s.plan.NewSession(stateslice.RunConfig{SampleEvery: sampleEvery})
		if err != nil {
			return nil, err
		}
		s.r = publicRunner{Session: sess, plan: s.plan}
	} else if s.r, err = tr.build(wl, w, s.plan.Ends(), s.sk); err != nil {
		return nil, err
	}
	s.compile = time.Since(t0) - s.parse
	if wl.opEvery > 0 {
		s.ch = newChurn(wl, s.r.(sessionOps), in.warm, s.plan.Ends(), s.windows)
	}

	t0 = time.Now()
	for i := 0; i < in.warm; i++ {
		if err := s.r.Feed(in.tuple(i)); err != nil {
			s.failedFeeds++
		}
	}
	s.r.Drain()
	s.warmup = time.Since(t0)
	return s, nil
}

// sampleEvery is the state monitor's sampling period, in inputs.
const sampleEvery = 64

// segments is how many equal consecutive parts a closed-loop pass is cut
// into; its rate is the median part's.
const segments = 5

// loopStats is what a driver loop measured from its first input to the end
// of its Drain.
type loopStats struct {
	inputs int
	wall   time.Duration
	marks  []time.Duration // closed loop: elapsed at the end of every segment
	late   *hist           // paced loop: how late each input was fed
}

// closedLoop feeds inputs [from, to) back to back, one driver goroutine, and
// drains. A pass that takes more than three times its nominal duration — a
// host far slower than the reference — stops at the next segment boundary;
// the oracle is cut at whatever was fed.
func closedLoop(s *session, in *input, from, to int, nominal time.Duration, tr *tracer) loopStats {
	seg := max((to-from)/segments, 1)
	st := loopStats{}
	start := time.Now()
	i := from
	for i < to {
		s.ch.apply(i, tr)
		t := in.tuple(i)
		var err error
		if tr != nil {
			err = tr.feed(s.r, t)
		} else {
			err = s.r.Feed(t)
		}
		if err != nil {
			s.failedFeeds++
		}
		i++
		if (i-from)%seg == 0 && i < to {
			el := time.Since(start)
			if el > 3*nominal {
				break // the segment just fed is the last; it ends with the drain
			}
			st.marks = append(st.marks, el)
		}
	}
	if tr != nil {
		tr.drain(s.r)
	} else {
		s.r.Drain()
	}
	st.inputs = i - from
	st.wall = time.Since(start)
	st.marks = append(st.marks, st.wall)
	return st
}

// medianRate is the median per-segment input rate of a closed loop.
func (st loopStats) medianRate() float64 {
	per := float64(st.inputs) / float64(len(st.marks))
	rates := make([]float64, len(st.marks))
	prev := time.Duration(0)
	for i, m := range st.marks {
		rates[i] = per / (m - prev).Seconds()
		prev = m
	}
	slices.Sort(rates)
	return rates[len(rates)/2]
}

// sleepSlack is how much earlier than its deadline waitUntil stops sleeping:
// timers on the reference host fire on a tick of about 1.1 ms, so a sleep
// cannot end a sub-millisecond wait on time.
const sleepSlack = 2 * time.Millisecond

// waitUntil returns at the deadline: it sleeps while the deadline is far and
// then yields in a loop. Yielding hands the processor to any goroutine that
// wants it — the replicas and merge workers of a sharded plan run whenever
// they have work — so the driver only takes time nobody else is using, but it
// does keep one processor awake.
func waitUntil(deadline time.Time) {
	if d := time.Until(deadline); d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// pacedLoop feeds inputs [from, to) open loop: input i is due at a fixed
// time, one gap after input i-1, whether or not the system kept up. That due
// time is when the input was created: it is the instant result latencies are
// measured from, so the wait a stall imposes on later inputs counts.
func pacedLoop(s *session, in *input, from, to int) loopStats {
	st := loopStats{late: new(hist)}
	gap := s.wl.gap()
	start := time.Now()
	s.sk.start = start
	for i := from; i < to; i++ {
		due := start.Add(time.Duration(i-from) * gap)
		waitUntil(due)
		st.late.add(time.Since(due))
		s.ch.apply(i, nil)
		if err := s.r.Feed(in.tuple(i)); err != nil {
			s.failedFeeds++
		}
	}
	s.r.Drain()
	st.inputs = to - from
	st.wall = time.Since(start)
	return st
}

// procStats is a reading of the process-wide counters the saturation pass
// reports as deltas.
type procStats struct {
	cpu           time.Duration // user + system, from getrusage
	mem           runtime.MemStats
	gcCPU, allCPU float64 // seconds, as the runtime accounts them
}

func readProc() procStats {
	var p procStats
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&p.mem)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return p
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
