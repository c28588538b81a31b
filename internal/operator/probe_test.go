package operator

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stateslice/internal/stream"
)

// opaque hides a predicate's concrete type: the operators then evaluate it
// through Match on every state tuple instead of over the key column.
type opaque struct{ stream.JoinPredicate }

// edgeKeyInput is a random two-stream feed whose keys sit at both ends of
// the int64 range, around zero, and in a small dense range.
func edgeKeyInput(n int, seed int64) []*stream.Tuple {
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(seed))
	var mb stream.ManualBuilder
	at := stream.Time(0)
	for i := 0; i < n; i++ {
		at += stream.Time(1+rng.Intn(300)) * stream.Millisecond
		key := edge[rng.Intn(len(edge))]
		if rng.Intn(3) == 0 {
			key = int64(rng.Intn(5))
		}
		mb.AddKeyed(stream.ID(rng.Intn(2)), at, key)
	}
	return mb.Tuples()
}

// joinRuns are the three operators that probe a window state, each as a
// function that runs the feed and returns its output queues.
var joinRuns = map[string]func(t *testing.T, pred stream.JoinPredicate, input []*stream.Tuple, m *CostMeter) []*stream.Queue{
	"SlicedBinaryJoin": func(t *testing.T, pred stream.JoinPredicate, input []*stream.Tuple, m *CostMeter) []*stream.Queue {
		entry, _, outs, ops := buildBinaryChain(t, []stream.Time{stream.Second, 4 * stream.Second, 9 * stream.Second}, pred)
		runChain(entry, ops, input, m)
		return outs
	},
	"SlicedOneWayJoin": func(t *testing.T, pred stream.JoinPredicate, input []*stream.Tuple, m *CostMeter) []*stream.Queue {
		entry, joins, outs := buildOneWayChain(t, []stream.Time{2 * stream.Second, 9 * stream.Second}, pred)
		ops := make([]Operator, len(joins))
		for i, j := range joins {
			ops[i] = j
		}
		runChain(entry, ops, input, m)
		return outs
	},
	"WindowJoin": func(t *testing.T, pred stream.JoinPredicate, input []*stream.Tuple, m *CostMeter) []*stream.Queue {
		in := stream.NewQueue()
		j, err := NewWindowJoin("j", 5*stream.Second, 9*stream.Second, pred, in)
		if err != nil {
			t.Fatal(err)
		}
		out := j.Out().NewQueue()
		runChain(in, []Operator{j}, input, m)
		return []*stream.Queue{out}
	},
}

// transcript renders everything the queues hold, in order: results as their
// (A.Seq, B.Seq) pair at their (Time, Seq), punctuations as their time.
func transcript(outs []*stream.Queue) string {
	var sb strings.Builder
	for i, q := range outs {
		fmt.Fprintf(&sb, "out %d:", i)
		for !q.Empty() {
			it := q.Pop()
			if it.IsPunct() {
				fmt.Fprintf(&sb, " |%d", it.Punct)
				continue
			}
			r := it.Tuple
			fmt.Fprintf(&sb, " %d,%d@%d/%d", r.A.Seq, r.B.Seq, r.Time, r.Seq)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestKeyKernelMatchesGenericProbe(t *testing.T) {
	preds := []stream.JoinPredicate{
		stream.Equijoin{},
		stream.BandJoin{B: 0}, stream.BandJoin{B: 1}, stream.BandJoin{B: 1 << 62}, stream.BandJoin{B: math.MaxInt64},
	}
	input := edgeKeyInput(600, 2006)
	for name, run := range joinRuns {
		for _, pred := range preds {
			var km, gm CostMeter
			kernel := transcript(run(t, pred, input, &km))
			generic := transcript(run(t, opaque{pred}, input, &gm))
			if kernel != generic {
				t.Errorf("%s, %s: the key-column probe and the Match probe emit different output", name, pred)
			}
			if km != gm {
				t.Errorf("%s, %s: meters differ: key-column probe %+v, Match probe %+v", name, pred, km, gm)
			}
			if km.Probe == 0 || !strings.Contains(kernel, ",") {
				t.Errorf("%s, %s: the feed compared or matched nothing; the test proves nothing", name, pred)
			}
		}
	}
}

// probeFixture is one slice holding n stream-B females with keys 0..n-1 and
// a stream-A male whose key none of them carries.
func probeFixture(tb testing.TB, pred stream.JoinPredicate, n int) (*SlicedBinaryJoin, *stream.Queue, *stream.Tuple) {
	in := stream.NewQueue()
	j, err := NewSlicedBinaryJoin("j", 0, stream.Time(10*n), pred, in)
	if err != nil {
		tb.Fatal(err)
	}
	females := make([]*stream.Tuple, n)
	for i := range females {
		females[i] = &stream.Tuple{Time: stream.Time(i), Seq: uint64(i + 1), Stream: stream.StreamB, Key: int64(i)}
	}
	j.RestoreState(stream.StreamB, females)
	male := &stream.Tuple{Time: stream.Time(n), Seq: uint64(n + 1), Stream: stream.StreamA, Key: -5}
	return j, in, male
}

// BenchmarkProbe times a male probing a full state without a hit: "kernel"
// scans the key column, "generic" calls Match on every tuple. ns/op divided
// by the state size is the price of one comparison.
func BenchmarkProbe(b *testing.B) {
	paths := []struct {
		name string
		pred stream.JoinPredicate
	}{{"kernel", stream.Equijoin{}}, {"generic", opaque{stream.Equijoin{}}}}
	sizes := []struct {
		name string
		n    int
	}{{"1k", 1 << 10}, {"16k", 1 << 14}}
	for _, p := range paths {
		for _, size := range sizes {
			b.Run(p.name+"/"+size.name, func(b *testing.B) {
				j, in, male := probeFixture(b, p.pred, size.n)
				var m CostMeter
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in.Push(stream.RoleItem(male, stream.RoleMale))
					j.Step(&m, -1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Probe), "ns/cmp")
			})
		}
	}
}
