package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"stateslice/internal/engine"
	"stateslice/internal/plan"
	"stateslice/internal/stream"
)

// Long-session churn: every attach, detach, merge and split closes union
// inputs and leaves a dead slot behind. The chain reclaims both at the next
// restructure barrier, so a session's scheduling cost depends on its current
// shape, not on how many restructures it has been through.

const (
	// churnCycles is the number of measured detach/attach/merge/split
	// cycles.
	churnCycles = 300
	// churnBlock is the number of inputs fed before each operation: a
	// multiple of periodicInput's period, so every cycle reads a
	// time-shifted copy of the same input.
	churnBlock = 16
	// churnWarm fills the largest window (8 s at 20 inputs/s) before the
	// first cycle.
	churnWarm = 160
	// churnDigest is resultDigest of every query's result sequence after
	// the script, over the same results recorded before closed inputs and
	// dead slots were reclaimed: reclamation must not change a single
	// delivered result or its position.
	churnDigest = "12145ba1dd7a902bd5c21e92b5ec37721a45eb35e4cf966322ede4b5801b69a0"
)

// churnWindows are the built-in queries; the one at index churnHolder is
// detached and re-attached (under a fresh slot) every cycle, and the
// migrations merge the slices on either side of the 4 s boundary and split
// them again.
var (
	churnWindows = []stream.Time{2 * stream.Second, 4 * stream.Second, 6 * stream.Second, 8 * stream.Second}
	churnFull    = churnWindows
	churnMerged  = []stream.Time{2 * stream.Second, 6 * stream.Second, 8 * stream.Second}
	churnHolder  = 2
)

// periodicInput returns n tuples, one every 50 ms, alternating stream A and
// B over eight keys. Its (stream, key) pattern repeats every 16 tuples.
func periodicInput(n int) []*stream.Tuple {
	out := make([]*stream.Tuple, n)
	for i := range out {
		t := &stream.Tuple{
			Time: stream.Time(i+1) * 50 * stream.Millisecond,
			Seq:  uint64(i + 1),
			Ord:  uint64(i/2 + 1),
			Key:  int64(i / 2 % 8),
		}
		if i%2 == 1 {
			t.Stream = stream.StreamB
		}
		out[i] = t
	}
	return out
}

// churnRun is one execution mode under the churn script.
type churnRun interface {
	feed(ts []*stream.Tuple) error
	attach(q plan.Query) (int, error)
	detach(qi int) error
	migrate(to []stream.Time) error
	// shape reports, at a quiescent point, the union inputs registered
	// across every slot, the scheduled operators and the comparisons
	// charged so far, summed over every chain.
	shape() (inputs, ops int, cmp uint64)
	finish() (*engine.Result, error)
}

// chainShape adds one chain's union inputs and operator count.
func chainShape(sp *plan.StateSlicePlan) (inputs, ops int) {
	for qi := range sp.Sinks() {
		if u := sp.QueryUnion(qi); u != nil {
			inputs += u.Inputs()
		}
	}
	return inputs, len(sp.Plan.Ops)
}

// seqChurn drives one migratable chain on the sequential engine.
type seqChurn struct {
	sp   *plan.StateSlicePlan
	sess *engine.Session
}

func (r *seqChurn) feed(ts []*stream.Tuple) error {
	for _, t := range ts {
		if err := r.sess.Feed(t); err != nil {
			return err
		}
	}
	return nil
}
func (r *seqChurn) attach(q plan.Query) (int, error) { return r.sp.Attach(r.sess, q) }
func (r *seqChurn) detach(qi int) error              { return r.sp.Detach(r.sess, qi) }
func (r *seqChurn) migrate(to []stream.Time) error   { return r.sp.MigrateTo(r.sess, to) }
func (r *seqChurn) finish() (*engine.Result, error)  { res := r.sess.Finish(); return res, res.Err }
func (r *seqChurn) shape() (inputs, ops int, cmp uint64) {
	inputs, ops = chainShape(r.sp)
	return inputs, ops, r.sess.Meter().Comparisons()
}

// shardChurn drives the sharded executor on the per-query merge path.
type shardChurn struct{ e *Executor }

func (r *shardChurn) feed(ts []*stream.Tuple) error {
	for _, t := range ts {
		if err := r.e.Feed(t); err != nil {
			return err
		}
	}
	return nil
}
func (r *shardChurn) attach(q plan.Query) (int, error) {
	qi, _, err := r.e.Attach(q)
	return qi, err
}
func (r *shardChurn) detach(qi int) error {
	_, err := r.e.Detach(qi)
	return err
}
func (r *shardChurn) migrate(to []stream.Time) error {
	_, err := r.e.Migrate(to)
	return err
}
func (r *shardChurn) finish() (*engine.Result, error) { return r.e.Finish() }

// shape reads the replicas' chains after a drain barrier: each replica's
// acknowledgement orders its mutations before these reads, and no replica
// runs again until the next feed.
func (r *shardChurn) shape() (inputs, ops int, cmp uint64) {
	r.e.Drain()
	for _, rep := range r.e.replicas {
		in, n := chainShape(rep.sp)
		inputs += in
		ops += n
		cmp += rep.sess.Meter().Comparisons()
	}
	return inputs, ops, cmp
}

// runChurn plays the churn script: warm-up, one unmeasured cycle (its
// merge/split leaves the lazily purged state every later cycle starts
// from), then churnCycles measured ones. After every measured cycle the
// union input count, the operator count and the cycle's comparisons must
// equal the first measured cycle's.
func runChurn(t *testing.T, r churnRun) *engine.Result {
	t.Helper()
	input := periodicInput(churnWarm + (churnCycles+1)*4*churnBlock)
	pos := 0
	next := func(n int) []*stream.Tuple {
		pos += n
		return input[pos-n : pos]
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("at input %d: %v", pos, err)
		}
	}
	holder := churnHolder
	must(r.feed(next(churnWarm)))
	var baseIn, baseOps int
	var baseCmp, lastCmp uint64
	for c := 0; c <= churnCycles; c++ {
		must(r.feed(next(churnBlock)))
		must(r.detach(holder))
		must(r.feed(next(churnBlock)))
		qi, err := r.attach(plan.Query{Window: churnWindows[churnHolder]})
		must(err)
		holder = qi
		must(r.feed(next(churnBlock)))
		must(r.migrate(churnMerged))
		must(r.feed(next(churnBlock)))
		must(r.migrate(churnFull))

		in, ops, cmp := r.shape()
		cycleCmp := cmp - lastCmp
		lastCmp = cmp
		switch c {
		case 0:
		case 1:
			baseIn, baseOps, baseCmp = in, ops, cycleCmp
		default:
			if in != baseIn || ops != baseOps || cycleCmp != baseCmp {
				t.Fatalf("cycle %d: %d union inputs, %d operators, %.2f comparisons per input; cycle 1 had %d, %d, %.2f",
					c, in, ops, float64(cycleCmp)/(4*churnBlock), baseIn, baseOps, float64(baseCmp)/(4*churnBlock))
			}
		}
	}
	res, err := r.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderViolations != 0 {
		t.Fatalf("%d order violations", res.OrderViolations)
	}
	if want := len(churnWindows) + churnCycles + 1; len(res.Results) != want {
		t.Fatalf("%d query slots, want %d", len(res.Results), want)
	}
	return res
}

// resultDigest hashes every query's result sequence: per query its index
// and length, then per result Time, Seq and both sources' Stream and Ord,
// little-endian.
func resultDigest(res *engine.Result) string {
	h := sha256.New()
	var buf []byte
	for qi, rs := range res.Results {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(qi))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rs)))
		for _, t := range rs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Time))
			buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
			buf = append(buf, byte(t.A.Stream), byte(t.B.Stream))
			buf = binary.LittleEndian.AppendUint64(buf, t.A.Ord)
			buf = binary.LittleEndian.AppendUint64(buf, t.B.Ord)
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestAdmitLongChurnReclaims runs 300 detach/attach/merge/split cycles on a
// migratable chain, sequentially and across two shards. The debris of each
// restructure — closed union inputs, the detached slot's union and sink —
// must be gone by the end of the cycle, so the union input count, the
// scheduled operator count and the comparisons per input stay at their
// first-cycle values; every query's results must be byte-identical to the
// digest pinned before reclamation existed, and the sharded run must agree
// with the sequential one query by query.
func TestAdmitLongChurnReclaims(t *testing.T) {
	w := chainWorkload(churnWindows...)
	cfg := plan.StateSliceConfig{Migratable: true, Collect: true}

	sp, err := plan.BuildStateSlice(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(sp.Plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	seq := runChurn(t, &seqChurn{sp: sp, sess: sess})
	if got := resultDigest(seq); got != churnDigest {
		t.Errorf("sequential results digest %s, want %s", got, churnDigest)
	}

	// One punctuation broadcast per cycle keeps every cycle's union
	// comparisons identical.
	e, err := New(Config{Shards: 2, Collect: true, PunctEvery: 4 * churnBlock}, factory(w, plan.StateSliceConfig{Migratable: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(t.Context())
	assertByteIdentical(t, "p=2", runChurn(t, &shardChurn{e: e}), seq)
}
