package plan

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"stateslice/internal/engine"
	"stateslice/internal/fault"
	"stateslice/internal/operator"
	"stateslice/internal/stream"
)

// Barrier-consistent checkpoint and restore of a sliced chain.
//
// A checkpoint captures everything a fresh chain needs to continue the run
// exactly where the snapshot was taken: the per-slice window contents (the
// paper's sliced state, which is what makes the snapshot small and
// barrier-delimited), the engine's feed frontier, the slice boundary layout
// and the query-slot roster including detached slots. It is taken inside
// the same drain-edit-drain barrier migration and admission use, so nothing
// is in flight — every queue is empty and the window states are the
// complete execution state.
//
// Predicates are code and are not serialized: restore takes the founding
// workload from the caller (validated slot-by-slot against the snapshot)
// and re-synthesizes slots admitted mid-stream, which are always unfiltered
// by the admission rules, from their recorded windows alone.

// ChainCheckpoint is the in-memory snapshot of one sliced chain.
type ChainCheckpoint struct {
	// Name is the plan name at snapshot time (informational).
	Name string
	// Slots is the query roster in slot order: every query ever admitted,
	// built in or attached, detached ones marked dead.
	Slots []SlotCheckpoint
	// Fed and LastTime are the engine session's feed frontier: how many
	// source tuples were fed and the timestamp of the latest one.
	Fed      int
	LastTime stream.Time
	// Slices holds the chain layout and per-slice window contents, in
	// chain order.
	Slices []SliceCheckpoint
}

// SlotCheckpoint records one query slot of the roster.
type SlotCheckpoint struct {
	Window stream.Time
	Name   string
	Live   bool
	// Edges lists the slice indices feeding the slot's union, in the
	// union's input order. Ties on (Time, Seq) — matches of one probing
	// tuple gathered from adjacent slices — are emitted in input order,
	// and restructures (migration, admission) leave that order reflecting
	// their history rather than the slice layout: splitting a slice keeps
	// a query's matches coming oldest-first the way the unsplit slice
	// produced them, which puts the older slice ahead of the younger one.
	// A restored chain replays this order onto its freshly wired unions so
	// its output stays byte-identical to the live chain's. A slot reading
	// a fixed chain's shared union records its slice prefix in chain order.
	// Empty when the slot has no union (single-terminal plans) — such
	// chains cannot be restructured, so fresh wiring is already the right
	// order.
	Edges []int
}

// SliceCheckpoint records one slice: its range and the window states of
// both streams, oldest-first.
type SliceCheckpoint struct {
	Start, End stream.Time
	A, B       []*stream.Tuple
}

// Ends returns the snapshot's slice end boundaries, in chain order.
func (cp *ChainCheckpoint) Ends() []stream.Time {
	out := make([]stream.Time, len(cp.Slices))
	for i, s := range cp.Slices {
		out[i] = s.End
	}
	return out
}

// StateTuples returns the total number of tuples held across every slice's
// window states — the snapshot's dominant size component.
func (cp *ChainCheckpoint) StateTuples() int {
	n := 0
	for _, s := range cp.Slices {
		n += len(s.A) + len(s.B)
	}
	return n
}

// Checkpoint takes a barrier-consistent snapshot of the chain driven by s:
// the session drains to quiescence, the slice states and frontiers are
// copied while nothing is in flight, and feeding resumes. The snapshot is
// independent of the live chain (states are copied), so the session
// continues unaffected. Like migration and admission, Checkpoint cannot run
// from inside another restructuring barrier.
func (sp *StateSlicePlan) Checkpoint(s *engine.Session) (*ChainCheckpoint, error) {
	if s == nil || s.Plan() != sp.Plan {
		return nil, fmt.Errorf("plan: Checkpoint: %w", errNoSessionFor(sp))
	}
	if err := sp.beginRestructure("Checkpoint"); err != nil {
		return nil, err
	}
	defer sp.endRestructure()

	cp := &ChainCheckpoint{Name: sp.Plan.Name}
	err := s.Barrier(func() error {
		cp.Fed, cp.LastTime = s.Frontier()
		cp.Slots = make([]SlotCheckpoint, len(sp.w.Queries))
		for qi, q := range sp.w.Queries {
			cp.Slots[qi] = SlotCheckpoint{Window: q.Window, Name: q.Name, Live: sp.live[qi],
				Edges: sp.unionEdgeOrder(qi)}
		}
		cp.Slices = make([]SliceCheckpoint, len(sp.slices))
		for i, n := range sp.slices {
			if n.join.Pending() {
				// The barrier drained; a pending slice here means the
				// graph did not quiesce — refuse to snapshot torn state.
				return fmt.Errorf("plan: Checkpoint: slice %s still pending after drain: %w", n.join.Name(), errNotQuiescing())
			}
			start, end := n.join.Range()
			cp.Slices[i] = SliceCheckpoint{
				Start: start,
				End:   end,
				A:     n.join.StateSnapshot(stream.StreamA),
				B:     n.join.StateSnapshot(stream.StreamB),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// unionEdgeOrder returns the slice indices feeding slot qi's union in the
// union's current input order; a slot reading the shared union reports its
// slice prefix in chain order, the order a union of its own would have had.
// Every restructure reclaims the closed inputs inside its own barrier
// (rebuildOps), so the only closed inputs left are a just-detached slot's,
// kept until its union forwards MaxTime. Closed inputs appear in no slice's
// edge list and are skipped: at the barrier they are drained and inert, so
// only the live inputs define future ties.
func (sp *StateSlicePlan) unionEdgeOrder(qi int) []int {
	u := sp.unions[qi]
	if u == nil {
		return sp.sharedPrefix(qi)
	}
	owner := make(map[*stream.Queue]int)
	for si, n := range sp.slices {
		for _, e := range n.edges {
			if e.union == u {
				owner[e.queue] = si
			}
		}
	}
	var order []int
	for _, q := range u.InputSnapshot() {
		if si, ok := owner[q]; ok {
			order = append(order, si)
		}
	}
	return order
}

// sharedPrefix returns the slice indices slot qi reads through the shared
// union — 0 up to the slice holding its window — or nil when it does not
// read the shared union. Chains with a shared union are never restructured,
// so the prefix is fixed by the slot's window.
func (sp *StateSlicePlan) sharedPrefix(qi int) []int {
	if sp.shared == nil {
		return nil
	}
	k := sp.sliceOf(sp.w.Queries[qi].Window) + 1
	if k == 1 {
		return nil
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	return order
}

// applyEdgeOrder permutes slot qi's freshly wired union inputs into the
// checkpoint's recorded slice order, validating that the snapshot and the
// rebuilt chain agree on which slices feed the slot. A slot reading the
// shared union accepts only its slice prefix in chain order, which is what
// a fixed chain records.
func (sp *StateSlicePlan) applyEdgeOrder(qi int, order []int) error {
	u := sp.unions[qi]
	if u == nil {
		if prefix := sp.sharedPrefix(qi); prefix != nil {
			if !slices.Equal(order, prefix) {
				return fmt.Errorf("slot %d records union edges %v but the rebuilt chain's shared union reads slices %v in chain order — the checkpoint was taken from a differently shaped plan", qi, order, prefix)
			}
			return nil
		}
		return fmt.Errorf("slot %d records %d union edges but the rebuilt chain wires its results straight to the sink — the checkpoint was taken from a differently shaped plan", qi, len(order))
	}
	queues := make(map[int]*stream.Queue, len(order))
	for si, n := range sp.slices {
		for _, e := range n.edges {
			if e.union == u {
				queues[si] = e.queue
			}
		}
	}
	if len(order) != len(queues) {
		return fmt.Errorf("slot %d records %d union edges but the rebuilt chain wired %d", qi, len(order), len(queues))
	}
	qs := make([]*stream.Queue, len(order))
	for i, si := range order {
		q, ok := queues[si]
		if !ok {
			return fmt.Errorf("slot %d records a union edge from slice %d, which does not feed it in the rebuilt chain", qi, si)
		}
		delete(queues, si)
		qs[i] = q
	}
	return u.Reorder(qs)
}

// RestoreStateSlice builds a fresh chain from a checkpoint: the slice
// layout, query roster and window contents continue exactly where the
// snapshot was taken. w is the founding workload the checkpointed plan was
// built from — its queries must match the snapshot's leading slots window
// for window (predicates are code and travel with the caller, not the
// blob). Slots beyond the founding set were admitted mid-stream and are
// re-synthesized from the snapshot (admission admits only unfiltered
// queries, so the window and name reconstruct them fully).
//
// The caller seeds the driving session's feed frontier with the snapshot's
// Fed/LastTime (engine.Session.SeedFrontier) before feeding resumes.
func RestoreStateSlice(w Workload, cfg StateSliceConfig, cp *ChainCheckpoint) (*StateSlicePlan, error) {
	roster, live, err := restoredRoster(w, cp)
	if err != nil {
		return nil, err
	}
	if len(cp.Slices) == 0 {
		return nil, fmt.Errorf("plan: restore: checkpoint has no slices")
	}
	ends := cp.Ends()
	prev := stream.Time(0)
	for i, s := range cp.Slices {
		if s.Start != prev || s.End <= s.Start {
			return nil, fmt.Errorf("plan: restore: slice %d range [%s,%s) is not contiguous with the chain (expected start %s)", i, s.Start, s.End, prev)
		}
		prev = s.End
	}
	cfg.Ends = ends

	allLive, ascending := true, true
	for i, sl := range cp.Slots {
		if !sl.Live {
			allLive = false
		}
		if i > 0 && sl.Window < cp.Slots[i-1].Window {
			ascending = false
		}
	}

	var sp *StateSlicePlan
	if allLive && ascending {
		sp, err = BuildStateSlice(roster, cfg)
	} else {
		// Dead or out-of-window-order slots can only come from live
		// admission, which requires a migratable, fully unfiltered chain —
		// rebuild through the relaxed path that tolerates the roster shape
		// Attach/Detach leave behind.
		sp, err = buildRestoredChain(roster, cfg, live)
	}
	if err != nil {
		return nil, fmt.Errorf("plan: restore: %w", err)
	}
	copy(sp.live, live)

	for i, slc := range cp.Slices {
		for _, t := range append(append([]*stream.Tuple{}, slc.A...), slc.B...) {
			if t == nil {
				return nil, fmt.Errorf("plan: restore: slice %d holds a nil tuple", i)
			}
		}
		sp.slices[i].join.RestoreState(stream.StreamA, slc.A)
		sp.slices[i].join.RestoreState(stream.StreamB, slc.B)
	}
	// Replay the snapshot's union input order onto the fresh wiring: tie
	// order on (Time, Seq) follows input order, and on a chain that was
	// restructured mid-stream the live order reflects that history, not the
	// ascending-slice order a fresh build produces.
	for qi, sl := range cp.Slots {
		if len(sl.Edges) == 0 {
			continue
		}
		if err := sp.applyEdgeOrder(qi, sl.Edges); err != nil {
			return nil, fmt.Errorf("plan: restore: %w", err)
		}
	}
	return sp, nil
}

// restoredRoster reconstructs the full query roster from the founding
// workload and the snapshot's slot list.
func restoredRoster(w Workload, cp *ChainCheckpoint) (Workload, []bool, error) {
	if cp == nil {
		return Workload{}, nil, fmt.Errorf("plan: restore: nil checkpoint")
	}
	if len(cp.Slots) < len(w.Queries) {
		return Workload{}, nil, fmt.Errorf("plan: restore: checkpoint has %d query slots but the workload has %d queries — the checkpoint was taken from a different plan", len(cp.Slots), len(w.Queries))
	}
	for i, q := range w.Queries {
		if q.Window != cp.Slots[i].Window {
			return Workload{}, nil, fmt.Errorf("plan: restore: query %d window %s does not match the checkpoint's slot window %s — the checkpoint was taken from a different workload", i, q.Window, cp.Slots[i].Window)
		}
	}
	if len(cp.Slots) > len(w.Queries) && w.AnyFilter() {
		return Workload{}, nil, fmt.Errorf("plan: restore: checkpoint carries %d admitted slots beyond the founding workload, but the workload is filtered — admission requires an unfiltered chain, so this checkpoint is inconsistent", len(cp.Slots)-len(w.Queries))
	}
	roster := Workload{Join: w.Join, Queries: append([]Query{}, w.Queries...)}
	for _, sl := range cp.Slots[len(w.Queries):] {
		roster.Queries = append(roster.Queries, Query{Name: sl.Name, Window: sl.Window})
	}
	live := make([]bool, len(cp.Slots))
	for i, sl := range cp.Slots {
		live[i] = sl.Live
	}
	return roster, live, nil
}

// buildRestoredChain mirrors BuildStateSlice for the roster shapes live
// admission leaves behind — slots out of window order, dead slots — which
// Workload.Validate rejects for fresh builds (the ascending order is a
// founding-workload invariant, not a roster one). It is reachable only for
// migratable, fully unfiltered chains, so the construction needs no gates,
// no lineage and wires a union per slot, exactly as Attach does.
func buildRestoredChain(w Workload, cfg StateSliceConfig, live []bool) (*StateSlicePlan, error) {
	if len(w.Queries) == 0 || w.Join == nil {
		return nil, fmt.Errorf("restored roster is empty or has no join predicate")
	}
	if len(w.Queries) > 64 {
		return nil, fmt.Errorf("restored roster has %d slots; at most 64 supported", len(w.Queries))
	}
	if w.AnyFilter() {
		return nil, fmt.Errorf("a roster with dead or out-of-order slots implies live admission, which requires an unfiltered chain")
	}
	if !cfg.Migratable {
		return nil, fmt.Errorf("a roster with dead or out-of-order slots implies live admission, which requires a migratable chain")
	}
	if cfg.RawSliceResults {
		return nil, fmt.Errorf("RawSliceResults cannot be combined with Migratable (admitted rosters)")
	}
	ends := cfg.Ends
	maxLive := stream.Time(0)
	anyLive := false
	for qi, q := range w.Queries {
		if q.Window <= 0 {
			return nil, fmt.Errorf("slot %d has non-positive window %s", qi, q.Window)
		}
		if live[qi] {
			anyLive = true
			if q.Window > maxLive {
				maxLive = q.Window
			}
		}
	}
	if !anyLive {
		return nil, fmt.Errorf("restored roster has no live query")
	}
	if last := ends[len(ends)-1]; last != maxLive {
		return nil, fmt.Errorf("last slice boundary %s must equal the largest live window %s", last, maxLive)
	}

	name := cfg.Name
	if name == "" {
		name = "state-slice"
	}
	sp := &StateSlicePlan{
		Plan: &engine.Plan{Name: name},
		w:    w,
		cfg:  cfg,
	}
	entryQ := stream.NewQueue()
	sp.Plan.EntryA = []*stream.Queue{entryQ}
	sp.Plan.EntryB = []*stream.Queue{entryQ}
	sp.chainIn = operator.NewChainInput("chain-input", entryQ)
	sp.entryOps = append(sp.entryOps, sp.chainIn)

	start := stream.Time(0)
	var feed *operator.Port = sp.chainIn.Out()
	for _, end := range ends {
		join, err := operator.NewSlicedBinaryJoin(sliceName(start, end), start, end, w.Join, feed.NewQueue())
		if err != nil {
			return nil, fmt.Errorf("state-slice: %w", err)
		}
		sp.slices = append(sp.slices, &sliceNode{join: join})
		feed = join.Next()
		start = end
	}

	sp.unions = make([]*operator.Union, len(w.Queries))
	sp.sinks = make([]*operator.Sink, len(w.Queries))
	sp.live = append([]bool{}, live...)
	for qi := range w.Queries {
		sink := sp.newQuerySink(qi)
		u := operator.NewUnion(w.QueryName(qi) + ".union")
		sp.unions[qi] = u
		u.Out().AttachFunc(sink.Accept)
		sp.sinks[qi] = sink
	}
	for si := range sp.slices {
		if err := sp.wireSliceResults(si); err != nil {
			return nil, err
		}
	}
	sp.rebuildOps()
	return sp, nil
}

// ---------------------------------------------------------------------------
// Versioned binary blob encoding.
//
// Layout (all integers little-endian fixed width, strings and counts
// uvarint-length-prefixed):
//
//	magic u32 "SLCP" | version u16 | kind u8 (0 = chain)
//	name string
//	fed u64 | lastTime i64
//	nslots uvarint { window i64 | live u8 | name string |
//	                 nedges uvarint { slice-index uvarint } }
//	nslices uvarint { start i64 | end i64 |
//	                  nA uvarint { tuple } | nB uvarint { tuple } }
//
// A tuple encodes Time, Seq, Ord, Stream, Key, Value (IEEE 754 bits),
// Role, Level and CondMask. Window states hold source tuples only (A/B
// lineage pointers nil); a non-source tuple is an encoding error, never a
// silent truncation.

// CheckpointMagic identifies a checkpoint blob.
const CheckpointMagic uint32 = 0x53_4C_43_50 // "SLCP"

// ChainCheckpointVersion is the current blob version for chain snapshots.
const ChainCheckpointVersion uint16 = 1

// Blob kinds.
const (
	// KindChain marks a sequential chain checkpoint blob.
	KindChain byte = 0
	// KindSharded marks a sharded composite checkpoint blob (composed by
	// internal/shard from chain blobs).
	KindSharded byte = 1
)

// AppendTo serializes the checkpoint, appending to buf (which may be nil).
func (cp *ChainCheckpoint) AppendTo(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, CheckpointMagic)
	buf = binary.LittleEndian.AppendUint16(buf, ChainCheckpointVersion)
	buf = append(buf, KindChain)
	buf = appendString(buf, cp.Name)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Fed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.LastTime))
	buf = binary.AppendUvarint(buf, uint64(len(cp.Slots)))
	for _, sl := range cp.Slots {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sl.Window))
		if sl.Live {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendString(buf, sl.Name)
		buf = binary.AppendUvarint(buf, uint64(len(sl.Edges)))
		for _, si := range sl.Edges {
			buf = binary.AppendUvarint(buf, uint64(si))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(cp.Slices)))
	for i, s := range cp.Slices {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.End))
		var err error
		if buf, err = appendTuples(buf, s.A); err != nil {
			return nil, fmt.Errorf("plan: checkpoint encode: slice %d stream A: %w", i, err)
		}
		if buf, err = appendTuples(buf, s.B); err != nil {
			return nil, fmt.Errorf("plan: checkpoint encode: slice %d stream B: %w", i, err)
		}
	}
	return buf, nil
}

// DecodeChainCheckpoint decodes one chain checkpoint blob from the front of
// data, returning the remainder (empty for a standalone blob; the sharded
// composite concatenates several).
func DecodeChainCheckpoint(data []byte) (*ChainCheckpoint, []byte, error) {
	d := &decoder{buf: data}
	if m := d.u32(); m != CheckpointMagic {
		return nil, nil, fmt.Errorf("plan: checkpoint decode: bad magic %#x", m)
	}
	if v := d.u16(); v != ChainCheckpointVersion {
		return nil, nil, fmt.Errorf("plan: checkpoint decode: unsupported chain blob version %d (this build reads version %d)", v, ChainCheckpointVersion)
	}
	if k := d.u8(); k != KindChain {
		return nil, nil, fmt.Errorf("plan: checkpoint decode: expected a chain blob, got kind %d", k)
	}
	cp := &ChainCheckpoint{}
	cp.Name = d.str()
	cp.Fed = int(d.u64())
	cp.LastTime = stream.Time(d.u64())
	nslots := d.uvarint()
	for i := uint64(0); i < nslots && d.err == nil; i++ {
		sl := SlotCheckpoint{Window: stream.Time(d.u64()), Live: d.u8() == 1}
		sl.Name = d.str()
		nedges := d.uvarint()
		if nedges > uint64(len(d.buf)) {
			d.err = fmt.Errorf("truncated blob (edge count %d exceeds remaining payload)", nedges)
			break
		}
		for j := uint64(0); j < nedges && d.err == nil; j++ {
			sl.Edges = append(sl.Edges, int(d.uvarint()))
		}
		cp.Slots = append(cp.Slots, sl)
	}
	nslices := d.uvarint()
	for i := uint64(0); i < nslices && d.err == nil; i++ {
		s := SliceCheckpoint{Start: stream.Time(d.u64()), End: stream.Time(d.u64())}
		s.A = d.tuples()
		s.B = d.tuples()
		cp.Slices = append(cp.Slices, s)
	}
	if d.err != nil {
		return nil, nil, fmt.Errorf("plan: checkpoint decode: %w", d.err)
	}
	return cp, d.buf, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendTuples appends a uvarint-counted run of source tuples.
func appendTuples(buf []byte, ts []*stream.Tuple) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		if t.A != nil || t.B != nil {
			return nil, fmt.Errorf("tuple %s is a joined result, not a source tuple; window states must hold source tuples only", t)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Time))
		buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, t.Ord)
		buf = append(buf, byte(t.Stream))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Key))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Value))
		buf = append(buf, byte(t.Role))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Level))
		buf = binary.LittleEndian.AppendUint64(buf, t.CondMask)
	}
	return buf, nil
}

// decoder is a cursor over a checkpoint blob with sticky error handling.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("truncated blob (need %d bytes, have %d)", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("truncated blob (bad uvarint)")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("truncated blob (string of %d bytes, have %d)", n, len(d.buf))
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) tuples() []*stream.Tuple {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Each encoded tuple is at least 58 bytes; reject counts the remaining
	// buffer cannot possibly hold before allocating.
	if n > uint64(len(d.buf)/58+1) {
		d.err = fmt.Errorf("truncated blob (tuple count %d exceeds remaining payload)", n)
		return nil
	}
	out := make([]*stream.Tuple, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		t := &stream.Tuple{}
		t.Time = stream.Time(d.u64())
		t.Seq = d.u64()
		t.Ord = d.u64()
		t.Stream = stream.ID(d.u8())
		t.Key = int64(d.u64())
		t.Value = math.Float64frombits(d.u64())
		t.Role = stream.Role(d.u8())
		t.Level = int(d.u64())
		t.CondMask = d.u64()
		out = append(out, t)
	}
	return out
}

// errNoSessionFor wraps the no-session sentinel with the plan's name.
func errNoSessionFor(sp *StateSlicePlan) error {
	return fmt.Errorf("chain %s: %w", sp.Plan.Name, fault.ErrNoSession)
}

// errNotQuiescing returns the non-quiescence sentinel.
func errNotQuiescing() error { return fault.ErrNotQuiescing }
