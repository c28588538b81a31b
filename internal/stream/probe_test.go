package stream

import (
	"math"
	"math/rand"
	"testing"
)

// checkKeyColumn fails unless the key column holds, slot for slot, the keys
// of the tuples Spans returns.
func checkKeyColumn(t *testing.T, s *State, when string) {
	t.Helper()
	ta, tb := s.Spans()
	for i, tp := range ta {
		if k := s.keys[s.head+i]; k != tp.Key {
			t.Fatalf("%s: first span, position %d: key column %d, tuple key %d", when, i, k, tp.Key)
		}
	}
	for i, tp := range tb {
		if k := s.keys[i]; k != tp.Key {
			t.Fatalf("%s: second span, position %d: key column %d, tuple key %d", when, i, k, tp.Key)
		}
	}
}

func TestStateKeyColumnFollowsTuples(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, other := NewState(), NewState()
		var seq uint64
		fresh := func() *Tuple {
			seq++
			return &Tuple{Seq: seq, Key: rng.Int63() - rng.Int63()}
		}
		wrapped, grown := false, false
		for step := 0; step < 4000; step++ {
			capBefore := len(s.buf)
			// Filling and draining phases alternate, so the head moves
			// off zero and the next filling phase wraps before it grows.
			insert := 600
			if step/400%2 == 1 {
				insert = 300
			}
			switch op := rng.Intn(1000); {
			case op < insert:
				s.Insert(fresh())
			case op < 960:
				s.PopFront()
			case op < 965: // Clear and restore reset the head, so they are rare
				s.Clear()
			case op < 995:
				// Merge: a second state's tuples arrive at the back.
				for n := rng.Intn(40); n > 0; n-- {
					other.Insert(fresh())
				}
				s.AppendAll(other)
				checkKeyColumn(t, other, "drained source")
			default:
				// Restore: what RestoreState does with a snapshot.
				snap := s.Snapshot()
				s.Clear()
				for _, tp := range snap {
					s.Insert(tp)
				}
			}
			if _, b := s.Spans(); b != nil {
				wrapped = true
			}
			if len(s.buf) > capBefore {
				grown = true
			}
			checkKeyColumn(t, s, "after step")
		}
		if !wrapped || !grown {
			t.Fatalf("seed %d: the sequence never wrapped the ring (%v) or never grew it (%v)", seed, wrapped, grown)
		}
	}
}

// opaque hides a predicate's concrete type, so NewMatcher falls back to
// calling Match on every tuple.
type opaque struct{ JoinPredicate }

func TestProbeKernelsAgreeWithMatch(t *testing.T) {
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	preds := []JoinPredicate{
		Equijoin{}, BandJoin{B: 0}, BandJoin{B: 1}, BandJoin{B: 1 << 62},
		BandJoin{B: math.MaxInt64}, BandJoin{B: -1}, CrossProduct{}, FractionMatch{S: 0.3},
	}
	s := NewState()
	var seq uint64
	for round := 0; round < 4; round++ {
		if round == 3 { // the ring holds 32: move the head so the last round wraps
			for range edge {
				s.PopFront()
			}
		}
		for _, k := range edge {
			seq++
			s.Insert(&Tuple{Seq: seq, Stream: StreamB, Key: k})
		}
	}
	if _, b := s.Spans(); b == nil {
		t.Fatal("fixture does not wrap")
	}
	for _, pred := range preds {
		kernel, generic := NewMatcher(pred), NewMatcher(opaque{pred})
		for _, k := range edge {
			probe := &Tuple{Seq: 1000, Stream: StreamA, Key: k}
			got := s.Probe(&kernel, probe, nil)
			want := s.Probe(&generic, probe, nil)
			if len(got) != len(want) {
				t.Fatalf("%s, key %d: kernel found %d matches, Match %d", pred, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, key %d: match %d differs: kernel %v (key %d), Match %v (key %d)",
						pred, k, i, got[i], got[i].Key, want[i], want[i].Key)
				}
			}
		}
	}
}
