package oracle

import "testing"

// fold digests a list of (male, a, b) results the way a sink would.
func fold(results [][3]uint64) Digest {
	var r Rolling
	for _, x := range results {
		r.Add(x[0], x[1], x[2])
	}
	return r.Sum()
}

func TestRunSemantics(t *testing.T) {
	// Sequence numbers are positions plus one.
	events := []Event{
		{Time: 0, Key: 1, Value: 0.9, Stream: 0},  // 1: a
		{Time: 5, Key: 1, Value: 0.1, Stream: 1},  // 2: b, joins a1 (diff 5)
		{Time: 10, Key: 1, Value: 0.2, Stream: 0}, // 3: a, joins b2 (diff 5)
		{Time: 10, Key: 2, Value: 0.5, Stream: 1}, // 4: b, other key
		{Time: 15, Key: 1, Value: 0.5, Stream: 1}, // 5: b, joins a3 (diff 5) and a1 (diff 15)
	}
	queries := []Query{
		{Window: 5, To: Forever},             // closed window: diff 5 joins
		{Window: 15, To: Forever},            // also reaches (a1, b5)
		{Window: 15, MinA: 0.5, To: Forever}, // only pairs whose A event has value >= 0.5
		{Window: 15, From: 3, To: Forever},   // attached before input 3: sees males 4 and 5 only
		{Window: 15, To: 3},                  // detached before input 3: sees males up to 3
	}
	got := Run(events, queries, []int{2, 5})
	wantFull := []Digest{
		fold([][3]uint64{{2, 1, 2}, {3, 3, 2}, {5, 3, 5}}),
		fold([][3]uint64{{2, 1, 2}, {3, 3, 2}, {5, 3, 5}, {5, 1, 5}}),
		fold([][3]uint64{{2, 1, 2}, {5, 1, 5}}),
		fold([][3]uint64{{5, 1, 5}, {5, 3, 5}}), // group order inside male 5 is free
		fold([][3]uint64{{2, 1, 2}, {3, 3, 2}}),
	}
	for qi, want := range wantFull {
		if got[1][qi] != want {
			t.Errorf("query %d at the full cut: got %+v, want %+v", qi, got[1][qi], want)
		}
	}
	if want := fold([][3]uint64{{2, 1, 2}}); got[0][0] != want || got[0][1] != want {
		t.Errorf("cut after two inputs: got %+v and %+v, want %+v", got[0][0], got[0][1], want)
	}
	if got[0][3].Count != 0 {
		t.Errorf("a query attached later has results at an earlier cut: %+v", got[0][3])
	}
}

func TestRollingIsOrderSensitiveAcrossMales(t *testing.T) {
	inOrder := fold([][3]uint64{{2, 1, 2}, {3, 3, 2}})
	swapped := fold([][3]uint64{{3, 3, 2}, {2, 1, 2}})
	if inOrder == swapped {
		t.Error("swapping two males' results left the digest unchanged")
	}
	if a, b := fold([][3]uint64{{5, 1, 5}, {5, 3, 5}}), fold([][3]uint64{{5, 3, 5}, {5, 1, 5}}); a != b {
		t.Error("reordering one male's group changed the digest")
	}
	if a, b := fold([][3]uint64{{5, 1, 5}, {5, 3, 5}}), fold([][3]uint64{{5, 1, 5}}); a == b {
		t.Error("dropping a result left the digest unchanged")
	}
}

func TestParseQueries(t *testing.T) {
	qs, err := ParseQueries(`-- a comment with WINDOW 1 s in it
Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 500 ms;
Q2: SELECT * FROM A JOIN B ON A.key = B.key WHERE A.value >= 0.125 WINDOW 2 s;`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Query{{Window: 500_000, To: Forever}, {Window: 2_000_000, MinA: 0.125, To: Forever}}
	if len(qs) != 2 || qs[0] != want[0] || qs[1] != want[1] {
		t.Errorf("got %+v, want %+v", qs, want)
	}
	if _, err := ParseQueries("Q1: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 2 s; Q2: SELECT * FROM A JOIN B ON A.key = B.key WINDOW 1 s;"); err == nil {
		t.Error("descending windows were accepted")
	}
}
