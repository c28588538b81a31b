package stream

import (
	"testing"
	"unsafe"
)

func TestIDOther(t *testing.T) {
	if StreamA.Other() != StreamB || StreamB.Other() != StreamA {
		t.Fatal("Other() must flip the stream id")
	}
	if StreamA.String() != "A" || StreamB.String() != "B" {
		t.Fatal("stream id names wrong")
	}
}

func TestRoleString(t *testing.T) {
	if RolePlain.String() != "plain" || RoleMale.String() != "male" || RoleFemale.String() != "female" {
		t.Fatal("role names wrong")
	}
}

func TestJoinedTimestampIsMax(t *testing.T) {
	a := &Tuple{Time: 3 * Second, Seq: 1, Stream: StreamA, Ord: 1}
	b := &Tuple{Time: 5 * Second, Seq: 2, Stream: StreamB, Ord: 1}
	j := Joined(a, b)
	if j.Time != 5*Second {
		t.Errorf("joined ts = %s, want 5s (max of inputs, Section 2)", j.Time)
	}
	if j.Seq != 2 {
		t.Errorf("joined Seq = %d, want Seq of later tuple", j.Seq)
	}
	if !j.IsResult() || j.A != a || j.B != b {
		t.Error("joined tuple must reference both sources")
	}
	if got := j.WindowDiff(); got != 2*Second {
		t.Errorf("WindowDiff = %s, want 2s", got)
	}
	// Reverse arrival order: still max.
	j2 := Joined(&Tuple{Time: 9, Seq: 7}, &Tuple{Time: 4, Seq: 3})
	if j2.Time != 9 || j2.Seq != 7 {
		t.Errorf("joined ts/seq = %d/%d, want 9/7", j2.Time, j2.Seq)
	}
}

func TestBeforeTotalOrder(t *testing.T) {
	x := &Tuple{Time: 1, Seq: 1}
	y := &Tuple{Time: 1, Seq: 2}
	z := &Tuple{Time: 2, Seq: 3}
	if !x.Before(y) || !y.Before(z) || !x.Before(z) {
		t.Error("Before must be a total order on (Time, Seq)")
	}
	if y.Before(x) || x.Before(x) {
		t.Error("Before must be strict")
	}
}

func TestWithRoleSharesIdentity(t *testing.T) {
	src := &Tuple{Time: 7, Seq: 9, Stream: StreamA, Ord: 2, Key: 42, Value: 0.5}
	m := src.WithRole(RoleMale)
	f := src.WithRole(RoleFemale)
	if m.Role != RoleMale || f.Role != RoleFemale {
		t.Fatal("roles not set")
	}
	if m.Seq != src.Seq || f.Seq != src.Seq || m.Time != src.Time {
		t.Error("copies must share Seq/Time (copy-of-reference, Section 4.2)")
	}
	if m.Key != 42 || f.Value != 0.5 {
		t.Error("copies must share payload")
	}
	if m == src || f == src {
		t.Error("WithRole must not alias the original")
	}
}

func TestTupleString(t *testing.T) {
	a := &Tuple{Time: Second, Seq: 1, Stream: StreamA, Ord: 3}
	b := &Tuple{Time: 2 * Second, Seq: 2, Stream: StreamB, Ord: 1}
	if a.String() != "a3" || b.String() != "b1" {
		t.Errorf("source names = %q, %q", a, b)
	}
	if got := Joined(a, b).String(); got != "(a3,b1)" {
		t.Errorf("joined name = %q", got)
	}
	var nilT *Tuple
	if nilT.String() != "<nil>" {
		t.Error("nil tuple String")
	}
}

func TestTupleFitsThe80ByteSizeClass(t *testing.T) {
	// Stream and Role share a word. One more word and every tuple costs a
	// 96-byte allocation.
	if size := unsafe.Sizeof(Tuple{}); size > 80 {
		t.Fatalf("Tuple is %d bytes, want <= 80", size)
	}
}
