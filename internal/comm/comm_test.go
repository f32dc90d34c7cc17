package comm

import (
	"testing"
	"time"
)

// Usage.Sub must produce window deltas with the utilization recomputed
// over the window, tolerating snapshots of different core counts.
func TestUsageSubAndTotals(t *testing.T) {
	pre := Usage{
		Elapsed:        FromDuration(1 * time.Second),
		BusBytesServed: 1e9,
		BusCapacityBps: 8e9,
		CoreBusySec:    []float64{0.5, 0.25},
	}
	post := Usage{
		Elapsed:        FromDuration(3 * time.Second),
		BusBytesServed: 9e9,
		BusCapacityBps: 8e9,
		CoreBusySec:    []float64{1.5, 0.25, 2.0},
	}
	win := post.Sub(pre)
	if got := win.Elapsed.Seconds(); got != 2 {
		t.Errorf("window elapsed = %v", got)
	}
	if win.BusBytesServed != 8e9 {
		t.Errorf("window bus bytes = %v", win.BusBytesServed)
	}
	if want := 8e9 / (8e9 * 2); win.BusUtilization != want {
		t.Errorf("window utilization = %v, want %v", win.BusUtilization, want)
	}
	if len(win.CoreBusySec) != 3 || win.CoreBusySec[0] != 1 || win.CoreBusySec[1] != 0 || win.CoreBusySec[2] != 2 {
		t.Errorf("window cores = %v", win.CoreBusySec)
	}
	if got := win.TotalCoreBusySec(); got != 3 {
		t.Errorf("total busy = %v", got)
	}
	// Degenerate window: no elapsed time, no utilization.
	if z := pre.Sub(pre); z.BusUtilization != 0 || z.Elapsed != 0 {
		t.Errorf("zero window = %+v", z)
	}
}

func TestFromDuration(t *testing.T) {
	if got := FromDuration(1500 * time.Nanosecond); got.Nanoseconds() != 1500 {
		t.Errorf("FromDuration(1.5us) = %v ns", got.Nanoseconds())
	}
	if got := FromDuration(2 * time.Second); got.Seconds() != 2 {
		t.Errorf("FromDuration(2s) = %v s", got.Seconds())
	}
}

// collTag yields distinct negative tags per draw and separates operation
// spaces.
func TestCollTagSpaces(t *testing.T) {
	var seq int
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		tag := collTag(&seq, opBarrier)
		if tag >= 0 {
			t.Fatalf("collective tag %d not negative", tag)
		}
		if seen[tag] {
			t.Fatalf("tag %d drawn twice", tag)
		}
		seen[tag] = true
	}
	var s1, s2 int
	if a, b := collTag(&s1, opBarrier), collTag(&s2, opAlltoall); a == b {
		t.Fatal("different operations share a tag at the same sequence point")
	}
}

// Range helpers: R and Whole produce the documented views and a zero Range
// carries no bytes.
func TestRangeHelpers(t *testing.T) {
	b := testBuf(make([]byte, 64))
	if r := Whole(b); r.Off != 0 || r.Len != 64 || r.Buf.Len() != 64 {
		t.Errorf("Whole = %+v", r)
	}
	r := R(b, 16, 8)
	if got := r.bytes(); len(got) != 8 {
		t.Errorf("R(16,8).bytes() has %d bytes", len(got))
	}
	if got := (Range{}).bytes(); got != nil {
		t.Errorf("zero Range bytes = %v", got)
	}
}

// testBuf is a minimal Buf for pure-logic tests.
type testBuf []byte

func (b testBuf) Len() int64    { return int64(len(b)) }
func (b testBuf) Bytes() []byte { return b }
