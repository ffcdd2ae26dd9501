package metrics

import (
	"math"
	"sort"
	"testing"
)

// TestStreamHistRecordZeroAlloc pins the satellite requirement: Record
// must not allocate, ever — the histogram exists so latency recording
// over billion-op runs stays O(1) in memory.
func TestStreamHistRecordZeroAlloc(t *testing.T) {
	var h StreamHist
	v := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = (v*2862933555777941757 + 3037000493) & math.MaxInt64
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

func TestStreamHistExactSmallValues(t *testing.T) {
	var h StreamHist
	for v := int64(0); v < 8; v++ {
		for i := int64(0); i <= v; i++ {
			h.Record(v)
		}
	}
	// 0 once, 1 twice, ... 7 eight times: n=36.
	if h.Count() != 36 {
		t.Fatalf("count = %d, want 36", h.Count())
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := h.Quantile(1); got != 7 {
		t.Errorf("p100 = %d, want 7", got)
	}
	if h.min != 0 || h.Max() != 7 {
		t.Errorf("min/max = %d/%d, want 0/7", h.min, h.Max())
	}
}

// TestStreamHistQuantileError checks the documented bound: a reported
// quantile is never above the true value and never below it by more
// than one sub-bucket (12.5% relative).
func TestStreamHistQuantileError(t *testing.T) {
	var h StreamHist
	vals := make([]int64, 0, 20000)
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := int64(x % 10_000_000)
		vals = append(vals, v)
		h.Record(v)
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := vals[int(math.Ceil(q*float64(len(vals))))-1] // nearest rank
		got := h.Quantile(q)
		if got > want {
			t.Errorf("q=%v: stream %d above exact %d", q, got, want)
		}
		if float64(got) < float64(want)*(1-0.125)-1 {
			t.Errorf("q=%v: stream %d more than 12.5%% below exact %d", q, got, want)
		}
	}
	if h.sum != sum {
		t.Errorf("sum %d != exact %d", h.sum, sum)
	}
	if h.Max() != vals[len(vals)-1] {
		t.Errorf("max %d != exact %d", h.Max(), vals[len(vals)-1])
	}
}

func TestStreamHistExtremes(t *testing.T) {
	var h StreamHist
	h.Record(-5) // clamped to zero bucket
	h.Record(math.MaxInt64)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.999); got <= 0 {
		t.Fatalf("top quantile = %d, want positive", got)
	}
	if h.Max() != math.MaxInt64 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestStreamHistMerge(t *testing.T) {
	var a, b StreamHist
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(&b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.min != 0 || a.Max() != 1999 {
		t.Fatalf("merged min/max = %d/%d", a.min, a.Max())
	}
	p99 := a.Quantile(0.99)
	if p99 < 1700 || p99 > 1980 {
		t.Fatalf("merged p99 = %d, want ≈1980 within bucket error", p99)
	}
}
