package metrics

import (
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after Reset Value = %d, want 0", c.Value())
	}
}

func TestSetCreatesAndReuses(t *testing.T) {
	s := NewSet()
	s.Counter("a").Inc()
	s.Counter("a").Inc()
	s.Counter("b").Add(3)
	if s.Value("a") != 2 || s.Value("b") != 3 {
		t.Fatalf("got a=%d b=%d", s.Value("a"), s.Value("b"))
	}
	if s.Value("missing") != 0 {
		t.Fatal("missing counter should read zero")
	}
}

func TestSetNamesOrder(t *testing.T) {
	s := NewSet()
	s.Counter("z")
	s.Counter("a")
	s.Counter("m")
	got := s.Names()
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

// TestLazyResolvesOnFirstUse pins that a Lazy counter enters its set
// only when first used, so the set's name order is the order the
// counters were first touched, and that later uses return the same
// counter without a lookup.
func TestLazyResolvesOnFirstUse(t *testing.T) {
	s := NewSet()
	var lazy Lazy
	if got := s.Names(); len(got) != 0 {
		t.Fatalf("declaring a Lazy created %v", got)
	}
	s.Counter("first").Inc()
	c := lazy.Of(s, "second")
	c.Inc()
	if lazy.Of(s, "second") != c || s.Counter("second") != c {
		t.Fatal("Lazy returned a different counter on a later use")
	}
	if got := strings.Join(s.Names(), ","); got != "first,second" {
		t.Fatalf("Names = %s, want first,second", got)
	}
	if s.Value("second") != 1 {
		t.Fatalf("second = %d, want 1", s.Value("second"))
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet()
	s.Counter("x").Add(9)
	s.Reset()
	if s.Value("x") != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Counter("hits").Add(2)
	s.Counter("misses").Add(1)
	if got := s.String(); got != "hits=2 misses=1" {
		t.Fatalf("String = %q", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{5, 1, 3, 2, 4} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 15 {
		t.Fatalf("Count=%d Sum=%d", h.Count(), h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min=%d Max=%d", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("median = %d, want 3", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %d, want 1", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("q1 = %d, want 5", q)
	}
}

func TestHistogramStddev(t *testing.T) {
	var h Histogram
	for _, v := range []int64{2, 2, 2, 2} {
		h.Record(v)
	}
	if h.Stddev() != 0 {
		t.Fatalf("constant samples stddev = %v, want 0", h.Stddev())
	}
	h.Reset()
	h.Record(0)
	h.Record(10)
	if got := h.Stddev(); got != 5 {
		t.Fatalf("stddev = %v, want 5", got)
	}
}

func TestHistogramRecordAfterQuantile(t *testing.T) {
	var h Histogram
	h.Record(10)
	_ = h.Quantile(0.5)
	h.Record(1)
	if h.Min() != 1 {
		t.Fatalf("Min after late record = %d, want 1", h.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(7)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "size", "time")
	tb.AddRowf(4096, 1.5)
	tb.AddRow("8192", "3.000")
	out := tb.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "size") || !strings.Contains(out, "time") {
		t.Fatal("missing headers")
	}
	if !strings.Contains(out, "4096") || !strings.Contains(out, "1.500") {
		t.Fatalf("missing formatted row: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableAlignsColumns(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("longvalue", "x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[0]) < len("longvalue") {
		t.Fatalf("header line not padded to column width: %q", lines[0])
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow("1", "2")
	md := tb.Markdown()
	for _, want := range []string{"**demo**", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	// No title line when the title is empty.
	if md := NewTable("", "x").Markdown(); strings.Contains(md, "**") {
		t.Fatalf("unexpected title: %q", md)
	}
}
