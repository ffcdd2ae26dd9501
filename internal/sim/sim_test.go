package sim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Advance(Microsecond)
	if got, want := c.Now(), Time(1100); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockSince(t *testing.T) {
	var c Clock
	c.Advance(500)
	start := c.Now()
	c.Advance(250)
	if got := c.Since(start); got != 250 {
		t.Fatalf("Since = %v, want 250", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeMicroseconds(t *testing.T) {
	if got := Time(2500).Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v, want 2.5", got)
	}
}

func TestDefaultParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateRejectsZeroCost(t *testing.T) {
	p := DefaultParams()
	p.FaultOverhead = 0
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted zero FaultOverhead")
	}
}

func TestReadPerPagePositive(t *testing.T) {
	p := DefaultParams()
	if p.ReadPerPage() <= 0 {
		t.Fatalf("ReadPerPage = %v, want positive", p.ReadPerPage())
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGUint64nProperty(t *testing.T) {
	r := NewRNG(123)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamsJSONRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.FaultOverhead = 9999
	data, err := MarshalParams(&p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, p)
	}
}

func TestLoadParamsPartial(t *testing.T) {
	got, err := LoadParams(strings.NewReader(`{"FaultOverhead": 5000}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultOverhead != 5000 {
		t.Fatalf("override lost: %d", got.FaultOverhead)
	}
	if got.PTEWrite != DefaultParams().PTEWrite {
		t.Fatal("unset fields should keep defaults")
	}
}

func TestLoadParamsRejectsBadInput(t *testing.T) {
	if _, err := LoadParams(strings.NewReader(`{"NotAField": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadParams(strings.NewReader(`{"FaultOverhead": 0}`)); err == nil {
		t.Fatal("invalid (zero) cost accepted")
	}
	if _, err := LoadParams(strings.NewReader(`garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
