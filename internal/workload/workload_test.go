package workload

import "testing"

func TestTouchesRandomInBoundsAndDeterministic(t *testing.T) {
	a, _ := Touches(Random, 1000, 10000, 0, 42)
	b, _ := Touches(Random, 1000, 10000, 0, 42)
	for i := range a {
		if a[i] >= 1000 {
			t.Fatalf("out of bounds: %d", a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTouchesHotCold(t *testing.T) {
	got, err := Touches(HotCold, 1000, 100000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, p := range got {
		if p >= 1000 {
			t.Fatalf("out of bounds: %d", p)
		}
		if p < 100 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(got))
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %.3f, want ~0.9", frac)
	}
}

func TestTouchesValidation(t *testing.T) {
	if _, err := Touches(Random, 0, 1, 0, 1); err == nil {
		t.Fatal("empty region accepted")
	}
	if _, err := Touches(Pattern(99), 10, 1, 0, 1); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestAllocSizes(t *testing.T) {
	sh, err := AllocSizes(SmallHeavy, 10000, 1, 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for _, s := range sh {
		if s < 1 || s > 1024 {
			t.Fatalf("small-heavy size %d out of bounds", s)
		}
		if s <= 64 {
			small++
		}
	}
	if float64(small)/float64(len(sh)) < 0.5 {
		t.Fatal("small-heavy distribution not small-dominated")
	}
}

func TestAllocSizesValidation(t *testing.T) {
	if _, err := AllocSizes(SmallHeavy, 1, 0, 10, 1); err == nil {
		t.Fatal("zero lo accepted")
	}
	if _, err := AllocSizes(SmallHeavy, 1, 10, 5, 1); err == nil {
		t.Fatal("hi < lo accepted")
	}
	if _, err := AllocSizes(SizeDist(99), 1, 1, 2, 1); err == nil {
		t.Fatal("unknown dist accepted")
	}
}

func TestSweeps(t *testing.T) {
	kb := SweepSizesKB(1024)
	if kb[0] != 4 || kb[len(kb)-1] != 1024 {
		t.Fatalf("KB sweep = %v", kb)
	}
	pc := SweepPageCounts(16384)
	if pc[0] != 1 || pc[len(pc)-1] != 16384 {
		t.Fatalf("page sweep = %v", pc)
	}
	if got := SweepPageCounts(100); got[len(got)-1] != 64 {
		t.Fatalf("bounded page sweep = %v", got)
	}
}

func TestStringers(t *testing.T) {
	for _, p := range []Pattern{Random, HotCold, Pattern(42)} {
		if p.String() == "" {
			t.Fatal("empty pattern name")
		}
	}
	for _, d := range []SizeDist{SmallHeavy, SizeDist(42)} {
		if d.String() == "" {
			t.Fatal("empty dist name")
		}
	}
}
