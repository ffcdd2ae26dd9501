// Package workload generates the deterministic access patterns and
// allocation-size distributions used by the benchmark harness: the
// sparse random touches that motivate O(1) mapping, a hot/cold skew
// for tiering, and a malloc-style size mix for allocator experiments.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Pattern selects a page-touch order.
type Pattern int

const (
	// Random touches uniformly random pages — the sparse access to
	// large data sets for which "the fundamental linear operation cost
	// remains" (§3).
	Random Pattern = iota
	// HotCold touches a small hot set 90% of the time.
	HotCold
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Random:
		return "random"
	case HotCold:
		return "hot-cold"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Touches generates n page indices over a region of totalPages pages
// following the pattern. The fourth argument, a stride, is ignored:
// neither pattern uses one. The sequence is deterministic for a given
// seed.
func Touches(p Pattern, totalPages uint64, n int, _ uint64, seed uint64) ([]uint64, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("workload: empty region")
	}
	rng := sim.NewRNG(seed)
	out := make([]uint64, n)
	switch p {
	case Random:
		for i := range out {
			out[i] = rng.Uint64n(totalPages)
		}
	case HotCold:
		hot := totalPages / 10
		if hot == 0 {
			hot = 1
		}
		for i := range out {
			if rng.Float64() < 0.9 {
				out[i] = rng.Uint64n(hot)
			} else {
				out[i] = hot + rng.Uint64n(totalPages-hot)%maxU(totalPages-hot, 1)
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown pattern %d", int(p))
	}
	return out, nil
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// SizeDist selects an allocation-size distribution.
type SizeDist int

const (
	// SmallHeavy draws mostly small allocations with a heavy tail,
	// approximating heap traces (80% small, 15% medium, 5% large).
	SmallHeavy SizeDist = iota
)

// String names the distribution.
func (d SizeDist) String() string {
	switch d {
	case SmallHeavy:
		return "small-heavy"
	default:
		return fmt.Sprintf("SizeDist(%d)", int(d))
	}
}

// AllocSizes generates n allocation sizes in pages. lo and hi bound
// the sizes.
func AllocSizes(d SizeDist, n int, lo, hi uint64, seed uint64) ([]uint64, error) {
	if lo == 0 || hi < lo {
		return nil, fmt.Errorf("workload: bad size bounds [%d,%d]", lo, hi)
	}
	rng := sim.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		switch d {
		case SmallHeavy:
			r := rng.Float64()
			span := hi - lo
			switch {
			case r < 0.80:
				out[i] = lo + rng.Uint64n(maxU(span/16, 1))
			case r < 0.95:
				out[i] = lo + span/16 + rng.Uint64n(maxU(span/4, 1))
			default:
				out[i] = lo + span/2 + rng.Uint64n(maxU(span/2, 1))
			}
			if out[i] > hi {
				out[i] = hi
			}
		default:
			return nil, fmt.Errorf("workload: unknown distribution %d", int(d))
		}
	}
	return out, nil
}

// SweepSizesKB returns the file-size sweep used by the paper's
// figures: 4 KB to maxKB, doubling — "File Size - KB" on the x axes.
func SweepSizesKB(maxKB uint64) []uint64 {
	var out []uint64
	for kb := uint64(4); kb <= maxKB; kb *= 2 {
		out = append(out, kb)
	}
	return out
}

// SweepPageCounts returns the page-count sweep of the companion
// figures (1, 2, 16, 64, 256, 1k, 4k, 16k pages).
func SweepPageCounts(max uint64) []uint64 {
	base := []uint64{1, 2, 16, 64, 256, 1024, 4096, 16384}
	var out []uint64
	for _, v := range base {
		if v <= max {
			out = append(out, v)
		}
	}
	return out
}
