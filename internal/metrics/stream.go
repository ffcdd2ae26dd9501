package metrics

import "math/bits"

// Streaming-histogram geometry: values are bucketed by octave (the
// position of the highest set bit) with subBuckets linear sub-divisions
// per octave, HDR-histogram style. Relative quantile error is bounded
// by 1/subBuckets; values below subBuckets are recorded exactly.
const (
	streamSubBits = 3 // log2(subBuckets)
	streamSub     = 1 << streamSubBits
	// Octaves 0..streamSubBits-1 collapse into streamSub exact buckets;
	// octaves streamSubBits..63 get streamSub sub-buckets each.
	streamNBuckets = streamSub + (64-streamSubBits)*streamSub
)

// StreamHist is a fixed-size log-bucketed streaming histogram: Record
// is allocation-free and O(1), and quantiles (p50/p99/p99.9/...) are
// answered from bucket counts without retaining samples — the
// building block for latency reporting over billion-op runs, where
// keeping raw samples is exactly the O(n) memory bill this repository
// exists to avoid. The zero value is ready to use.
//
// Values are int64; negative samples are clamped into the zero bucket.
// Quantile results are bucket lower bounds, so they are exact for
// values < 8 and within 12.5% (one sub-bucket) above that.
//
// StreamHist is not safe for concurrent use; give each recording
// context its own histogram and Merge them afterwards.
type StreamHist struct {
	counts [streamNBuckets]uint64
	n      uint64
	sum    int64
	max    int64
	min    int64
}

// streamBucket maps a value to its bucket index.
func streamBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < streamSub {
		// Exact buckets for the smallest values (index == value).
		return int(u)
	}
	octave := bits.Len64(u) - 1 // position of the highest set bit
	sub := (u >> (uint(octave) - streamSubBits)) & (streamSub - 1)
	return (octave-streamSubBits)*streamSub + streamSub + int(sub)
}

// streamBucketLow returns the smallest value mapping to bucket i.
func streamBucketLow(i int) int64 {
	if i < streamSub {
		return int64(i)
	}
	octave := i/streamSub - 1 + streamSubBits
	sub := uint64(i % streamSub)
	return int64(uint64(1)<<uint(octave) | sub<<(uint(octave)-streamSubBits))
}

// Record adds one sample. It performs no allocation.
func (h *StreamHist) Record(v int64) {
	h.counts[streamBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count returns the number of samples recorded.
func (h *StreamHist) Count() uint64 { return h.n }

// Mean returns the arithmetic mean, or zero with no samples.
func (h *StreamHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest recorded sample (exact), or zero if empty.
func (h *StreamHist) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank over
// the bucket counts. The result is the lower bound of the bucket
// holding the ranked sample, except that q >= 1 returns the exact
// maximum.
func (h *StreamHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i == streamBucket(h.min) {
				return h.min // the whole low tail sits in one bucket
			}
			return streamBucketLow(i)
		}
	}
	return h.max
}

// Merge adds every sample of other into h (bucket-wise; exact counts,
// same quantile error bound).
func (h *StreamHist) Merge(other *StreamHist) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}
