// Package hist is the benchmark's latency histogram: log-linear buckets
// of at most 1/64 ≈ 1.6 % relative width, so a quantile read from it is
// within 2 % of the sorted-sample quantile. It is written here, not
// borrowed from internal/metrics, so the program under test cannot
// change how its own latency is summarised.
package hist

import "math/bits"

const (
	subBits = 6 // 64 sub-buckets per power of two
	sub     = 1 << subBits
	// Values below 2·sub are stored exactly; above, each power of two
	// is cut into sub buckets. 58 powers cover every int64 nanosecond.
	nBuckets = (64 - subBits) * sub
)

// H counts non-negative int64 samples (nanoseconds). The zero value is
// ready to use. It is not safe for concurrent use: each worker owns one
// and the owner merges them after the workers have stopped.
type H struct {
	counts [nBuckets]uint32
	n      uint64
}

func bucket(v uint64) int {
	if v < 2*sub {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e lies in [sub, 2·sub)
	return (e+1)*sub + int(v>>e) - sub
}

// upper is the largest value bucket b holds.
func upper(b int) uint64 {
	if b < 2*sub {
		return uint64(b)
	}
	e := b/sub - 1
	m := uint64(b%sub + sub)
	return (m+1)<<e - 1
}

// Record adds one sample; negative samples count as zero.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucket(uint64(v))]++
	h.n++
}

// Count is the number of samples recorded.
func (h *H) Count() uint64 { return h.n }

// Merge adds o's samples to h.
func (h *H) Merge(o *H) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the value at rank q·n, interpolated linearly inside
// the bucket that holds it (so two runs whose quantiles share a bucket
// still read differently), or 0 when the histogram is empty.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(q*float64(h.n), 0), float64(h.n))
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(0)
			if b > 0 {
				lo = float64(upper(b - 1))
			}
			return lo + (float64(upper(b))-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(upper(nBuckets - 1))
}

// Above is the number of samples in buckets wholly above v — how many
// samples support a quantile read at v.
func (h *H) Above(v float64) uint64 {
	if v < 0 {
		return h.n
	}
	var n uint64
	for b := bucket(uint64(v)) + 1; b < nBuckets; b++ {
		n += uint64(h.counts[b])
	}
	return n
}
