package hist

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestQuantilesWithinBucketWidthOfSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h H
	ref := make([]int64, 200000)
	for i := range ref {
		// log-normal around 1 µs with a heavy tail, like an op latency
		v := int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(1000)))
		ref[i] = v
		h.Record(v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*float64(len(ref)))) - 1
		want, got := float64(ref[rank]), h.Quantile(q)
		if math.Abs(got-want) > 0.02*want+1 {
			t.Errorf("q=%v: histogram %v, sorted reference %v", q, got, want)
		}
	}
	if h.Count() != uint64(len(ref)) {
		t.Errorf("count %d", h.Count())
	}
	p99 := h.Quantile(0.99)
	if a := h.Above(p99); a > 2000 || a < 1500 {
		t.Errorf("%d samples above p99 of 200000", a)
	}
}

func TestBucketEdges(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<20 + 12345, 1<<62 + 5, math.MaxInt64} {
		b := bucket(v)
		if upper(b) < v {
			t.Errorf("v=%d bucket %d upper %d", v, b, upper(b))
		}
		if b > 0 && upper(b-1) >= v {
			t.Errorf("v=%d also fits bucket %d", v, b-1)
		}
	}
	var a, b H
	a.Record(-5)
	b.Record(10)
	a.Merge(&b)
	if a.Count() != 2 || a.Quantile(0) != 0 || a.Quantile(1) != 10 {
		t.Errorf("merge: n=%d q0=%v q1=%v", a.Count(), a.Quantile(0), a.Quantile(1))
	}
	var e H
	if e.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile")
	}
}
