package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram not empty")
	}
	h.Observe(100 * time.Nanosecond)
	h.Observe(200 * time.Nanosecond)
	h.Observe(10 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 3*time.Microsecond || mean > 4*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	if h.Max() != 10*time.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	// p50 lands in the bucket containing 200ns: (128,256].
	if q := h.Quantile(0.5); q < 200*time.Nanosecond || q > 512*time.Nanosecond {
		t.Fatalf("p50 = %v", q)
	}
	// p100 uses the top occupied bucket.
	if q := h.Quantile(1.0); q < 10*time.Microsecond {
		t.Fatalf("p100 = %v", q)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	last := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone at %.2f: %v < %v", q, v, last)
		}
		last = v
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Hour) // far beyond the top bucket
	if h.Count() != 1 {
		t.Fatal("overflow observation lost")
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Fatalf("overflow quantile = %v", q)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Load() != 10 {
		t.Fatalf("counter = %d", c.Load())
	}
}
