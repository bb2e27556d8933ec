package workload

import (
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/blink"
)

func TestMixValidate(t *testing.T) {
	if err := (Mix{SearchPct: 50, InsertPct: 50}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Mix{SearchPct: 50}).Validate(); err == nil {
		t.Fatal("bad mix accepted")
	}
	for _, m := range []Mix{ReadOnly, ReadMostly, Balanced, InsertHeavy, DeleteHeavy, WriteOnly} {
		if err := m.Validate(); err != nil {
			t.Fatalf("canned mix %v invalid: %v", m, err)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(42, Uniform{N: 100}, Balanced)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(42, Uniform{N: 100}, Balanced)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("divergence at %d: %v vs %v", i, a, b)
		}
	}
	g3, _ := NewGenerator(43, Uniform{N: 100}, Balanced)
	same := 0
	for i := 0; i < 100; i++ {
		if g1.Next() == g3.Next() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	g, _ := NewGenerator(7, Uniform{N: 1000}, Mix{SearchPct: 70, InsertPct: 20, DeletePct: 10})
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	within := func(got, wantPct int) bool {
		want := n * wantPct / 100
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < n/50 // ±2%
	}
	if !within(counts[OpSearch], 70) || !within(counts[OpInsert], 20) || !within(counts[OpDelete], 10) {
		t.Fatalf("mix proportions off: %v", counts)
	}
	if counts[OpScan] != 0 {
		t.Fatal("unexpected scans")
	}
}

func TestDistributions(t *testing.T) {
	g, _ := NewGenerator(1, Uniform{N: 50}, ReadOnly)
	for i := 0; i < 1000; i++ {
		if k := g.Next().Key; k >= 50 {
			t.Fatalf("uniform out of range: %d", k)
		}
	}

	gz, _ := NewGenerator(1, Zipf{N: 1000}, ReadOnly)
	low := 0
	for i := 0; i < 1000; i++ {
		if gz.Next().Key < 10 {
			low++
		}
	}
	if low < 300 {
		t.Fatalf("zipf not skewed: only %d/1000 draws below 10", low)
	}

	stride := ^uint64(0)/64 + 1
	gst, _ := NewGenerator(1, Stretch{Base: Uniform{N: 64}, Stride: stride}, ReadOnly)
	quarters := [4]int{}
	for i := 0; i < 1000; i++ {
		k := uint64(gst.Next().Key)
		if k%stride != 0 {
			t.Fatalf("stretch draw %d not on stride", k)
		}
		quarters[k/(stride*16)]++
	}
	for q, n := range quarters {
		if n == 0 {
			t.Fatalf("stretch never hit quarter %d of the keyspace", q)
		}
	}
}

func TestScanOps(t *testing.T) {
	g, _ := NewGenerator(3, Uniform{N: 100}, Mix{ScanPct: 100, ScanSpan: 25})
	op := g.Next()
	if op.Kind != OpScan || op.Hi != op.Key+25 {
		t.Fatalf("scan op wrong: %+v", op)
	}

	// Under Stretch, spans stay in population units: a 25-key window
	// over the base population spans 25 strides of stretched keyspace
	// (saturating at the top instead of wrapping).
	stride := ^uint64(0)/100 + 1
	gs, _ := NewGenerator(3, Stretch{Base: Uniform{N: 100}, Stride: stride},
		Mix{ScanPct: 100, ScanSpan: 25})
	for i := 0; i < 200; i++ {
		op := gs.Next()
		want := op.Key + base.Key(25*stride)
		if want < op.Key {
			want = base.Key(^uint64(0))
		}
		if op.Hi != want {
			t.Fatalf("stretched scan span: %+v, want hi %d", op, want)
		}
	}

	// Stretch keeps the Zipf fast path: draws must remain skewed and on
	// stride (the sampler is bound once, not rebuilt per draw). The
	// stride must match the population (N·Stride ≤ 2^64).
	zstride := ^uint64(0)/1000 + 1
	gz, _ := NewGenerator(1, Stretch{Base: Zipf{N: 1000}, Stride: zstride}, ReadOnly)
	low := 0
	for i := 0; i < 1000; i++ {
		k := uint64(gz.Next().Key)
		if k%zstride != 0 {
			t.Fatalf("stretched zipf draw %d not on stride", k)
		}
		if k/zstride < 10 {
			low++
		}
	}
	if low < 300 {
		t.Fatalf("stretched zipf not skewed: %d/1000 low draws", low)
	}
}

func TestApplyAgainstTree(t *testing.T) {
	tr, err := blink.New(blink.Config{MinPairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGenerator(5, Uniform{N: 200}, Mix{SearchPct: 25, InsertPct: 40, DeletePct: 25, ScanPct: 10, ScanSpan: 20})
	mutations := 0
	for i := 0; i < 5000; i++ {
		mutated, err := Apply(tr, g.Next())
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if mutated {
			mutations++
		}
	}
	if mutations == 0 {
		t.Fatal("no mutations applied")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 0 || tr.Len() > 200 {
		t.Fatalf("implausible Len %d", tr.Len())
	}
}

func TestOpKindString(t *testing.T) {
	if OpSearch.String() != "search" || OpScan.String() != "scan" || OpKind(9).String() == "" {
		t.Fatal("OpKind names wrong")
	}
}
