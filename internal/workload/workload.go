// Package workload generates the key distributions and operation mixes
// blinkstress, the tests and the root benchmarks drive the trees with.
// Generators are deterministic given a seed, so runs are reproducible.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"blinktree/internal/base"
)

// OpKind is one logical operation type.
type OpKind uint8

// Operation kinds. The conditional kinds (OpUpsert, OpUpdate, OpCAS)
// drive the atomic read-modify-write surface of base.Tree.
const (
	OpSearch OpKind = iota
	OpInsert
	OpDelete
	OpScan
	OpUpsert
	OpUpdate
	OpCAS

	// NumOpKinds is the number of operation kinds, for per-kind
	// counters; keep it last in the block.
	NumOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpUpsert:
		return "upsert"
	case OpUpdate:
		return "update"
	case OpCAS:
		return "cas"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  base.Key
	// Hi is the scan upper bound for OpScan.
	Hi base.Key
}

// KeyDist draws keys from some distribution.
type KeyDist interface {
	// Draw returns the next key using rng.
	Draw(rng *rand.Rand) base.Key
	// Name identifies the distribution in reports.
	Name() string
}

// Uniform draws uniformly from [0, N).
type Uniform struct{ N uint64 }

// Draw implements KeyDist.
func (u Uniform) Draw(rng *rand.Rand) base.Key { return base.Key(rng.Uint64() % u.N) }

// Name implements KeyDist.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%d)", u.N) }

// Zipf draws from a Zipf distribution over [0, N): a few keys are hot.
type Zipf struct {
	N uint64
	S float64 // skew, > 1; default 1.2
}

// Name implements KeyDist.
func (z Zipf) Name() string { return fmt.Sprintf("zipf(%d,s=%.2f)", z.N, z.skew()) }

func (z Zipf) skew() float64 {
	if z.S <= 1 {
		return 1.2
	}
	return z.S
}

// Draw implements KeyDist. A rand.Zipf is derived per call-site rng on
// first use via a small cache keyed by the rng pointer; to stay
// allocation-free we simply construct on demand — Zipf draws are not in
// the measured hot path of any experiment that cares about ns-level
// generator overhead.
func (z Zipf) Draw(rng *rand.Rand) base.Key {
	zp := rand.NewZipf(rng, z.skew(), 1, z.N-1)
	return base.Key(zp.Uint64())
}

// Stretch scales another distribution's draws by a constant stride,
// spreading a compact [0, N) population over the full uint64 range —
// the shape a range-partitioned (sharded) index needs so that every
// partition receives traffic. Order and collision structure of the
// base distribution are preserved provided N·Stride ≤ 2^64 (larger
// products wrap around uint64 and fold the high population back onto
// low keys); ^uint64(0)/N + 1 is the canonical full-range stride.
// Generators scale scan spans by Stride too, so Mix.ScanSpan stays in
// population units.
type Stretch struct {
	Base   KeyDist
	Stride uint64
}

// Draw implements KeyDist.
func (s Stretch) Draw(rng *rand.Rand) base.Key {
	return base.Key(uint64(s.Base.Draw(rng)) * s.Stride)
}

// Name implements KeyDist.
func (s Stretch) Name() string {
	return fmt.Sprintf("stretch(%s,x%d)", s.Base.Name(), s.Stride)
}

// Mix is an operation mix in percent; the parts must sum to 100.
type Mix struct {
	SearchPct, InsertPct, DeletePct, ScanPct int
	// UpsertPct, UpdatePct and CasPct add conditional-write traffic
	// (Upsert, Update and CompareAndSwap respectively).
	UpsertPct, UpdatePct, CasPct int
	// ScanSpan is the key width of generated scans.
	ScanSpan uint64
}

// Validate checks the mix sums to 100.
func (m Mix) Validate() error {
	s := m.SearchPct + m.InsertPct + m.DeletePct + m.ScanPct +
		m.UpsertPct + m.UpdatePct + m.CasPct
	if s != 100 {
		return fmt.Errorf("workload: mix sums to %d, want 100", s)
	}
	return nil
}

// String renders the mix for reports.
func (m Mix) String() string {
	s := fmt.Sprintf("%ds/%di/%dd/%dsc", m.SearchPct, m.InsertPct, m.DeletePct, m.ScanPct)
	if m.UpsertPct+m.UpdatePct+m.CasPct > 0 {
		s += fmt.Sprintf("/%dup/%dmod/%dcas", m.UpsertPct, m.UpdatePct, m.CasPct)
	}
	return s
}

// Common mixes used across experiments.
var (
	ReadOnly    = Mix{SearchPct: 100}
	ReadMostly  = Mix{SearchPct: 90, InsertPct: 5, DeletePct: 5}
	Balanced    = Mix{SearchPct: 50, InsertPct: 25, DeletePct: 25}
	InsertHeavy = Mix{SearchPct: 20, InsertPct: 80}
	DeleteHeavy = Mix{SearchPct: 20, InsertPct: 10, DeletePct: 70}
	WriteOnly   = Mix{InsertPct: 50, DeletePct: 50}
	// UpsertHeavy is the cache-fill shape: mostly unconditional
	// upserts with some reads and evictions.
	UpsertHeavy = Mix{SearchPct: 20, UpsertPct: 60, DeletePct: 20}
	// RMW is the read-modify-write serving shape: a blend of all the
	// conditional writes over a read-mostly base.
	RMW = Mix{SearchPct: 30, UpsertPct: 20, UpdatePct: 20, CasPct: 20, DeletePct: 10}
)

// Generator produces a deterministic operation stream. Not safe for
// concurrent use; create one per worker with distinct seeds.
type Generator struct {
	rng  *rand.Rand
	draw func() base.Key
	mix  Mix
	// spanScale converts Mix.ScanSpan from population units to key
	// units (the Stretch stride, or 1).
	spanScale uint64
}

// NewGenerator builds a Generator.
func NewGenerator(seed int64, dist KeyDist, mix Mix) (*Generator, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{rng: rand.New(rand.NewSource(seed)), mix: mix, spanScale: 1}
	// Unwrap a Stretch so the Zipf fast path below still fires and scan
	// spans scale with the stride.
	scale := uint64(1)
	if st, ok := dist.(Stretch); ok {
		scale = st.Stride
		g.spanScale = st.Stride
		dist = st.Base
	}
	if z, ok := dist.(Zipf); ok {
		// Bind the Zipf sampler once: rand.NewZipf precomputes tables
		// that must not be rebuilt per draw.
		zp := rand.NewZipf(g.rng, z.skew(), 1, z.N-1)
		g.draw = func() base.Key { return base.Key(zp.Uint64() * scale) }
	} else if scale != 1 {
		d := dist
		g.draw = func() base.Key { return base.Key(uint64(d.Draw(g.rng)) * scale) }
	} else {
		g.draw = func() base.Key { return dist.Draw(g.rng) }
	}
	return g, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Intn(100)
	k := g.draw()
	cut := g.mix.SearchPct
	if p < cut {
		return Op{Kind: OpSearch, Key: k}
	}
	if cut += g.mix.InsertPct; p < cut {
		return Op{Kind: OpInsert, Key: k}
	}
	if cut += g.mix.DeletePct; p < cut {
		return Op{Kind: OpDelete, Key: k}
	}
	if cut += g.mix.UpsertPct; p < cut {
		return Op{Kind: OpUpsert, Key: k}
	}
	if cut += g.mix.UpdatePct; p < cut {
		return Op{Kind: OpUpdate, Key: k}
	}
	if cut += g.mix.CasPct; p < cut {
		return Op{Kind: OpCAS, Key: k}
	}
	span := g.mix.ScanSpan
	if span == 0 {
		span = 100
	}
	hi := k + base.Key(span*g.spanScale)
	if hi < k { // saturate at the top of the keyspace
		hi = base.Key(^uint64(0))
	}
	return Op{Kind: OpScan, Key: k, Hi: hi}
}

// Apply executes op against tr, swallowing the benign ErrNotFound /
// ErrDuplicate outcomes that are part of any random mix. It reports
// whether the operation mutated the tree.
func Apply(tr base.Tree, op Op) (bool, error) {
	switch op.Kind {
	case OpSearch:
		_, err := tr.Search(op.Key)
		if err != nil && !errors.Is(err, base.ErrNotFound) {
			return false, err
		}
		return false, nil
	case OpInsert:
		err := tr.Insert(op.Key, base.Value(op.Key))
		if err != nil && !errors.Is(err, base.ErrDuplicate) {
			return false, err
		}
		return err == nil, nil
	case OpDelete:
		err := tr.Delete(op.Key)
		if err != nil && !errors.Is(err, base.ErrNotFound) {
			return false, err
		}
		return err == nil, nil
	case OpUpsert:
		_, _, err := tr.Upsert(op.Key, base.Value(op.Key))
		return err == nil, err
	case OpUpdate:
		// Identity update: exercises the atomic read-modify-write path
		// while preserving the value==key invariant stress checks rely
		// on.
		_, err := tr.Update(op.Key, func(v base.Value) base.Value { return v })
		if err != nil && !errors.Is(err, base.ErrNotFound) {
			return false, err
		}
		return err == nil, nil
	case OpCAS:
		swapped, err := tr.CompareAndSwap(op.Key, base.Value(op.Key), base.Value(op.Key))
		if err != nil && !errors.Is(err, base.ErrNotFound) {
			return false, err
		}
		return err == nil && swapped, nil
	default:
		err := tr.Range(op.Key, op.Hi, func(base.Key, base.Value) bool { return true })
		return false, err
	}
}
