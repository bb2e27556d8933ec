// Package gen turns a seed into the operation streams the workloads
// replay. A stream depends on (seed, caller index, mix, distribution)
// and on nothing else — not on time, scheduling or the program under
// test — so the same seed replays the same operations in the same order
// on every caller.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Kind is an operation kind. The values index per-kind tables.
type Kind uint8

const (
	Search Kind = iota
	Insert
	Delete
	Upsert
	NumKinds
)

var kindNames = [NumKinds]string{"search", "insert", "delete", "upsert"}

func (k Kind) String() string { return kindNames[k] }

// Mix is the share of each kind in percent; the shares sum to 100.
type Mix [NumKinds]int

// Op is one generated operation: a kind and an index into the caller's
// own slice of the key population, in [0, n).
type Op struct {
	Kind  Kind
	Index uint64
}

// Stream is one caller's operation stream. It is not safe for
// concurrent use.
type Stream struct {
	rng  *rand.Rand
	n    uint64
	cut  [NumKinds]uint64 // cumulative mix thresholds in [0, 100]
	zipf *Zipf            // nil = uniform
}

// NewStream returns caller's stream over n indices. With zipf set the
// indices follow that distribution (built with NewZipf(n, …)); otherwise
// they are uniform.
func NewStream(seed uint64, caller int, n uint64, mix Mix, zipf *Zipf) (*Stream, error) {
	sum := 0
	s := &Stream{n: n, zipf: zipf}
	for k, p := range mix {
		if p < 0 {
			return nil, fmt.Errorf("gen: negative share for %s", Kind(k))
		}
		sum += p
		s.cut[k] = uint64(sum)
	}
	if sum != 100 {
		return nil, fmt.Errorf("gen: mix sums to %d, not 100", sum)
	}
	if n == 0 || (zipf != nil && zipf.n != n) {
		return nil, fmt.Errorf("gen: population %d does not match the distribution", n)
	}
	// The caller index is the PCG stream selector, so callers of one
	// seed draw from unrelated sequences.
	s.rng = rand.New(rand.NewPCG(seed, uint64(caller)+1))
	return s, nil
}

// Next returns the stream's next operation.
func (s *Stream) Next() Op {
	r := s.rng.Uint64N(100)
	var k Kind
	for r >= s.cut[k] {
		k++
	}
	if s.zipf != nil {
		return Op{Kind: k, Index: s.zipf.draw(s.rng)}
	}
	return Op{Kind: k, Index: s.rng.Uint64N(s.n)}
}

// Zipf draws ranks from a Zipf distribution with exponent theta < 1
// (Gray et al.'s generator, the one YCSB uses), then scatters the ranks
// over [0, n) with a fixed bijection so that hot indices are not
// neighbours. internal/workload's Zipf wraps math/rand, which needs an
// exponent above 1; the serving-skew convention of 0.99 needs this one.
// A Zipf is read-only after NewZipf and may be shared by streams.
type Zipf struct {
	n                        uint64
	theta, alpha, eta, zetan float64
	half                     float64 // 1 + 0.5^theta
	mul                      uint64  // scatter multiplier, coprime to n
}

// NewZipf prepares the distribution over n ≥ 2 indices.
func NewZipf(n uint64, theta float64) (*Zipf, error) {
	if n < 2 || theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("gen: zipf needs n ≥ 2 and 0 < theta < 1, got n=%d theta=%v", n, theta)
	}
	z := &Zipf{n: n, theta: theta, alpha: 1 / (1 - theta), half: 1 + math.Pow(0.5, theta)}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	z.mul = 0x9E3779B97F4A7C15 % n // golden-ratio stride, made coprime below
	for gcd(z.mul, n) != 1 {
		z.mul++
	}
	return z, nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (z *Zipf) draw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return rank * z.mul % z.n
}
