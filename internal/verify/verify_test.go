package verify

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mapScan adapts a plain map to ScanFunc for tests.
func mapScan(m map[uint64]uint64, mu *sync.Mutex) ScanFunc {
	return func(lo, hi uint64, fn func(k, v uint64) bool) error {
		if mu != nil {
			mu.Lock()
			defer mu.Unlock()
		}
		keys := make([]uint64, 0, len(m))
		for k := range m {
			if k >= lo && k <= hi {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if !fn(k, m[k]) {
				return nil
			}
		}
		return nil
	}
}

func TestBucketSpanPartition(t *testing.T) {
	for _, nb := range []int{1, 2, 64, 4096} {
		lo, _ := BucketSpan(0, nb)
		if lo != 0 {
			t.Fatalf("nb=%d: first bucket starts at %d", nb, lo)
		}
		_, hi := BucketSpan(nb-1, nb)
		if hi != ^uint64(0) {
			t.Fatalf("nb=%d: last bucket ends at %d", nb, hi)
		}
		for b := 0; b < nb-1; b++ {
			_, hi := BucketSpan(b, nb)
			lo2, _ := BucketSpan(b+1, nb)
			if hi+1 != lo2 {
				t.Fatalf("nb=%d: gap between buckets %d and %d", nb, b, b+1)
			}
			if BucketOf(hi, nb) != b || BucketOf(lo2, nb) != b+1 {
				t.Fatalf("nb=%d: BucketOf disagrees with BucketSpan at %d", nb, b)
			}
		}
	}
}

// TestStreamMatchesOverlay pins the core determinism contract: the
// checkpoint-path StreamHasher and the incremental Overlay must agree
// on the root of identical content.
func TestStreamMatchesOverlay(t *testing.T) {
	m := map[uint64]uint64{}
	var x uint64 = 1
	for i := 0; i < 5000; i++ {
		x *= 0x9E3779B97F4A7C15
		m[x] = x ^ 0xABCD
	}
	nb := 256
	sh := NewStreamHasher(nb)
	if err := mapScan(m, nil)(0, ^uint64(0), func(k, v uint64) bool {
		sh.Add(k, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := sh.Root()

	ov := NewOverlay(nb, mapScan(m, nil))
	got, err := ov.Root()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("overlay root %x != stream root %x", got, want)
	}

	// Any single change must change the root; undoing it must restore.
	m[42] = 1
	ov.MarkKey(42)
	changed, _ := ov.Root()
	if changed == want {
		t.Fatal("root did not change after a mutation")
	}
	delete(m, 42)
	ov.MarkKey(42)
	back, _ := ov.Root()
	if back != want {
		t.Fatal("root did not return after undoing the mutation")
	}
}

// TestIncrementalOnlyRehashesDirty pins the maintenance economy: after
// the initial build, one mutation costs one bucket re-hash.
func TestIncrementalOnlyRehashesDirty(t *testing.T) {
	m := map[uint64]uint64{1: 1, 2: 2, 1 << 60: 3}
	ov := NewOverlay(64, mapScan(m, nil))
	if _, err := ov.Root(); err != nil {
		t.Fatal(err)
	}
	before := ov.Rehashed.Load()
	m[3] = 3
	ov.MarkKey(3)
	if _, err := ov.Root(); err != nil {
		t.Fatal(err)
	}
	if n := ov.Rehashed.Load() - before; n != 1 {
		t.Fatalf("one mutation re-hashed %d buckets, want 1", n)
	}
}

// TestOverlappingRehashKeepsFreshLeaf pins the lost-update race between
// two Rehash passes (the background Hasher and a SealedRoot): pass 1
// scans bucket b's old state and parks; a mutation re-marks b; pass 2
// consumes the mark. If pass 2 stores its fresh leaf before pass 1
// stores its stale one, the stale leaf survives with b clean, and every
// later root is wrong.
func TestOverlappingRehashKeepsFreshLeaf(t *testing.T) {
	const nb = 4
	lo, _ := BucketSpan(1, nb)
	k := lo + 5
	var mu sync.Mutex
	m := map[uint64]uint64{k: 1, 7: 7}
	plain := mapScan(m, &mu)
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	ov := NewOverlay(nb, func(lo, hi uint64, fn func(k, v uint64) bool) error {
		err := plain(lo, hi, fn)
		if lo <= k && k <= hi && park.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return err
	})
	if _, err := ov.Root(); err != nil {
		t.Fatal(err)
	}

	park.Store(true)
	ov.MarkKey(k)
	first := make(chan error, 1)
	go func() { _, err := ov.Rehash(); first <- err }()
	<-parked // pass 1 has read k=1 and not stored its leaf yet
	mu.Lock()
	m[k] = 2
	mu.Unlock()
	ov.MarkKey(k)
	second := make(chan error, 1)
	go func() { _, err := ov.Rehash(); second <- err }()
	// Without serialisation pass 2 finishes here, which is the losing
	// order; with it pass 2 waits for pass 1, and the timeout lets the
	// test go on to release pass 1.
	select {
	case err := <-second:
		second <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	for _, c := range []chan error{first, second} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}

	got, err := ov.Root()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewOverlay(nb, plain).Root()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("root %x after overlapping passes, fresh overlay %x: a stale leaf survived", got[:8], want[:8])
	}
}

func buildProof(t *testing.T, maps []map[uint64]uint64, nb int, key uint64) *Proof {
	t.Helper()
	shards := len(maps)
	si := ShardOf(key, shards)
	roots := make([]Hash, shards)
	var ov *Overlay
	for i, m := range maps {
		o := NewOverlay(nb, mapScan(m, nil))
		r, err := o.Root()
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = r
		if i == si {
			ov = o
		}
	}
	b := BucketOf(key, nb)
	lo, hi := BucketSpan(b, nb)
	p := &Proof{Shards: shards, ShardIdx: si, Buckets: nb, Bucket: b,
		ShardRoots: roots, Siblings: ov.LeafPath(b)}
	if err := mapScan(maps[si], nil)(lo, hi, func(k, v uint64) bool {
		p.Keys = append(p.Keys, k)
		p.Vals = append(p.Vals, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProofRoundTripAndVerify(t *testing.T) {
	maps := []map[uint64]uint64{
		{10: 100, 20: 200},
		{0x6000000000000000: 7, 0x6000000000000005: 8},
		{0xF000000000000000: 9},
	}
	for i, m := range maps {
		for k := range m {
			if ShardOf(k, len(maps)) != i {
				t.Fatalf("fixture: key %#x not in shard %d", k, i)
			}
		}
	}
	nb := 128
	roots := make([]Hash, len(maps))
	for i, m := range maps {
		o := NewOverlay(nb, mapScan(m, nil))
		roots[i], _ = o.Root()
	}
	trusted := CombineShards(roots, nb)

	for _, tc := range []struct {
		key     uint64
		present bool
		val     uint64
	}{
		{10, true, 100}, {20, true, 200}, {0x6000000000000005, true, 8}, {15, false, 0}, {1 << 63, false, 0},
	} {
		p := buildProof(t, maps, nb, tc.key)
		enc := EncodeProof(nil, p)
		dec, err := DecodeProof(enc)
		if err != nil {
			t.Fatalf("key %d: decode: %v", tc.key, err)
		}
		v, present, err := dec.Verify(tc.key, trusted)
		if err != nil {
			t.Fatalf("key %d: verify: %v", tc.key, err)
		}
		if present != tc.present || v != tc.val {
			t.Fatalf("key %d: got (%d,%v), want (%d,%v)", tc.key, v, present, tc.val, tc.present)
		}
	}
}

// TestProofTamperRejected is the acceptance property behind
// client.VerifiedGet: any bit the server lies about must fail
// verification against the pinned root.
func TestProofTamperRejected(t *testing.T) {
	maps := []map[uint64]uint64{{10: 100, 20: 200}, {1 << 63: 7}}
	nb := 64
	roots := make([]Hash, len(maps))
	for i, m := range maps {
		o := NewOverlay(nb, mapScan(m, nil))
		roots[i], _ = o.Root()
	}
	trusted := CombineShards(roots, nb)
	key := uint64(10)

	tampers := []struct {
		name string
		mut  func(p *Proof)
	}{
		{"value lie", func(p *Proof) { p.Vals[0] ^= 1 }},
		{"drop pair (fake exclusion)", func(p *Proof) { p.Keys = p.Keys[1:]; p.Vals = p.Vals[1:] }},
		{"extra pair (fake inclusion)", func(p *Proof) {
			p.Keys = append(p.Keys, p.Keys[len(p.Keys)-1]+1)
			p.Vals = append(p.Vals, 1)
		}},
		{"sibling swap", func(p *Proof) {
			if len(p.Siblings) > 1 {
				p.Siblings[0], p.Siblings[1] = p.Siblings[1], p.Siblings[0]
			} else {
				p.Siblings[0][0] ^= 1
			}
		}},
		{"foreign shard root", func(p *Proof) { p.ShardRoots[1][5] ^= 1 }},
		{"wrong bucket", func(p *Proof) { p.Bucket ^= 1 }},
	}
	for _, tc := range tampers {
		p := buildProof(t, maps, nb, key)
		tc.mut(p)
		// Tampered proofs may also fail re-encoding checks; go through
		// the codec exactly as a client would.
		dec, err := DecodeProof(EncodeProof(nil, p))
		if err != nil {
			continue // rejected at decode: also a pass
		}
		if _, _, err := dec.Verify(key, trusted); err == nil {
			t.Fatalf("%s: tampered proof verified", tc.name)
		} else if !errors.Is(err, ErrBadProof) && !errors.Is(err, ErrRootMismatch) {
			t.Fatalf("%s: unexpected error class %v", tc.name, err)
		}
	}
}

func TestDecodeProofNeverPanics(t *testing.T) {
	cases := [][]byte{
		nil, {}, {1}, make([]byte, 15), make([]byte, 16), make([]byte, 1000),
	}
	// A valid proof truncated at every length.
	p := buildProof(t, []map[uint64]uint64{{1: 2, 3: 4}}, 16, 1)
	enc := EncodeProof(nil, p)
	for i := range enc {
		cases = append(cases, enc[:i])
	}
	for _, c := range cases {
		_, _ = DecodeProof(c) // must not panic
	}
	if _, err := DecodeProof(enc); err != nil {
		t.Fatalf("full encoding rejected: %v", err)
	}
}
