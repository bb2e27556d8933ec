package server

import (
	"context"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/shard"
)

// TestZeroAllocPointRoundTrip asserts the end-to-end steady state of
// the point-op serving path: client encode → pipelined write burst →
// server gather/decode → ApplyBatchInto → response frame → single
// flush → client decode. Searches mutate nothing, so with every
// buffer warm the entire stack — both processes' halves of it — should
// allocate nothing per operation.
//
// The assertion runs the whole server in-process, so it counts every
// allocation on both sides (testing.AllocsPerRun reads the global
// counter). The threshold is not exactly zero: sync.Pool caches are
// emptied by the GC AllocsPerRun triggers, so the first operations
// after it re-seed the pools, and the runtime occasionally grows a
// goroutine stack mid-run. Amortized over the measured runs that is
// well under one allocation per op — anything above the threshold
// means a real per-op allocation crept back into the path.
func TestZeroAllocPointRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race (instrumented allocs, sync.Pool drops puts)")
	}
	_, r, c := start(t, 1, Config{}, shard.Options{})
	ctx := context.Background()

	if err := r.Insert(42, 99); err != nil {
		t.Fatal(err)
	}
	// Warm every buffer on both sides.
	for i := 0; i < 200; i++ {
		if v, err := c.Search(ctx, 42); err != nil || v != 99 {
			t.Fatalf("warmup search: v=%d err=%v", v, err)
		}
	}

	// AllocsPerRun reads the global malloc counter, so any background
	// goroutine that happens to allocate mid-measurement (a sibling
	// test's server tearing down, the runtime growing a stack) inflates
	// the count. The path under test is deterministic; take the best of
	// a few attempts so only a real per-op allocation fails the gate.
	allocs := minAllocsPerRun(3, 1, func() float64 {
		return testing.AllocsPerRun(2000, func() {
			if _, err := c.Search(ctx, 42); err != nil {
				t.Fatal(err)
			}
		})
	})
	if allocs >= 1 {
		t.Fatalf("steady-state Search round trip: %.2f allocs/op, want < 1", allocs)
	}
}

// minAllocsPerRun returns the minimum of up to attempts measurements,
// stopping early once one lands under target.
func minAllocsPerRun(attempts int, target float64, measure func() float64) float64 {
	best := measure()
	for i := 1; i < attempts && best >= target; i++ {
		if a := measure(); a < best {
			best = a
		}
	}
	return best
}

// TestAllocBatchScratchReuse asserts the server-side batch path reuses
// its per-connection scratch: a warm ApplyBatchInto of search-only
// operations spread over all four shards — three spawned groups and one
// inline — allocates nothing, goroutine starts included.
func TestAllocBatchScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race (instrumented allocs, sync.Pool drops puts)")
	}
	const shards, keys = 4, 64
	r, err := shard.NewRouter(shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stride := ^uint64(0)/keys + 1 // keys 0..63 spread over the range-partitioned shards
	for k := uint64(0); k < keys; k++ {
		if err := r.Insert(base.Key(k*stride), base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]shard.Op, 32)
	groups := map[int]bool{}
	for i := range ops {
		k := base.Key(uint64(2*i) * stride)
		ops[i] = shard.Op{Kind: shard.OpSearch, Key: k}
		groups[r.ShardFor(k)] = true
	}
	if len(groups) != shards {
		t.Fatalf("the batch routes to %d shard groups, want %d", len(groups), shards)
	}
	var sc shard.BatchScratch
	// Warm the scratch.
	for i := 0; i < 10; i++ {
		for _, res := range r.ApplyBatchInto(ops, &sc) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	allocs := minAllocsPerRun(3, 1, func() float64 {
		return testing.AllocsPerRun(500, func() {
			r.ApplyBatchInto(ops, &sc)
		})
	})
	if allocs != 0 {
		t.Fatalf("warm ApplyBatchInto(32 ops, 4 shard groups): %.2f allocs/batch, want 0", allocs)
	}
}
