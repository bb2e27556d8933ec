package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"blinktree/internal/base"
)

// mustRouter builds an in-memory router or fails the test.
func mustRouter(t *testing.T, n int, opts Options) *Router {
	t.Helper()
	r, err := NewRouter(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// spread returns m keys evenly spaced over the full uint64 range, so
// every shard of any small n receives some.
func spread(m int) []base.Key {
	ks := make([]base.Key, m)
	stride := ^uint64(0)/uint64(m) + 1
	for i := range ks {
		ks[i] = base.Key(uint64(i) * stride)
	}
	return ks
}

func TestPartitionCoversKeyspace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 64} {
		r := mustRouter(t, n, Options{MinPairs: 2})
		if got := r.shardFor(0); got != 0 {
			t.Fatalf("n=%d: key 0 -> shard %d", n, got)
		}
		if got := r.shardFor(base.Key(^uint64(0))); got != n-1 {
			t.Fatalf("n=%d: max key -> shard %d, want %d", n, got, n-1)
		}
		// Boundaries belong to the right shard; boundary-1 to the left.
		for i := 1; i < n; i++ {
			lo := r.lowKey(i)
			if got := r.shardFor(lo); got != i {
				t.Fatalf("n=%d: low key of shard %d -> %d", n, i, got)
			}
			if got := r.shardFor(lo - 1); got != i-1 {
				t.Fatalf("n=%d: key below shard %d -> %d", n, i, got)
			}
		}
	}
}

func TestPointOpsRouteAndReport(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(64)
	for _, k := range keys {
		if err := r.Insert(k, base.Value(k)+1); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(keys))
	}
	for _, k := range keys {
		v, err := r.Search(k)
		if err != nil || v != base.Value(k)+1 {
			t.Fatalf("Search(%d) = (%d, %v)", k, v, err)
		}
	}
	if _, err := r.Search(3); !errors.Is(err, base.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := r.Insert(keys[0], 0); !errors.Is(err, base.ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	// Every shard saw an even slice of the routed inserts (shard 0 also
	// took the duplicate attempt).
	for i, st := range r.ShardStats() {
		want := uint64(16)
		if i == 0 {
			want = 17
		}
		if st.Inserts != want {
			t.Fatalf("shard %d routed %d inserts, want %d", i, st.Inserts, want)
		}
		if st.Len != 16 {
			t.Fatalf("shard %d holds %d pairs", i, st.Len)
		}
	}
	for _, k := range keys {
		if err := r.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after deletes = %d", r.Len())
	}
}

func TestRangeSpansShardBoundaries(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(256)
	for _, k := range keys {
		if err := r.Insert(k, base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan: globally ascending, all keys, each exactly once.
	var got []base.Key
	err := r.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("full scan saw %d keys, want %d", len(got), len(keys))
	}
	for i, k := range got {
		if k != keys[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, k, keys[i])
		}
	}
	// A window crossing the 1/4 and 2/4 boundaries.
	lo, hi := keys[50], keys[180]
	got = got[:0]
	if err := r.Range(lo, hi, func(k base.Key, _ base.Value) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 131 || got[0] != lo || got[len(got)-1] != hi {
		t.Fatalf("window scan: %d keys, first %d, last %d", len(got), got[0], got[len(got)-1])
	}
	// Early stop inside a middle shard.
	count := 0
	if err := r.Range(0, base.Key(^uint64(0)), func(base.Key, base.Value) bool {
		count++
		return count < 100
	}); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("early stop after %d keys", count)
	}
	// Inverted bounds scan nothing.
	if err := r.Range(hi, lo, func(base.Key, base.Value) bool {
		t.Fatal("inverted range produced a pair")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyShards(t *testing.T) {
	r := mustRouter(t, 8, Options{MinPairs: 2})
	// Populate only shard 2 and shard 6.
	k2 := r.lowKey(2) + 5
	k6 := r.lowKey(6) + 5
	for i := 0; i < 10; i++ {
		if err := r.Insert(k2+base.Key(i), 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Insert(k6+base.Key(i), 2); err != nil {
			t.Fatal(err)
		}
	}
	if k, _, err := r.Min(); err != nil || k != k2 {
		t.Fatalf("Min = (%d, %v)", k, err)
	}
	if k, _, err := r.Max(); err != nil || k != k6+9 {
		t.Fatalf("Max = (%d, %v)", k, err)
	}
	// Scan across six empty shards.
	var got []base.Key
	if err := r.Range(0, base.Key(^uint64(0)), func(k base.Key, _ base.Value) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("scan over empty shards saw %d keys", len(got))
	}
	// Cursor likewise.
	c := r.NewCursor(0)
	n := 0
	prev := base.Key(0)
	for {
		k, _, ok := c.Next()
		if !ok {
			break
		}
		if n > 0 && k <= prev {
			t.Fatalf("cursor not ascending: %d after %d", k, prev)
		}
		prev = k
		n++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("cursor over empty shards saw %d keys", n)
	}
	// Entirely empty router.
	empty := mustRouter(t, 3, Options{MinPairs: 2})
	if _, _, err := empty.Min(); !errors.Is(err, base.ErrNotFound) {
		t.Fatalf("Min on empty = %v", err)
	}
	if _, _, err := empty.Max(); !errors.Is(err, base.ErrNotFound) {
		t.Fatalf("Max on empty = %v", err)
	}
	if _, _, ok := empty.NewCursor(0).Next(); ok {
		t.Fatal("cursor on empty router yielded a pair")
	}
}

func TestCursorStitchesAndSeeks(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(100)
	for _, k := range keys {
		if err := r.Insert(k, base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	c := r.NewCursor(0)
	for i, want := range keys {
		k, v, ok := c.Next()
		if !ok || k != want || v != base.Value(want) {
			t.Fatalf("cursor[%d] = (%d, %d, %v), want key %d", i, k, v, ok, want)
		}
	}
	if _, _, ok := c.Next(); ok {
		t.Fatal("cursor past the end yielded a pair")
	}
	// Seek backwards across shards, then forwards.
	c.Seek(keys[10])
	if k, _, ok := c.Next(); !ok || k != keys[10] {
		t.Fatalf("after Seek back: (%d, %v)", k, ok)
	}
	c.Seek(keys[90] + 1)
	if k, _, ok := c.Next(); !ok || k != keys[91] {
		t.Fatalf("after Seek forward: (%d, %v)", k, ok)
	}
}

func TestConcurrentInsertDuringScan(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2, CompressorWorkers: 1})
	base0 := spread(200)
	for _, k := range base0 {
		if err := r.Insert(k, base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	present := make(map[base.Key]bool, len(base0))
	for _, k := range base0 {
		present[k] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Churn keys the scans don't assert on (odd offsets next to
			// the stable spread keys).
			k := base0[rng.Intn(len(base0))] + 1
			if i%2 == 0 {
				_ = r.engines[r.shardFor(k)].Tree.Insert(k, 0)
			} else {
				_ = r.engines[r.shardFor(k)].Tree.Delete(k)
			}
		}
	}()

	for iter := 0; iter < 50; iter++ {
		var prev base.Key
		n := 0
		seen := 0
		c := r.NewCursor(0)
		for {
			k, _, ok := c.Next()
			if !ok {
				break
			}
			if n > 0 && k <= prev {
				t.Fatalf("iter %d: cursor regressed %d after %d", iter, k, prev)
			}
			prev = k
			n++
			if present[k] {
				seen++
			}
		}
		if err := c.Err(); err != nil {
			t.Fatalf("iter %d: cursor error %v", iter, err)
		}
		// Every stable key must be observed: they are never mutated.
		if seen != len(base0) {
			t.Fatalf("iter %d: saw %d of %d stable keys", iter, seen, len(base0))
		}
	}
	close(stop)
	wg.Wait()
	// The churn's deletions left background compression work queued;
	// Check wants a structure that holds still.
	if err := r.DrainCompression(); err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestConditionalOpsRouteAndReport(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(16)
	for _, k := range keys {
		if old, existed, err := r.Upsert(k, base.Value(k)); err != nil || existed || old != 0 {
			t.Fatalf("upsert(%d) = (%d, %v, %v)", k, old, existed, err)
		}
	}
	for _, k := range keys {
		if old, existed, err := r.Upsert(k, base.Value(k)+1); err != nil || !existed || old != base.Value(k) {
			t.Fatalf("re-upsert(%d) = (%d, %v, %v)", k, old, existed, err)
		}
	}
	if v, loaded, err := r.GetOrInsert(keys[3], 999); err != nil || !loaded || v != base.Value(keys[3])+1 {
		t.Fatalf("getorinsert = (%d, %v, %v)", v, loaded, err)
	}
	if v, err := r.Update(keys[5], func(v base.Value) base.Value { return v * 2 }); err != nil || v != (base.Value(keys[5])+1)*2 {
		t.Fatalf("update = (%d, %v)", v, err)
	}
	if ok, err := r.CompareAndSwap(keys[7], base.Value(keys[7])+1, 42); err != nil || !ok {
		t.Fatalf("cas = (%v, %v)", ok, err)
	}
	if ok, err := r.CompareAndDelete(keys[9], base.Value(keys[9])+1); err != nil || !ok {
		t.Fatalf("cad = (%v, %v)", ok, err)
	}
	if r.Len() != len(keys)-1 {
		t.Fatalf("Len = %d", r.Len())
	}
	var upserts, updates, cas uint64
	for _, st := range r.ShardStats() {
		upserts += st.Upserts
		updates += st.Updates
		cas += st.Cas
	}
	if upserts != uint64(2*len(keys)+1) || updates != 1 || cas != 2 {
		t.Fatalf("routed counters: upserts=%d updates=%d cas=%d", upserts, updates, cas)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.Upserts != uint64(2*len(keys)+1) || st.Tree.Updates != 1 || st.Tree.Cas != 2 {
		t.Fatalf("aggregate tree counters: %+v", st.Tree)
	}
	if st.Tree.CondLocks.MaxHeld > 1 {
		t.Fatalf("cond footprint %d", st.Tree.CondLocks.MaxHeld)
	}
}

func TestApplyBatchConditionalKinds(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(8)
	if err := r.Insert(keys[0], 10); err != nil {
		t.Fatal(err)
	}
	res := r.ApplyBatch([]Op{
		{Kind: OpUpsert, Key: keys[0], Value: 11},      // over existing
		{Kind: OpUpsert, Key: keys[1], Value: 20},      // fresh
		{Kind: OpGetOrInsert, Key: keys[1], Value: 99}, // loads 20
		{Kind: OpGetOrInsert, Key: keys[2], Value: 30}, // stores 30
		{Kind: OpCompareAndSwap, Key: keys[1], Old: 20, Value: 21},
		{Kind: OpCompareAndSwap, Key: keys[1], Old: 20, Value: 22}, // stale old
		{Kind: OpCompareAndDelete, Key: keys[2], Old: 30},
		{Kind: OpCompareAndSwap, Key: keys[3], Old: 0, Value: 1}, // absent
	})
	if res[0].Err != nil || !res[0].OK || res[0].Value != 10 {
		t.Fatalf("batch upsert over = %+v", res[0])
	}
	if res[1].Err != nil || res[1].OK {
		t.Fatalf("batch upsert fresh = %+v", res[1])
	}
	if res[2].Err != nil || !res[2].OK || res[2].Value != 20 {
		t.Fatalf("batch getorinsert load = %+v", res[2])
	}
	if res[3].Err != nil || res[3].OK || res[3].Value != 30 {
		t.Fatalf("batch getorinsert store = %+v", res[3])
	}
	if res[4].Err != nil || !res[4].OK {
		t.Fatalf("batch cas = %+v", res[4])
	}
	if res[5].Err != nil || res[5].OK {
		t.Fatalf("batch stale cas = %+v", res[5])
	}
	if res[6].Err != nil || !res[6].OK {
		t.Fatalf("batch cad = %+v", res[6])
	}
	if !errors.Is(res[7].Err, base.ErrNotFound) || res[7].OK {
		t.Fatalf("batch cas absent = %+v", res[7])
	}
	if v, err := r.Search(keys[1]); err != nil || v != 21 {
		t.Fatalf("after batch, keys[1] = (%d, %v)", v, err)
	}
}

func TestReverseCursorStitchesShards(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(100)
	for _, k := range keys {
		if err := r.Insert(k, base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	c := r.NewReverseCursor(base.Key(^uint64(0)))
	for i := len(keys) - 1; i >= 0; i-- {
		k, v, ok := c.Next()
		if !ok || k != keys[i] || v != base.Value(keys[i]) {
			t.Fatalf("reverse[%d] = (%d, %d, %v), want %d", i, k, v, ok, keys[i])
		}
	}
	if _, _, ok := c.Next(); ok {
		t.Fatal("reverse cursor ran past the start")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// Seek across shards, both directions.
	c.Seek(keys[50])
	if k, _, ok := c.Next(); !ok || k != keys[50] {
		t.Fatalf("after Seek: %d", k)
	}
	c.Seek(keys[10] + 1)
	if k, _, ok := c.Next(); !ok || k != keys[10] {
		t.Fatalf("after Seek down: %d", k)
	}
	// Ascend/Descend round trip.
	var asc, desc []base.Key
	for k := range r.All() {
		asc = append(asc, k)
	}
	for k := range r.Descend(base.Key(^uint64(0)), 0) {
		desc = append(desc, k)
	}
	if len(asc) != len(keys) || len(desc) != len(keys) {
		t.Fatalf("All saw %d, Descend saw %d, want %d", len(asc), len(desc), len(keys))
	}
	for i := range asc {
		if asc[i] != keys[i] || desc[i] != keys[len(keys)-1-i] {
			t.Fatalf("iteration order broken at %d", i)
		}
	}
}

// TestCursorLastShardSkipsStitchProbes is the regression test for the
// stitch-probe fix: a cursor whose start lies inside the last shard
// must route directly to it (one per-shard cursor, like a point op)
// and never probe the others; and stitching over empty shards must
// skip them without opening per-shard cursors.
func TestCursorLastShardSkipsStitchProbes(t *testing.T) {
	r := mustRouter(t, 8, Options{MinPairs: 2})
	last := len(r.engines) - 1
	start := r.lowKey(last) + 5
	for i := 0; i < 10; i++ {
		if err := r.Insert(start+base.Key(i), base.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Start inside the last shard: exactly one per-shard cursor.
	c := r.NewCursor(start)
	n := 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("cursor from last shard saw %d keys", n)
	}
	if c.probes != 1 {
		t.Fatalf("cursor from last shard opened %d per-shard cursors, want 1", c.probes)
	}
	// Start at 0 with seven empty shards before the data: the stitch
	// must skip them all and open only the populated shard's cursor.
	c = r.NewCursor(0)
	n = 0
	for {
		if _, _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("cursor over empty shards saw %d keys", n)
	}
	if c.probes != 2 { // shard 0 (owner of start) + the last shard
		t.Fatalf("cursor over empty shards opened %d per-shard cursors, want 2", c.probes)
	}
	// Mirrored for the reverse cursor: start in shard 0.
	if err := r.engines[0].Tree.Insert(3, 33); err != nil {
		t.Fatal(err)
	}
	rc := r.NewReverseCursor(r.highKey(0))
	if k, v, ok := rc.Next(); !ok || k != 3 || v != 33 {
		t.Fatalf("reverse from first shard = (%d, %d, %v)", k, v, ok)
	}
	if _, _, ok := rc.Next(); ok {
		t.Fatal("reverse cursor left shard 0 downward")
	}
	if rc.probes != 1 {
		t.Fatalf("reverse cursor opened %d per-shard cursors, want 1", rc.probes)
	}
	// Reverse from the top skips the six empty shards between data.
	rc = r.NewReverseCursor(base.Key(^uint64(0)))
	n = 0
	for {
		if _, _, ok := rc.Next(); !ok {
			break
		}
		n++
	}
	if n != 11 {
		t.Fatalf("reverse stitch saw %d keys", n)
	}
	if rc.probes != 2 { // last shard + shard 0
		t.Fatalf("reverse stitch opened %d per-shard cursors, want 2", rc.probes)
	}
}

func TestBulkLoadAcrossShards(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 4})
	keys := spread(10000)
	i := 0
	err := r.BulkLoad(func() (base.Key, base.Value, bool) {
		if i >= len(keys) {
			return 0, 0, false
		}
		k := keys[i]
		i++
		return k, base.Value(k), true
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(keys))
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	for _, st := range r.ShardStats() {
		if st.Len != len(keys)/4 {
			t.Fatalf("shard %d loaded %d pairs, want %d", st.Shard, st.Len, len(keys)/4)
		}
	}
	for _, k := range []base.Key{keys[0], keys[2500], keys[5000], keys[9999]} {
		if v, err := r.Search(k); err != nil || v != base.Value(k) {
			t.Fatalf("Search(%d) = (%d, %v)", k, v, err)
		}
	}
	// Non-ascending streams are rejected, including across a boundary.
	r2 := mustRouter(t, 2, Options{MinPairs: 4})
	bad := []base.Key{1, r2.lowKey(1) + 1, 2}
	j := 0
	err = r2.BulkLoad(func() (base.Key, base.Value, bool) {
		if j >= len(bad) {
			return 0, 0, false
		}
		k := bad[j]
		j++
		return k, 0, true
	}, 0)
	if err == nil {
		t.Fatal("descending cross-boundary stream accepted")
	}
	// A stream confined to early shards leaves the rest empty.
	r3 := mustRouter(t, 4, Options{MinPairs: 4})
	j = 0
	if err := r3.BulkLoad(func() (base.Key, base.Value, bool) {
		if j >= 100 {
			return 0, 0, false
		}
		k := base.Key(j)
		j++
		return k, 0, true
	}, 0); err != nil {
		t.Fatal(err)
	}
	if r3.Len() != 100 {
		t.Fatalf("partial bulk load Len = %d", r3.Len())
	}
	if st := r3.ShardStats(); st[0].Len != 100 || st[3].Len != 0 {
		t.Fatalf("partial bulk load landed wrong: %+v", st)
	}
}

func TestApplyBatch(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 2})
	keys := spread(40)
	ops := make([]Op, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, Op{Kind: OpInsert, Key: k, Value: base.Value(k) * 3})
	}
	for i, res := range r.ApplyBatch(ops) {
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
	// Mixed batch: search hits, search misses, deletes, duplicate insert.
	mixed := []Op{
		{Kind: OpSearch, Key: keys[0]},
		{Kind: OpSearch, Key: keys[0] + 1},
		{Kind: OpDelete, Key: keys[39]},
		{Kind: OpInsert, Key: keys[1], Value: 9},
		{Kind: OpSearch, Key: keys[20]},
	}
	res := r.ApplyBatch(mixed)
	if res[0].Err != nil || res[0].Value != base.Value(keys[0])*3 {
		t.Fatalf("batch search = %+v", res[0])
	}
	if !errors.Is(res[1].Err, base.ErrNotFound) {
		t.Fatalf("batch miss = %v", res[1].Err)
	}
	if res[2].Err != nil {
		t.Fatalf("batch delete = %v", res[2].Err)
	}
	if !errors.Is(res[3].Err, base.ErrDuplicate) {
		t.Fatalf("batch duplicate = %v", res[3].Err)
	}
	if res[4].Err != nil || res[4].Value != base.Value(keys[20])*3 {
		t.Fatalf("batch search = %+v", res[4])
	}
	if r.Len() != 39 {
		t.Fatalf("Len after batch = %d", r.Len())
	}
	// Per-shard batch metrics recorded.
	var batches, bops uint64
	for _, st := range r.ShardStats() {
		batches += st.Batches
		bops += st.BatchOps
	}
	if batches < 4 || bops != uint64(len(ops)+len(mixed)) {
		t.Fatalf("batch metrics: %d batches, %d ops", batches, bops)
	}
	if len(r.ApplyBatch(nil)) != 0 {
		t.Fatal("empty batch produced results")
	}
}

func TestConcurrentMixedAcrossShards(t *testing.T) {
	r := mustRouter(t, 4, Options{MinPairs: 3, CompressorWorkers: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			stride := ^uint64(0)/4096 + 1
			for i := 0; i < 3000; i++ {
				k := base.Key(uint64(rng.Intn(4096)) * stride) // spans all shards
				switch rng.Intn(4) {
				case 0:
					if err := r.Insert(k, base.Value(k)); err != nil && !errors.Is(err, base.ErrDuplicate) {
						t.Errorf("insert: %v", err)
						return
					}
				case 1:
					if err := r.Delete(k); err != nil && !errors.Is(err, base.ErrNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				case 2:
					if v, err := r.Search(k); err == nil && v != base.Value(k) {
						t.Errorf("foreign value %d under %d", v, k)
						return
					}
				default:
					if err := r.Range(k, k+base.Key(stride*8), func(base.Key, base.Value) bool { return true }); err != nil {
						t.Errorf("range: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 || st.Tree.DeleteLocks.MaxHeld > 1 {
		t.Fatalf("update footprint exceeded 1: %+v", st.Tree)
	}
	if st.CompressorMaxLocks > 3 {
		t.Fatalf("compressor footprint %d", st.CompressorMaxLocks)
	}
	if st.Occupancy.Underfull != 0 {
		t.Fatalf("underfull after Compact: %+v", st.Occupancy)
	}
}

func TestStatsAggregation(t *testing.T) {
	r := mustRouter(t, 3, Options{MinPairs: 2})
	keys := spread(90)
	for _, k := range keys {
		if err := r.Insert(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := r.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.Inserts != 90 || st.Tree.Searches != 90 {
		t.Fatalf("aggregate counters: %d inserts, %d searches", st.Tree.Inserts, st.Tree.Searches)
	}
	if st.Tree.InsertLocks.Ops != 90 {
		t.Fatalf("aggregate footprint ops = %d", st.Tree.InsertLocks.Ops)
	}
	if st.Occupancy.Pairs != 90 {
		t.Fatalf("aggregate occupancy pairs = %d", st.Occupancy.Pairs)
	}
	if st.Occupancy.Height < 1 {
		t.Fatalf("aggregate height = %d", st.Occupancy.Height)
	}
}

func TestRouterRejectsBadShardCount(t *testing.T) {
	if _, err := NewRouter(0, Options{}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewRouter(-3, Options{}); err == nil {
		t.Fatal("negative shards accepted")
	}
}
