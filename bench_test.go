// The benchmark is blinkbench (bench/, BENCHMARK.json); a number that
// is one of its metrics is not measured here a second time. Two kinds
// of go test benchmark stay.
//
// One profile target per gated workload, because blinkbench has no
// profile flag and scripts/profile.sh needs a benchmark to point at:
// BenchmarkMemBalanced, BenchmarkNetReadMostly, BenchmarkDurableBatch
// and BenchmarkDiskRead.
//
// The ablations: a benchmark that varies a design choice (an Options or
// Config value, or an algorithm alternative) which no BENCHMARK.json
// metric reports.
package blinktree

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/baseline/coarse"
	"blinktree/internal/blink"
	"blinktree/internal/compress"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/repl"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
	"blinktree/internal/workload"
)

// benchMix drives RunParallel with a deterministic per-goroutine
// workload generator drawing uniformly from [0, keySpace).
func benchMix(b *testing.B, tr base.Tree, keySpace uint64, mix workload.Mix) {
	benchMixDist(b, tr, workload.Uniform{N: keySpace}, mix)
}

// benchMixDist is benchMix with an arbitrary key distribution.
func benchMixDist(b *testing.B, tr base.Tree, dist workload.KeyDist, mix workload.Mix) {
	b.Helper()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gen, err := workload.NewGenerator(seed.Add(1)*104729, dist, mix)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := workload.Apply(tr, gen.Next()); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// loadPairs is a BulkLoad source of n pairs: the i-th is key(i) with
// value i+1. key must ascend.
func loadPairs(n uint64, key func(i uint64) uint64) func() (Key, Value, bool) {
	var i uint64
	return func() (Key, Value, bool) {
		if i >= n {
			return 0, 0, false
		}
		i++
		return Key(key(i - 1)), Value(i), true
	}
}

// BenchmarkMemBalanced is blinkbench's mem-balanced cell as a go test
// benchmark, the shape scripts/profile.sh profiles: the public facade
// with default Options (k = 16, background compression), the 1M even
// keys of [0, 2M) bulk-loaded at fill 0.7, then 50 % Search / 25 %
// Insert / 25 % Delete uniform over [0, 2M), so the size stays put.
func BenchmarkMemBalanced(b *testing.B) {
	const keys = 1_000_000
	t, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	if err := t.BulkLoad(loadPairs(keys, func(i uint64) uint64 { return 2 * i }), 0.7); err != nil {
		b.Fatal(err)
	}
	benchMix(b, t, 2*keys, workload.Balanced)
}

// BenchmarkNetReadMostly is blinkbench's net-readmostly cell as a go
// test benchmark: a 2-shard router behind internal/server on loopback,
// default Config, 1M keys bulk-loaded at fill 0.7, one client with one
// connection per P shared by 32 callers; 80 % Search / 20 % Upsert over
// the loaded keys. The gate's Zipf has skew 0.99; math/rand's needs
// more than 1, so this one draws at 1.01.
func BenchmarkNetReadMostly(b *testing.B) {
	const keys = 1_000_000
	stride := ^uint64(0) / keys
	r, err := shard.NewRouter(2, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.BulkLoad(loadPairs(keys, func(i uint64) uint64 { return i * stride }), 0.7); err != nil {
		b.Fatal(err)
	}
	srv := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	procs := runtime.GOMAXPROCS(0)
	cl, err := client.Dial(srv.Addr().String(), client.Options{Conns: procs})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	var seed atomic.Int64
	b.SetParallelism((32 + procs - 1) / procs) // RunParallel starts parallelism × GOMAXPROCS callers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gen, err := workload.NewGenerator(seed.Add(1)*104729,
			workload.Stretch{Base: workload.Zipf{N: keys, S: 1.01}, Stride: stride},
			workload.Mix{SearchPct: 80, UpsertPct: 20})
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			op := gen.Next()
			if op.Kind == workload.OpSearch {
				_, err = cl.Search(ctx, client.Key(op.Key))
			} else {
				_, _, err = cl.Upsert(ctx, client.Key(op.Key), client.Value(op.Key))
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if polls := srv.Metrics.Polls.Load(); polls > 0 {
		b.ReportMetric(float64(srv.Metrics.Requests.Load())/float64(polls), "reqs/poll")
	}
}

// BenchmarkDurableBatch is blinkbench's durable-batch cell as a go test
// benchmark: the 2-shard durable router with fsync on; three of every
// four of 2M stretched slots loaded, the steady presence of the mix; one
// caller per P, each ApplyBatch of 32 uniform ops, 75 % Upsert / 25 %
// Delete. One iteration is one op; the gate's mid-slice checkpoints are
// not reproduced.
func BenchmarkDurableBatch(b *testing.B) {
	const slots = 2_000_000
	const batchSize = 32
	stride := ^uint64(0) / slots
	r, err := shard.NewRouter(2, shard.Options{Durable: true, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	// Slots 0, 1, 2, 4, 5, 6, 8, …: every fourth stays empty.
	if err := r.BulkLoad(loadPairs(slots/4*3, func(i uint64) uint64 { return (i/3*4 + i%3) * stride }), 0.7); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gen, err := workload.NewGenerator(seed.Add(1)*104729,
			workload.Stretch{Base: workload.Uniform{N: slots}, Stride: stride},
			workload.Mix{UpsertPct: 75, DeletePct: 25})
		if err != nil {
			b.Error(err)
			return
		}
		batch := make([]shard.Op, 0, batchSize)
		apply := func() bool {
			for _, res := range r.ApplyBatch(batch) {
				if res.Err != nil && !errors.Is(res.Err, base.ErrNotFound) {
					b.Error(res.Err)
					return false
				}
			}
			batch = batch[:0]
			return true
		}
		for pb.Next() {
			op := gen.Next()
			if op.Kind == workload.OpUpsert {
				batch = append(batch, shard.Op{Kind: shard.OpUpsert, Key: op.Key, Value: base.Value(op.Key)})
			} else {
				batch = append(batch, shard.Op{Kind: shard.OpDelete, Key: op.Key})
			}
			if len(batch) == batchSize && !apply() {
				return
			}
		}
		apply()
	})
	b.StopTimer()
	if st, err := r.Stats(); err == nil {
		b.ReportMetric(st.WAL.MeanGroup(), "recs/fsync")
	}
}

// BenchmarkDiskRead is blinkbench's disk-read cell as a go test
// benchmark, so scripts/profile.sh BenchmarkDiskRead profiles it: a
// disk-native tree, 1M keys bulk-loaded at fill 0.7, then 90 % Search /
// 10 % Upsert uniform over the loaded keys. The sub-benchmarks size the
// buffer pool at 10 % (the gated cell), 5 % and 1 % of the page file.
// The page file sits in the operating system's cache here, so a miss
// costs a read system call, not a device.
func BenchmarkDiskRead(b *testing.B) {
	const keys = 1_000_000
	load := func(t *Tree) {
		if err := t.BulkLoad(loadPairs(keys, func(i uint64) uint64 { return i }), 0.7); err != nil {
			b.Fatal(err)
		}
	}
	// The page file is one page per node; the bulk loader packs nodes
	// the same way on either store, so an in-memory load measures it.
	m, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	load(m)
	st, err := m.Stats()
	m.Close()
	if err != nil {
		b.Fatal(err)
	}
	footprint := int64(st.Occupancy.Nodes) * storage.DefaultPageSize
	for _, pct := range []int64{10, 5, 1} {
		b.Run(fmt.Sprintf("pool=%d%%", pct), func(b *testing.B) {
			t, err := Open(Options{DiskNative: true, CacheBytes: footprint * pct / 100})
			if err != nil {
				b.Fatal(err)
			}
			defer t.Close()
			load(t)
			benchMix(b, t, keys, workload.Mix{SearchPct: 90, UpsertPct: 10})
		})
	}
}

// BenchmarkCompressorWorkers varies the number of background §5.4
// compressor workers (0 to 8) under delete-heavy mutators.
func BenchmarkCompressorWorkers(b *testing.B) {
	for _, nComp := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", nComp), func(b *testing.B) {
			st := node.NewMemStore()
			lt := locks.NewTable()
			tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 8})
			if err != nil {
				b.Fatal(err)
			}
			var comp *compress.Compressor
			if nComp > 0 {
				comp = compress.NewCompressor(st, lt, 8, nil)
				comp.Attach(tr)
				comp.Start(nComp)
				defer comp.Stop()
			}
			const keySpace = 1 << 17
			for i := 0; i < 50000; i++ {
				if err := tr.Insert(base.Key(i*2), 0); err != nil {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, keySpace, workload.DeleteHeavy)
		})
	}
}

// BenchmarkAblationRestartPolicy compares the two §5.2 restart
// strategies under compression churn.
func BenchmarkAblationRestartPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    blink.RestartPolicy
	}{{"backtrack", blink.RestartBacktrack}, {"fromroot", blink.RestartFromRoot}} {
		b.Run(pol.name, func(b *testing.B) {
			st := node.NewMemStore()
			lt := locks.NewTable()
			tr, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: 4, Restart: pol.p})
			if err != nil {
				b.Fatal(err)
			}
			comp := compress.NewCompressor(st, lt, 4, nil)
			comp.Attach(tr)
			comp.Start(2)
			defer comp.Stop()
			const n = 50000
			for i := 0; i < n; i++ {
				if err := tr.Insert(base.Key(i), 0); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := base.Key(i % n)
					_ = tr.Delete(k)
					_ = tr.Insert(k, 0)
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := tr.Search(base.Key((i * 40503) % n)); err != nil && !errors.Is(err, base.ErrNotFound) {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAblationStore compares the in-memory node store against the
// paged (codec) store — the copy-on-write vs serialize design choice.
func BenchmarkAblationStore(b *testing.B) {
	build := func(b *testing.B, paged bool) base.Tree {
		var st node.Store = node.NewMemStore()
		if paged {
			var err error
			st, err = node.NewPagedStore(storage.NewMemStore(4096))
			if err != nil {
				b.Fatal(err)
			}
		}
		tr, err := blink.New(blink.Config{Store: st, MinPairs: 16})
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	for _, c := range []struct {
		name  string
		paged bool
	}{{"memstore", false}, {"pagedstore", true}} {
		b.Run(c.name, func(b *testing.B) {
			tr := build(b, c.paged)
			for i := 0; i < 20000; i++ {
				if err := tr.Insert(base.Key(i*7), 0); err != nil {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, 1<<18, workload.Balanced)
		})
	}
}

// BenchmarkAblationMinPairs sweeps the branching parameter k — fan-out
// vs height vs lock-contention granularity.
func BenchmarkAblationMinPairs(b *testing.B) {
	for _, k := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			st := node.NewMemStore()
			tr, err := blink.New(blink.Config{Store: st, MinPairs: k})
			if err != nil {
				b.Fatal(err)
			}
			const keySpace = 1 << 18
			for i := 0; i < 50000; i++ {
				key := base.Key(uint64(i) * (keySpace / 50000))
				if err := tr.Insert(key, 0); err != nil && !errors.Is(err, base.ErrDuplicate) {
					b.Fatal(err)
				}
			}
			benchMix(b, tr, keySpace, workload.Balanced)
		})
	}
}

// BenchmarkBulkLoadVsInsert compares bottom-up construction against
// repeated insertion for sorted initial loads.
func BenchmarkBulkLoadVsInsert(b *testing.B) {
	const n = 100000
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := blink.New(blink.Config{MinPairs: 16})
			if err != nil {
				b.Fatal(err)
			}
			j := 0
			if err := tr.BulkLoad(func() (base.Key, base.Value, bool) {
				if j >= n {
					return 0, 0, false
				}
				k := base.Key(j)
				j++
				return k, base.Value(k), true
			}, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "keys")
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := blink.New(blink.Config{MinPairs: 16})
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < n; j++ {
				if err := tr.Insert(base.Key(j), base.Value(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(n), "keys")
	})
}

// BenchmarkShardedScaling varies the shard count (the gate runs two):
// the sharded front-end against the single tree (shards=1) under the
// concurrent balanced mix. Keys are spread
// over the full uint64 range so every partition receives traffic.
// Sharding wins twice: contention (locks, queues, root splits) is
// confined to one shard, and each shard is shallower than one big tree
// holding the same population.
func BenchmarkShardedScaling(b *testing.B) {
	const population = 1 << 18
	const preload = 50000
	stride := ^uint64(0)/population + 1
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			idx, err := OpenSharded(n, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			for i := 0; i < preload; i++ {
				k := Key(uint64(i) * (population / preload) * stride)
				if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
					b.Fatal(err)
				}
			}
			// Oversubscribe goroutines so lock contention — what
			// sharding relieves — shows even at low core counts.
			b.SetParallelism(8)
			benchMixDist(b, idx,
				workload.Stretch{Base: workload.Uniform{N: population}, Stride: stride},
				workload.Balanced)
		})
	}
}

// BenchmarkConditionalWrites sets the atomic conditional-write surface
// against its pre-API emulation. "atomic" upserts with one
// descent and one leaf lock; "emulated" is what callers had to write
// before: Search, then Delete+Insert on a hit or Insert on a miss —
// two to three descents and no atomicity. Run single-tree and sharded;
// the gap is the price of the emulation, and it widens with height and
// with shard-level parallelism (more concurrent writers per second
// paying the extra descents).
func BenchmarkConditionalWrites(b *testing.B) {
	const keySpace = 1 << 18
	const preload = 50000
	build := func(b *testing.B, shards int) Index {
		var idx Index
		var err error
		if shards > 1 {
			idx, err = OpenSharded(shards, Options{})
		} else {
			idx, err = Open(Options{})
		}
		if err != nil {
			b.Fatal(err)
		}
		stride := ^uint64(0)/keySpace + 1
		for i := 0; i < preload; i++ {
			k := Key(uint64(i) * (keySpace / preload) * stride)
			if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
				b.Fatal(err)
			}
		}
		return idx
	}
	drive := func(b *testing.B, idx Index, emulated bool) {
		stride := ^uint64(0)/keySpace + 1
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := seed.Add(1) * 104729
			i := 0
			for pb.Next() {
				// Write-heavy: 75% upsert, 25% read-modify-write.
				rng = rng*6364136223846793005 + 1442695040888963407
				k := Key((uint64(rng>>11) % keySpace) * stride)
				if i++; i%4 != 0 {
					if emulated {
						if _, err := idx.Search(k); err == nil {
							if err := idx.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
								b.Error(err)
								return
							}
						}
						if err := idx.Insert(k, Value(k)); err != nil && !errors.Is(err, ErrDuplicate) {
							b.Error(err)
							return
						}
					} else if _, _, err := idx.Upsert(k, Value(k)); err != nil {
						b.Error(err)
						return
					}
				} else {
					if emulated {
						v, err := idx.Search(k)
						if errors.Is(err, ErrNotFound) {
							continue
						}
						if err != nil {
							b.Error(err)
							return
						}
						if err := idx.Delete(k); err != nil && !errors.Is(err, ErrNotFound) {
							b.Error(err)
							return
						}
						if err := idx.Insert(k, v); err != nil && !errors.Is(err, ErrDuplicate) {
							b.Error(err)
							return
						}
					} else if _, err := idx.Update(k, func(v Value) Value { return v }); err != nil && !errors.Is(err, ErrNotFound) {
						b.Error(err)
						return
					}
				}
			}
		})
	}
	for _, cfg := range []struct {
		name   string
		shards int
	}{{"tree", 1}, {"sharded=8", 8}} {
		for _, mode := range []struct {
			name     string
			emulated bool
		}{{"atomic", false}, {"emulated", true}} {
			b.Run(fmt.Sprintf("%s/%s", cfg.name, mode.name), func(b *testing.B) {
				idx := build(b, cfg.shards)
				defer idx.Close()
				drive(b, idx, mode.emulated)
			})
		}
	}
}

// BenchmarkReplication is the one measurement of the replicated write
// path until the gate has a workload for it (ROADMAP item 3): upserts
// flow to a durable primary while a durable follower streams its WAL
// over TCP loopback; the reported extras are the records the follower
// still had to apply when the writers stopped (lag) and the time it took
// to drain them.
func BenchmarkReplication(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rp, err := shard.NewRouter(shards, shard.Options{MinPairs: 16, Durable: true, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer rp.Close()
			srv := server.New(rp, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			rf, err := shard.NewRouter(shards, shard.Options{MinPairs: 16, Durable: true, Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer rf.Close()
			fl, err := repl.NewFollower(rf, repl.FollowerConfig{Primary: srv.Addr().String()})
			if err != nil {
				b.Fatal(err)
			}
			fl.Start()
			defer fl.Stop()
			cl, err := client.Dial(srv.Addr().String(), client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			var seed atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				g := uint64(seed.Add(1))
				i := uint64(0)
				for pb.Next() {
					k := client.Key((g<<32 | i) * 11400714819323198485)
					if _, _, err := cl.Upsert(ctx, k, client.Value(i)); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			var target uint64
			for i := 0; i < shards; i++ {
				target += rp.Engine(i).WAL().Stats().Records
			}
			lag := uint64(0)
			if a := fl.Stats().Applied; target > a {
				lag = target - a
			}
			drainStart := time.Now()
			for fl.Stats().Applied < target {
				if time.Since(drainStart) > 30*time.Second {
					b.Fatal("follower never drained")
				}
				time.Sleep(time.Millisecond)
			}
			b.ReportMetric(float64(lag), "lag-recs")
			b.ReportMetric(float64(time.Since(drainStart).Microseconds())/1000, "drain-ms")
		})
	}
}

// BenchmarkCoarseFloor pins the coarse baseline cost for reference.
func BenchmarkCoarseFloor(b *testing.B) {
	tr, err := coarse.New(16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		if err := tr.Insert(base.Key(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	benchMix(b, tr, 1<<17, workload.Balanced)
}
