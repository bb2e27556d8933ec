package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
)

// E15DiskNative measures what disk-native serving costs: random point
// reads through the bounded buffer pool at several cache-to-dataset
// ratios, against the same engine fully in memory. Every configuration
// preloads the same golden-ratio-scattered keys, runs one warmup pass
// so the pool reaches its steady state, then times concurrent readers.
//
// The claim under test: with the cache fully warm (ratio 100%, every
// page resident after warmup) disk-native reads land within ~3x of the
// in-memory engine — the pool's directory lookup, hit counter and
// clock reference bit are the whole overhead — and throughput degrades
// smoothly, not catastrophically, as the budget shrinks and misses
// force demand fault-ins.
func E15DiskNative(w io.Writer, s Scale) error {
	tbl := &Table{
		Title:   "E15: disk-native random point reads (reads/s) vs in-memory, by cache ratio",
		Headers: []string{"config", "in-memory", "disk 100%", "disk 50%", "disk 10%", "disk 5%"},
		Notes: []string{
			"Same scattered preload everywhere; 8 reader goroutines; pool budget set to",
			"the named fraction of the measured on-disk footprint, split across shards.",
			"disk 100% after warmup = every page resident: the pool bookkeeping overhead.",
		},
	}
	ratios := []float64{-1, 1.0, 0.5, 0.10, 0.05} // -1 = no pool
	for _, shards := range []int{1, 8} {
		keys := s.n(120000)
		readOps := s.n(400000)
		row := []any{fmt.Sprintf("s=%d", shards)}
		for _, ratio := range ratios {
			tput, err := e15Cell(shards, ratio, keys, readOps)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", tput))
		}
		tbl.Add(row...)
	}
	tbl.Render(w)
	return nil
}

// e15Cell preloads keys scattered pairs and times readOps random point
// reads from 8 goroutines. ratio < 0 runs the plain in-memory engine;
// otherwise the engine is disk-native with a pool budget of ratio
// times the measured page footprint, divided evenly across shards.
func e15Cell(shards int, ratio float64, keys, readOps int) (float64, error) {
	key := func(i int) base.Key { return base.Key(uint64(i) * 11400714819323198485) }
	opts := shard.Options{MinPairs: 16}
	if ratio >= 0 {
		// Size the budget against the real footprint: preload the same
		// keys into a throwaway in-memory router and count its live
		// nodes (one page each).
		probe, err := shard.NewRouter(shards, shard.Options{MinPairs: 16})
		if err != nil {
			return 0, err
		}
		if err := e15Preload(probe, keys, key); err != nil {
			probe.Close()
			return 0, err
		}
		st, err := probe.Stats()
		probe.Close()
		if err != nil {
			return 0, err
		}
		opts.DiskNative = true
		opts.CacheBytes = int64(ratio*float64(st.Occupancy.Nodes)*storage.DefaultPageSize) / int64(shards)
	}
	r, err := shard.NewRouter(shards, opts)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if err := e15Preload(r, keys, key); err != nil {
		return 0, err
	}

	const readers = 8
	run := func(ops int, timed bool) (float64, error) {
		var wg sync.WaitGroup
		errCh := make(chan error, readers)
		per := ops / readers
		if per < 1 {
			per = 1
		}
		start := time.Now()
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)*2654435761 + 7))
				for i := 0; i < per; i++ {
					raw := rng.Intn(keys)
					if _, err := r.Search(key(raw)); err != nil {
						errCh <- fmt.Errorf("e15: key %d: %w", raw, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errCh:
			return 0, err
		default:
		}
		if !timed {
			return 0, nil
		}
		return float64(per*readers) / elapsed.Seconds(), nil
	}
	// Warmup pass: fill the pool to steady state (or prove it can't).
	if _, err := run(readOps/4, false); err != nil {
		return 0, err
	}
	return run(readOps, true)
}

// e15Preload upserts keys scattered pairs through the batch path.
func e15Preload(r *shard.Router, keys int, key func(int) base.Key) error {
	const batch = 512
	ops := make([]shard.Op, 0, batch)
	for i := 0; i < keys; i += batch {
		ops = ops[:0]
		for j := i; j < i+batch && j < keys; j++ {
			ops = append(ops, shard.Op{Kind: shard.OpUpsert, Key: key(j), Value: base.Value(j)})
		}
		for _, res := range r.ApplyBatch(ops) {
			if res.Err != nil {
				return res.Err
			}
		}
	}
	return nil
}
