// Durability: run an index on a group-commit write-ahead log, crash
// nothing but still close and reopen it, checkpoint to truncate the
// log, and watch the WAL counters — every acknowledged write survives
// a restart (and a crash: see blinkstress -scenario durable for the
// kill-and-recover harness).
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
)

import "blinktree"

func main() {
	dir, err := os.MkdirTemp("", "blinktree-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := blinktree.Options{Durable: true, Dir: dir}
	tr, err := blinktree.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent writers: group commit batches their fsyncs. Each
	// Upsert returns only once its log record is on stable storage.
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := blinktree.Key(w*perWorker + i)
				if _, _, err := tr.Upsert(k, blinktree.Value(k)*2); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	st, _ := tr.Stats()
	fmt.Printf("wrote %d pairs durably: %d records in %d fsyncs (mean group %.1f)\n",
		tr.Len(), st.WAL.Records, st.WAL.Syncs, st.WAL.MeanGroup())

	// Checkpoint: snapshot the state, truncate the log. Recovery after
	// this replays only the records since.
	if err := tr.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := tr.Delete(7); err != nil {
		log.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen the same directory: checkpoint + log suffix come back.
	re, err := blinktree.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	rst, _ := re.Stats()
	fmt.Printf("recovered %d pairs (replayed %d post-checkpoint records)\n",
		re.Len(), rst.WAL.Replayed)
	if _, err := re.Search(7); err == nil {
		log.Fatal("deleted key survived recovery")
	}
	v, err := re.Search(4000 - 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spot check: key %d -> %d\n", 4000-1, v)
	if err := re.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered index verified: OK")

	// The same works sharded: each shard logs and checkpoints
	// independently under dir/shard<i>.
	sdir, err := os.MkdirTemp("", "blinktree-durable-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(sdir)
	sh, err := blinktree.OpenSharded(4, blinktree.Options{Durable: true, Dir: sdir})
	if err != nil {
		log.Fatal(err)
	}
	stride := ^uint64(0)/1000 + 1
	for i := uint64(0); i < 1000; i++ {
		if err := sh.Insert(blinktree.Key(i*stride), blinktree.Value(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sh.Close(); err != nil {
		log.Fatal(err)
	}
	sh2, err := blinktree.OpenSharded(4, blinktree.Options{Durable: true, Dir: sdir})
	if err != nil {
		log.Fatal(err)
	}
	defer sh2.Close()
	fmt.Printf("sharded recovery: %d pairs across %d shards\n", sh2.Len(), sh2.Shards())
}
