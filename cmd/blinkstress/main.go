// Command blinkstress is the repository's end-to-end correctness check:
// an executable form of the paper's Theorems 1 and 2, and of the
// durability, replication, migration and integrity claims built on the
// tree. Each -scenario drives traffic, injects its event and verifies; a
// non-zero exit means a bug. A flag the scenario does not read is
// refused (blinkstress -h lists them).
//
//	tree         Theorems 1 and 2 under a -mix with compression, on one tree or -shards N
//	durable      an in-process WAL-backed router whose log committer dies at a torn offset
//	net          a volatile server over TCP, spawned or at -addr
//	net-durable  a durable server, kill -9'd mid-run and restarted on its directory
//	disk         net-durable through a buffer pool of -cache-ratio of the data
//	repl         primary + follower: converge, kill -9 the primary, promote
//	cluster      two members: live migration under load, kill -9 of target and source
//	audit        verified primary + follower: checksum-clean tampering is caught
//
// All but tree and audit drive one oracle workload (oracle.go); each
// runner's comment states what it verifies.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/workload"
)

// config is the parsed command line.
type config struct {
	scenario                        string
	dur                             time.Duration
	workers, compressors, k, shards int
	keys                            uint64
	mix, dir, addr                  string
	cacheRatio                      float64
}

// spec is a server configuration of this run's shape over dir.
func (c *config) spec(dir string) spec {
	return spec{Shards: c.shards, K: c.k, Compressors: c.compressors, Dir: dir}
}

// scenarios maps -scenario to its runner and to every flag it reads.
var scenarios = map[string]struct {
	run   func(*config)
	flags string
}{
	"tree":        {runTree, "duration workers compressors k shards mix keys"},
	"durable":     {runCrash, "duration workers compressors k shards dir"},
	"net":         {runNet, "duration workers compressors k shards addr"},
	"net-durable": {runCrash, "duration workers compressors k shards dir"},
	"disk":        {runCrash, "duration workers compressors k shards dir cache-ratio"},
	"repl":        {runRepl, "duration workers compressors k shards dir"},
	"cluster":     {runCluster, "duration workers compressors k shards dir"},
	"audit":       {runAudit, "compressors k shards dir"},
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" { // the supervisor's re-exec (child.go)
		runChild(os.Args[2])
		return
	}
	var c config
	flag.StringVar(&c.scenario, "scenario", "tree", "tree|durable|net|net-durable|disk|repl|cluster|audit")
	flag.DurationVar(&c.dur, "duration", 10*time.Second, "stress duration")
	flag.IntVar(&c.workers, "workers", 8, "mutator goroutines")
	flag.IntVar(&c.compressors, "compressors", 2, "background compression workers per tree")
	flag.IntVar(&c.k, "k", 4, "minimum pairs per node")
	flag.IntVar(&c.shards, "shards", 1, "range partitions")
	flag.Uint64Var(&c.keys, "keys", 100000, "tree: key population size")
	flag.StringVar(&c.mix, "mix", "balanced", "tree: read-only|read-mostly|balanced|insert-heavy|delete-heavy|write-only|upsert-heavy|rmw")
	flag.StringVar(&c.dir, "dir", "", "data directory (default: a temp dir, removed on PASS)")
	flag.StringVar(&c.addr, "addr", "", "net: stress this running, empty server instead of spawning one")
	flag.Float64Var(&c.cacheRatio, "cache-ratio", 0.10, "disk: pool budget as a fraction of the expected data")
	flag.Parse()

	sc, ok := scenarios[c.scenario]
	if !ok {
		usage("unknown -scenario %q", c.scenario)
	}
	reads := strings.Fields(sc.flags)
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "scenario" && !slices.Contains(reads, f.Name) {
			usage("-%s does nothing in -scenario %s", f.Name, c.scenario)
		}
	})
	if c.workers < 1 || c.shards < 1 || c.keys < 1 {
		usage("-workers, -shards and -keys must be at least 1")
	}
	if c.dir == "" && slices.Contains(reads, "dir") {
		d, err := os.MkdirTemp("", "blinkstress-"+c.scenario)
		if err != nil {
			fatal("tmpdir", err)
		}
		defer os.RemoveAll(d)
		c.dir = d
	}
	if fs, _ := os.ReadDir(c.dir); len(fs) > 0 { // every pair must be this run's
		usage("-dir %s is not empty", c.dir)
	}
	fmt.Println("blinkstress", strings.Join(os.Args[1:], " "), c.dir)
	sc.run(&c)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// fatal reports a failed check and exits 1, killing every live server
// child first: os.Exit skips the deferred stops.
func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "FAIL (%s): %v\n", what, err)
	killAll()
	os.Exit(1)
}

var mixes = map[string]workload.Mix{
	"read-only":    workload.ReadOnly,
	"read-mostly":  workload.ReadMostly,
	"balanced":     workload.Balanced,
	"insert-heavy": workload.InsertHeavy,
	"delete-heavy": workload.DeleteHeavy,
	"write-only":   workload.WriteOnly,
	"upsert-heavy": workload.UpsertHeavy,
	"rmw":          workload.RMW,
}

// runTree is the tree scenario: Theorems 1 and 2 under a mixed
// workload with garbage collection, a stall watchdog, then Compact and
// the structural and lock-footprint assertions.
func runTree(c *config) {
	mix, ok := mixes[c.mix]
	if !ok {
		usage("unknown -mix %q", c.mix)
	}
	tr := open(c.spec("")) // in memory; one shard is the single tree
	defer tr.Close()

	// Stretch the key population over the full uint64 range so all
	// shards see traffic, and preload half so deletes find targets.
	stride := ^uint64(0)/c.keys + 1
	dist := workload.Stretch{Base: workload.Uniform{N: c.keys}, Stride: stride}
	for i := uint64(0); i < c.keys; i += 2 {
		if err := tr.Insert(base.Key(i*stride), base.Value(i*stride)); err != nil {
			fatal("preload", err)
		}
	}
	var ops atomic.Uint64
	var kindOps [workload.NumOpKinds]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen, err := workload.NewGenerator(int64(w)*977, dist, mix)
			if err != nil {
				fatal("generator", err)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				if _, err := workload.Apply(tr, op); err != nil {
					fatal("workload", fmt.Errorf("worker %d: %w on %+v", w, err, op))
				}
				ops.Add(1)
				kindOps[op.Kind].Add(1)
			}
		}()
	}
	// Collect garbage every 100 ms, as a long-running deployment would,
	// and fail on 2 s without progress: a deadlock or livelock.
	tick := time.NewTicker(100 * time.Millisecond)
	last, lastAt := uint64(0), time.Now()
	for end := time.Now().Add(c.dur); time.Now().Before(end); <-tick.C {
		if _, err := tr.CollectGarbage(); err != nil {
			fatal("collect", err)
		}
		if cur := ops.Load(); cur != last {
			last, lastAt = cur, time.Now()
		} else if time.Since(lastAt) > 2*time.Second {
			fatal("watchdog", fmt.Errorf("no progress for 2s — possible deadlock"))
		}
	}
	tick.Stop()
	close(stop)
	wg.Wait()

	if err := tr.Compact(); err != nil {
		fatal("compact", err)
	}
	if err := tr.Check(); err != nil {
		fatal("check", err)
	}
	st, err := tr.Stats()
	if err != nil {
		fatal("stats", err)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 || st.Tree.DeleteLocks.MaxHeld > 1 || st.Tree.CondLocks.MaxHeld > 1 {
		fatal("locks", fmt.Errorf("update footprint exceeded 1: %+v", st.Tree))
	}
	if st.CompressorMaxLocks > 3 {
		fatal("locks", fmt.Errorf("compressor footprint %d > 3", st.CompressorMaxLocks))
	}

	fmt.Printf("PASS: %d ops (%.0f ops/s), %d restarts, %d link hops, %d merges, %d redistributions\n",
		ops.Load(), float64(ops.Load())/c.dur.Seconds(), st.Tree.Restarts, st.Tree.LinkHops, st.Merges, st.Redist)
	fmt.Printf("      occupancy: %d nodes, height %d, %d underfull, mean fill %.2f; pages freed %d\n",
		st.Occupancy.Nodes, st.Occupancy.Height, st.Occupancy.Underfull, st.Occupancy.MeanFill, st.Reclaim.Freed)
	for kind := workload.OpKind(0); kind < workload.NumOpKinds; kind++ {
		if n := kindOps[kind].Load(); n > 0 {
			fmt.Printf("        %-7s %12d ops  %12.0f ops/s\n", kind, n, float64(n)/c.dur.Seconds())
		}
	}
	for _, ss := range tr.ShardStats() {
		routed := ss.Searches + ss.Inserts + ss.Deletes + ss.Upserts + ss.Updates + ss.Cas + ss.Scans
		fmt.Printf("        shard %2d: %9d ops  %7d pairs  height %d\n", ss.Shard, routed, ss.Len, ss.Height)
	}
}
