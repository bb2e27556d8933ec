package suite

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/bench/gen"
	"blinktree/bench/hist"
	"blinktree/bench/report"
	"blinktree/bench/span"
	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/blink"
	"blinktree/internal/harness"
	"blinktree/internal/locks"
	"blinktree/internal/node"
	"blinktree/internal/reclaim"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
	"blinktree/internal/wire"
)

// The ladder measures one exported function of one layer at a time, in a
// single-goroutine loop: three repetitions, the median ns per call and
// allocations per call. Every repetition is a span, parented to the rung
// that calls the function, so the trace file holds the tree the ledger is
// computed from.
//
// The rungs of one ledger share one data set, or a rung could cost less
// than the rung beneath it: the serving rungs run on the net-readmostly
// router, the engine, tree and node rungs on the pairs its shard 0 holds
// (half the data set: the height is the same, the cache footprint not).
type ladder struct {
	cfg     Config
	tr      *tracer
	ring    *span.Ring
	rep     time.Duration // length of one repetition
	rng     *rand.Rand
	metrics []report.Metric
	ns      map[string]float64 // rung → median ns per call
	spanOf  map[string]uint64  // rung → span id of its first repetition
	shard0  *population        // what shard 0 of the serving router holds
	height  int
}

const (
	ladderReps = 3
	cycle      = 1 << 16 // pre-drawn random arguments a rung cycles through
	// A rung's repetition lasts this share of the cell's window: 60 ms
	// of 15 s. Thirty rungs, three repetitions each, take six seconds.
	rungShare = 0.004
)

func (l *ladder) add(name string, v float64, samples uint64) {
	l.metrics = append(l.metrics, report.Metric{Name: name, Value: v, Samples: samples})
}

// measure loops body for three repetitions and records the rung: the
// median ns per call as nsMetric·scale and, when allocMetric is set, the
// median allocations per call. parent names the rung whose function
// calls this one.
func (l *ladder) measure(rung, parent, nsMetric string, scale float64, allocMetric string, body func(i int)) (allocsPerCall float64) {
	var ns, allocs []float64
	var calls uint64
	kind := uint16(len(l.tr.kinds))
	layer, _, _ := strings.Cut(rung, ".")
	l.tr.kinds = append(l.tr.kinds, span.Kind{Name: rung, Layer: layer})
	for r := 0; r < ladderReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := l.tr.now()
		n, chunk := 0, 1
		var busy time.Duration
		for busy < l.rep {
			t0 := time.Now()
			for end := n + chunk; n < end; n++ {
				body(n)
			}
			d := time.Since(t0)
			busy += d
			if d < time.Millisecond {
				chunk *= 2
			}
		}
		end := l.tr.now()
		runtime.ReadMemStats(&m1)
		id := l.ring.Add(kind, l.spanOf[parent], 0, start, end, uint32(n))
		if r == 0 {
			l.spanOf[rung] = id
		}
		ns = append(ns, float64(busy)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		calls += uint64(n)
	}
	slices.Sort(ns)
	slices.Sort(allocs)
	l.ns[rung] = ns[ladderReps/2]
	l.add(nsMetric, ns[ladderReps/2]*scale, calls)
	if allocMetric != "" {
		l.add(allocMetric, allocs[ladderReps/2], calls)
	}
	return allocs[ladderReps/2]
}

func runLadder(cfg Config, tr *tracer) (*ladder, error) {
	l := &ladder{
		cfg: cfg, tr: tr, ring: tr.ring(1<<15, 256),
		rep: time.Duration(rungShare * cfg.Seconds * float64(time.Second)),
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x1adde5)),
		ns:  map[string]float64{}, spanOf: map[string]uint64{},
	}
	dir := filepath.Join(cfg.OutDir, "ladder")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, step := range []func(string) error{l.serving, l.echo, l.durable, l.blinkAndNode, l.paged, l.walRungs, l.wireRungs, l.baselines} {
		if err := step(dir); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	var pair int64
	l.measure("bench.timer_pair", "", "bench.timer_pair_ns", 1, "", func(int) {
		t0 := time.Now()
		pair += int64(time.Since(t0))
	})
	return l, nil
}

// draws pre-draws the random arguments a rung cycles through, so that
// the generator is not inside the measured loop.
func draws[T any](l *ladder, fn func() T) []T {
	out := make([]T, cycle)
	for i := range out {
		out[i] = fn()
	}
	return out
}

// measureRTT is measure for a round trip: every call is timed, and the
// rung's cost is the median call, not the mean the loop timed, because a
// round trip has a long tail. It returns the calls' histogram.
func (l *ladder) measureRTT(rung, parent, usMetric string, call func(i int)) *hist.H {
	var h hist.H
	l.measure(rung, parent, usMetric, 1e-3, "", func(i int) {
		t0 := time.Now()
		call(i)
		h.Record(int64(time.Since(t0)))
	})
	l.ns[rung] = h.Quantile(0.5)
	l.metrics[len(l.metrics)-1].Value = h.Quantile(0.5) / 1e3
	return &h
}

// serving measures the top of the ledger on the net-readmostly substrate:
// a 2-shard router loaded with the stretched data set, behind a server,
// reached by a client with one connection.
func (l *ladder) serving(string) error {
	n := uint64(l.cfg.Keys)
	pop := newPopulation(n, 1, 1, stretch(n))
	r, err := shard.NewRouter(netShards, shard.Options{})
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.BulkLoad(pop.pairs(), 0.7); err != nil {
		return err
	}
	// Shard 0 holds the slots below the first one the router sends on.
	n0 := uint64(sort.Search(int(n), func(s int) bool { return r.ShardFor(pop.key(uint64(s))) != 0 }))
	l.shard0 = newPopulation(n0, 1, 1, pop.stride)

	srv := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr().String(), client.Options{Conns: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx := context.Background()
	keys := draws(l, func() base.Key { return pop.key(l.rng.Uint64N(n)) })

	// One connection, one caller, sequential Search: the round trip with
	// nothing queued.
	var rerr error
	rtt := l.measureRTT("client.rtt_d1", "", "client.rtt_d1_us", func(i int) {
		if _, err := cl.Search(ctx, keys[i%cycle]); err != nil {
			rerr = err
		}
	})
	l.add("client.rtt_d1_p99_us", rtt.Quantile(0.99)/1e3, rtt.Count())
	ops := make([]client.Op, batchSize)
	l.measure("client.batch32", "", "client.batch32_us", 1e-3, "", func(i int) {
		for j := range ops {
			ops[j] = client.Op{Kind: client.OpUpsert, Key: keys[(i*batchSize+j)%cycle], Value: client.Value(i + 1)}
		}
		if _, err := cl.Batch(ctx, ops); err != nil {
			rerr = err
		}
	})

	l.measure("shard.router_search", "client.rtt_d1", "shard.router_search_ns", 1, "", func(i int) {
		if _, err := r.Search(keys[i%cycle]); err != nil {
			rerr = err
		}
	})
	var sc shard.BatchScratch
	bops := make([]shard.Op, batchSize)
	l.measure("shard.applybatch", "client.rtt_d1", "shard.applybatch_ns_per_op", 1.0/batchSize, "shard.applybatch_allocs_per_op", func(i int) {
		for j := range bops {
			bops[j] = shard.Op{Kind: shard.OpUpsert, Key: keys[(i*batchSize+j)%cycle], Value: base.Value(i + 1)}
		}
		for _, res := range r.ApplyBatchInto(bops, &sc) {
			if res.Err != nil {
				rerr = res.Err
			}
		}
	})
	// The rung loops over batches; its metrics are per operation. The
	// scale above did that for the time, this does it for the rest.
	l.ns["shard.applybatch"] /= batchSize
	l.metrics[len(l.metrics)-1].Value /= batchSize

	keys0 := draws(l, func() base.Key { return pop.key(l.rng.Uint64N(n0)) })
	e := r.Engine(0)
	l.measure("shard.engine_upsert", "shard.applybatch", "shard.engine_upsert_ns", 1, "", func(i int) {
		if _, _, err := e.Upsert(keys0[i%cycle], base.Value(i+1)); err != nil {
			rerr = err
		}
	})
	return rerr
}

// echo measures the loopback round trip with none of the program in it:
// one frame to an echoing goroutine and back, the reply read by a reader
// goroutine that wakes the caller, which is how client.Client receives.
// It is the part of client.rtt_d1 that belongs to the kernel and the
// scheduler; what the round trip costs beyond it is the protocol's.
func (l *ladder) echo(string) error {
	frame, err := wire.AppendFrame(nil, 1, wire.OpUpsert, make([]byte, 16))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(frame))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return // the caller hung up
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close() // ends both goroutines
	// One frame is in flight, so with room for one reply the reader never
	// blocks and closing conn always ends it.
	replies := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(replies)
		buf := make([]byte, len(frame))
		for {
			_, err := io.ReadFull(conn, buf)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			replies <- err
			if err != nil {
				return
			}
		}
	}()
	var rerr error
	l.measureRTT("bench.loopback_echo", "client.rtt_d1", "bench.loopback_echo_us", func(int) {
		if rerr != nil {
			return
		}
		if _, err := conn.Write(frame); err != nil {
			rerr = err
		} else if err, ok := <-replies; !ok {
			rerr = io.ErrUnexpectedEOF
		} else if err != nil {
			rerr = err
		}
	})
	return rerr
}

// durable measures an engine with a log that is written but never
// synced: what logging costs apart from the device.
func (l *ladder) durable(dir string) error {
	pop := l.shard0
	keys := draws(l, func() base.Key { return pop.key(l.rng.Uint64N(pop.slots)) })
	d, err := shard.OpenEngine(shard.Options{Durable: true, Dir: filepath.Join(dir, "nosync"), WALNoSync: true})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.BulkLoad(pop.pairs(), 0.7); err != nil {
		return err
	}
	var rerr error
	l.measure("shard.durable_upsert_nosync", "", "shard.durable_upsert_nosync_ns", 1, "", func(i int) {
		if _, _, err := d.Upsert(keys[i%cycle], base.Value(i+1)); err != nil {
			rerr = err
		}
	})
	return rerr
}

// blinkAndNode measures a bare blink.Tree over MemStore and Table, then
// the node and lock primitives one of its operations is made of.
func (l *ladder) blinkAndNode(string) error {
	pop := l.shard0
	st, lt := node.NewMemStore(), locks.NewTable()
	t, err := blink.New(blink.Config{Store: st, Locks: lt, MinPairs: blink.DefaultMinPairs, Restart: blink.RestartBacktrack, Reclaimer: reclaim.New(st.Free)})
	if err != nil {
		return err
	}
	defer t.Close()
	if err := t.BulkLoad(pop.pairs(), 0.7); err != nil {
		return err
	}
	l.height = t.Height()
	loaded := t.Len()
	present := draws(l, func() base.Key { return pop.key(l.rng.Uint64N(pop.slots)) })
	var rerr error
	l.measure("blink.search", "shard.router_search", "blink.search_ns", 1, "blink.search_allocs", func(i int) {
		if _, err := t.Search(present[i%cycle]); err != nil {
			rerr = err
		}
	})
	l.measure("blink.upsert", "shard.engine_upsert", "blink.upsert_ns", 1, "blink.upsert_allocs", func(i int) {
		if _, _, err := t.Upsert(present[i%cycle], base.Value(i+1)); err != nil {
			rerr = err
		}
	})
	// Insert walks distinct absent keys (a loaded key plus one) in a
	// scattered order: the multiplier is a prime above any population, so
	// i ↦ i·m mod slots is a bijection. The delete rung then removes every
	// one of them, and the primitives below rely on that: the tree ends
	// as it began.
	absent := func(i int) base.Key { return pop.key(uint64(i)*0x9E3779B1%pop.slots) + 1 }
	var inserted, deleted int
	l.measure("blink.insert", "", "blink.insert_ns", 1, "", func(int) {
		if err := t.Insert(absent(inserted), 1); err != nil {
			rerr = err
		}
		inserted++
	})
	if uint64(inserted) > pop.slots {
		return fmt.Errorf("ladder: %d inserts wrapped the %d absent keys", inserted, pop.slots)
	}
	if inserted < ladderReps {
		return errors.New("ladder: the insert rung inserted too few keys to time a delete")
	}
	// The delete rung is bounded by the keys the insert rung left, not by
	// time: each repetition deletes a third of them, the last the rest.
	var delNS []float64
	for r := 1; r <= ladderReps; r++ {
		from, end := deleted, inserted*r/ladderReps
		t0 := time.Now()
		for ; deleted < end; deleted++ {
			if err := t.Delete(absent(deleted)); err != nil {
				rerr = err
			}
		}
		delNS = append(delNS, float64(time.Since(t0))/float64(end-from))
	}
	slices.Sort(delNS)
	l.add("blink.delete_ns", delNS[ladderReps/2], uint64(deleted))
	if rerr != nil {
		return rerr
	}
	if t.Len() != loaded {
		return fmt.Errorf("ladder: the insert and delete rungs left %d pairs in a tree loaded with %d", t.Len(), loaded)
	}

	// The primitives, on the nodes the tree above is made of.
	var ids []base.PageID
	var leaves []*node.Node
	for id := base.PageID(1); int(id) <= st.Pages()+1; id++ {
		if n, err := st.Get(id); err == nil {
			ids = append(ids, id)
			if n.Leaf && len(n.Keys) >= 2 {
				leaves = append(leaves, n)
			}
		}
	}
	if len(leaves) == 0 {
		return errors.New("ladder: the loaded tree has no leaves")
	}
	rid := draws(l, func() base.PageID { return ids[l.rng.IntN(len(ids))] })
	rleaf := draws(l, func() *node.Node { return leaves[l.rng.IntN(len(leaves))] })
	var sink *node.Node
	var found int
	l.measure("node.memstore_get", "blink.upsert", "node.memstore_get_ns", 1, "", func(i int) {
		sink, _ = st.Get(rid[i%cycle]) // every id was read once above
	})
	l.measure("node.memstore_put", "blink.upsert", "node.memstore_put_ns", 1, "", func(i int) {
		if err := st.Put(rleaf[i%cycle]); err != nil { // the node it already holds
			rerr = err
		}
	})
	l.measure("node.clone", "blink.upsert", "node.clone_ns", 1, "node.clone_allocs", func(i int) {
		sink = rleaf[i%cycle].Clone()
	})
	l.measure("node.leaf_find", "blink.search", "node.leaf_find_ns", 1, "", func(i int) {
		n := rleaf[i%cycle]
		if _, ok := n.LeafFind(n.Keys[i%len(n.Keys)]); ok {
			found++
		}
	})
	l.measure("node.insert_pair", "blink.insert", "node.insert_pair_ns", 1, "", func(i int) {
		n := rleaf[i%cycle]
		sink = n.InsertLeafPair(n.Keys[0]+1, 1) // only loaded keys are left, a stride apart: +1 is absent and covered
	})
	l.measure("locks.lock_unlock", "blink.upsert", "locks.lock_unlock_ns", 1, "", func(i int) {
		lt.Lock(rid[i%cycle])
		lt.Unlock(rid[i%cycle])
	})
	runtime.KeepAlive(sink)
	return rerr
}

// paged measures the page codec and the buffer pool: a hit on a pool
// that holds every page, a miss on a pool of 64 frames over a file of
// 8192 pages.
func (l *ladder) paged(dir string) error {
	leaf := &node.Node{ID: 7, Leaf: true, Low: base.NegInfBound(), Link: 8}
	next := l.shard0.pairs()
	for i := 0; i < 22; i++ { // a leaf at fill 0.7 of 2k = 32 pairs
		k, v, _ := next()
		leaf.Keys, leaf.Vals = append(leaf.Keys, k), append(leaf.Vals, v)
	}
	leaf.High = base.FiniteBound(leaf.Keys[len(leaf.Keys)-1])
	page := make([]byte, storage.DefaultPageSize)
	var rerr error
	l.measure("node.encode", "node.paged_get_hit", "node.encode_ns", 1, "", func(int) {
		if err := node.Encode(leaf, page); err != nil {
			rerr = err
		}
	})
	var sink *node.Node
	l.measure("node.decode", "node.paged_get_hit", "node.decode_ns", 1, "", func(int) {
		n, err := node.Decode(leaf.ID, page)
		if err != nil {
			rerr = err
		}
		sink = n
	})
	if rerr != nil {
		return rerr
	}

	const pages = 8192
	fill := func(under storage.Store, capacity int) (*storage.BufferPool, []base.PageID, error) {
		pool := storage.NewBufferPool(under, capacity)
		ids := make([]base.PageID, pages)
		for i := range ids {
			id, err := pool.Allocate()
			if err != nil {
				return nil, nil, err
			}
			if err := pool.Write(id, page); err != nil {
				return nil, nil, err
			}
			ids[i] = id
		}
		return pool, ids, pool.Flush()
	}
	pinLoop := func(pool *storage.BufferPool, rid []base.PageID) func(int) {
		return func(i int) {
			fr, err := pool.Pin(rid[i%cycle])
			if err != nil {
				rerr = err
				return
			}
			pool.Unpin(fr)
		}
	}
	hot, ids, err := fill(storage.NewMemStore(storage.DefaultPageSize), 2*pages)
	if err != nil {
		return err
	}
	defer hot.Close()
	rid := draws(l, func() base.PageID { return ids[l.rng.IntN(pages)] })
	l.measure("storage.pin_hit", "node.paged_get_hit", "storage.pin_hit_ns", 1, "", pinLoop(hot, rid))

	fs, err := storage.NewFileStore(filepath.Join(dir, "pages"), storage.DefaultPageSize)
	if err != nil {
		return err
	}
	cold, ids, err := fill(fs, 64)
	if err != nil {
		fs.Close()
		return err
	}
	defer cold.Close()
	rid = draws(l, func() base.PageID { return ids[l.rng.IntN(pages)] })
	l.measure("storage.pin_miss", "", "storage.pin_miss_us", 1e-3, "", pinLoop(cold, rid))

	// PagedStore.Get on a resident page: a pin, a decode (or the frame's
	// cached node) and an unpin.
	ps, err := node.NewPagedStore(storage.NewBufferPool(storage.NewMemStore(storage.DefaultPageSize), 2*pages))
	if err != nil {
		return err
	}
	defer ps.Close()
	nodeIDs := make([]base.PageID, pages/2)
	for i := range nodeIDs {
		if nodeIDs[i], err = ps.Allocate(); err != nil {
			return err
		}
		n := leaf.Clone()
		n.ID = nodeIDs[i]
		if err := ps.Put(n); err != nil {
			return err
		}
	}
	rnode := draws(l, func() base.PageID { return nodeIDs[l.rng.IntN(len(nodeIDs))] })
	l.measure("node.paged_get_hit", "", "node.paged_get_hit_ns", 1, "", func(i int) {
		n, err := ps.Get(rnode[i%cycle])
		if err != nil {
			rerr = err
		}
		sink = n
	})
	runtime.KeepAlive(sink)
	return rerr
}

// walRungs appends to a log one record at a time and waits for its
// ticket, with the sync and without. The fsync is this sandbox's: the
// file sits in the operating system's cache.
func (l *ladder) walRungs(dir string) error {
	var rerr error
	for _, v := range []struct {
		rung, metric string
		scale        float64
		noSync       bool
	}{{"wal.append_nosync", "wal.append_nosync_ns", 1, true}, {"wal.fsync", "wal.fsync_us", 1e-3, false}} {
		lg, err := wal.Open(filepath.Join(dir, v.rung), wal.Options{NoSync: v.noSync}, 0, func(wal.Record) error { return nil })
		if err != nil {
			return err
		}
		l.measure(v.rung, "shard.durable_upsert_nosync", v.metric, v.scale, "", func(i int) {
			if err := lg.Append(wal.Record{Kind: wal.KindPut, Key: base.Key(i), Value: 1}).Wait(); err != nil {
				rerr = err
			}
		})
		if err := lg.Close(); err != nil {
			return err
		}
	}
	return rerr
}

func (l *ladder) wireRungs(string) error {
	payload := make([]byte, 16) // a point op: key and value
	var dst []byte
	var rerr error
	allocs := l.measure("wire.append_frame", "client.rtt_d1", "wire.append_frame_ns", 1, "", func(i int) {
		var err error
		if dst, err = wire.AppendFrame(dst[:0], uint64(i), wire.OpUpsert, payload); err != nil {
			rerr = err
		}
	})
	var stream []byte
	const frames = 4096
	for i := 0; i < frames; i++ {
		stream, _ = wire.AppendFrame(stream, uint64(i), wire.OpUpsert, payload) // the payload is 16 bytes: cannot be too large
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, 64<<10)
	buf := make([]byte, 0, 64)
	var reads uint64
	allocs += l.measure("wire.read_frame", "client.rtt_d1", "wire.read_frame_ns", 1, "", func(i int) {
		if i%frames == 0 {
			rd.Reset(stream)
			br.Reset(rd)
		}
		if _, _, _, err := wire.ReadFrame(br, buf); err != nil {
			rerr = err
		}
		reads++
	})
	// Allocations of one encode plus one decode: 0 on a warm codec.
	l.add("wire.codec_allocs", allocs, reads)
	return rerr
}

// baselines runs the mem-balanced recipe — W workers, 50/25/25, uniform —
// on the paper's tree and the three baselines as internal/harness builds
// them. Reference only: the four do not share a substrate.
func (l *ladder) baselines(string) error {
	pop := memPopulation(uint64(l.cfg.Keys))
	rates := map[harness.Kind]float64{}
	for _, kind := range harness.AllKinds {
		inst, err := harness.Build(kind, blink.DefaultMinPairs, true)
		if err != nil {
			return err
		}
		for next := pop.pairs(); ; {
			k, v, ok := next()
			if !ok {
				break
			}
			if err := inst.Tree.Insert(k, v); err != nil {
				return err
			}
		}
		if inst.Compressor != nil {
			inst.Compressor.Start(1)
		}
		var stop atomic.Bool
		var total atomic.Uint64
		var wg sync.WaitGroup
		var firstErr atomic.Pointer[error]
		w := Workers()
		for c := 0; c < w; c++ {
			s, err := gen.NewStream(l.cfg.Seed, c, pop.perCaller(w), gen.Mix{gen.Search: 50, gen.Insert: 25, gen.Delete: 25}, nil)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var n uint64
				for !stop.Load() {
					op := s.Next()
					key := pop.key(pop.slot(c, w, op.Index))
					var err error
					switch op.Kind {
					case gen.Search:
						_, err = inst.Tree.Search(key)
					case gen.Insert:
						err = inst.Tree.Insert(key, 1)
					default:
						err = inst.Tree.Delete(key)
					}
					if err != nil && !errors.Is(err, base.ErrNotFound) && !errors.Is(err, base.ErrDuplicate) {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					n++
				}
				total.Add(n)
			}()
		}
		t0 := time.Now()
		time.Sleep(12 * l.rep) // 0.7 s of a 15 s window
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(t0)
		if inst.Compressor != nil {
			inst.Compressor.Stop()
		}
		if err := inst.Tree.Close(); err != nil {
			return err
		}
		if e := firstErr.Load(); e != nil {
			return fmt.Errorf("baseline %s: %w", kind, *e)
		}
		rates[kind] = float64(total.Load()) / elapsed.Seconds()
		if kind != harness.KindSagiv {
			l.add(fmt.Sprintf("baseline.%s_ops_per_s", kind), rates[kind], total.Load())
		}
		runtime.GC()
	}
	l.add("baseline.sagiv_over_coarse", rates[harness.KindSagiv]/rates[harness.KindCoarse], uint64(rates[harness.KindSagiv]))
	return nil
}

// ledger builds the cost tree of one operation from the rung medians.
func (l *ladder) ledger(op string) *span.Rung {
	r := func(name string, times float64, calls ...*span.Rung) *span.Rung {
		return &span.Rung{Name: name, NS: l.ns[name], Times: times, Calls: calls}
	}
	h := float64(l.height)
	var served *span.Rung
	if op == "Search" {
		served = r("shard.router_search", 1,
			r("blink.search", 1, r("node.memstore_get", h), r("node.leaf_find", 1)))
	} else {
		served = r("shard.applybatch", 1,
			r("shard.engine_upsert", 1,
				r("blink.upsert", 1,
					r("node.memstore_get", h), r("locks.lock_unlock", 1), r("node.clone", 1), r("node.memstore_put", 1))))
	}
	return r("client.rtt_d1", 1,
		r("bench.loopback_echo", 1), r("wire.append_frame", 2), r("wire.read_frame", 2), served)
}

// printLedgers prints, for one Search and one Upsert, each rung's cost
// and its self time (its cost minus the rungs beneath it), then the
// residual: the self time of every rung that has rungs beneath it, which
// is the part of the top rung that no primitive rung names.
func (l *ladder) printLedgers(w io.Writer) {
	for _, op := range []string{"Search", "Upsert"} {
		top := l.ledger(op)
		fmt.Fprintf(w, "ledger of one %s (ns per call; self = cost − rungs beneath)\n", op)
		top.Walk(func(r *span.Rung, depth int, perTop float64) {
			fmt.Fprintf(w, "  %-*s%-*s × %-3g %10.0f  self %10.0f\n", 2*depth, "", 30-2*depth, r.Name, r.Times, r.NS, r.Self())
		})
		fmt.Fprintf(w, "  residual (self time of the rungs that have rungs beneath them) %.0f ns = %.1f %% of %s\n",
			top.Residual(), 100*top.Residual()/top.NS, top.Name)
	}
}
