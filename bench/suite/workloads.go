package suite

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"time"

	"blinktree"
	"blinktree/bench/gen"
	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// population is a workload's key space: slots [0, slots), of which slot s
// starts present when s%block < loaded. The oracle holds the value every
// slot should have (0 = absent); caller c of n owns the slots whose block
// index is ≡ c (mod n), so each oracle entry has one writer and every
// caller sees the same share of present and absent slots.
type population struct {
	slots, block, loaded uint64
	stride               uint64 // key = slot · stride
	oracle               []uint64
}

func newPopulation(slots, block, loaded, stride uint64) *population {
	p := &population{slots: slots, block: block, loaded: loaded, stride: stride, oracle: make([]uint64, slots)}
	for s := range p.oracle {
		if uint64(s)%block < loaded {
			p.oracle[s] = initialValue(uint64(s))
		}
	}
	return p
}

func initialValue(slot uint64) uint64 { return slot + 1 }

// perCaller is how many slots each of n callers owns.
func (p *population) perCaller(n int) uint64 {
	return p.slots / (p.block * uint64(n)) * p.block
}

// slot maps caller c's index i to the slot it names.
func (p *population) slot(c, n int, i uint64) uint64 {
	return p.block*((i/p.block)*uint64(n)+uint64(c)) + i%p.block
}

func (p *population) key(slot uint64) base.Key { return base.Key(slot * p.stride) }

// pairs streams the initially present pairs in ascending key order, as
// BulkLoad wants them.
func (p *population) pairs() func() (base.Key, base.Value, bool) {
	var s uint64
	return func() (base.Key, base.Value, bool) {
		for s < p.slots && s%p.block >= p.loaded {
			s++
		}
		if s >= p.slots {
			return 0, 0, false
		}
		s++
		return p.key(s - 1), base.Value(initialValue(s - 1)), true
	}
}

func (p *population) present() (n int) {
	for _, v := range p.oracle {
		if v != 0 {
			n++
		}
	}
	return n
}

// audit compares a quiesced index with the oracle: its invariants hold,
// its length is the oracle's, every stored pair is the oracle's and, by
// the equal counts, no oracle pair is missing. It returns the number of
// failed checks.
func (p *population) audit(log io.Writer, what string, check func() error, length int, all iter.Seq2[base.Key, base.Value]) uint64 {
	var failed uint64
	if err := check(); err != nil {
		fmt.Fprintf(log, "%s: Check: %v\n", what, err)
		failed++
	}
	want := p.present()
	if length != want {
		fmt.Fprintf(log, "%s: Len %d, oracle %d\n", what, length, want)
		failed++
	}
	seen := 0
	for k, v := range all {
		seen++
		slot := uint64(k) / p.stride
		if uint64(k)%p.stride != 0 || slot >= p.slots || p.oracle[slot] != uint64(v) || v == 0 {
			if failed < 5 {
				fmt.Fprintf(log, "%s: stored pair (%d, %d) is not the oracle's\n", what, k, v)
			}
			failed++
		}
	}
	if seen != want {
		fmt.Fprintf(log, "%s: scan saw %d pairs, oracle holds %d\n", what, seen, want)
		failed++
	}
	return failed
}

// pointCaller issues single-key operations and checks each reply. The
// four workload-specific parts are the stream, the population and do,
// which makes the call.
type pointCaller struct {
	pop    *population
	stream *gen.Stream
	c, n   int
	kind   uint16
	do     func(k gen.Kind, key base.Key, v base.Value) (base.Value, bool, error)

	op    gen.Op
	slot  uint64
	val   uint64
	seq   uint64
	got   base.Value
	gotOK bool
	err   error
}

func (p *pointCaller) next() int {
	p.op = p.stream.Next()
	p.slot = p.pop.slot(p.c, p.n, p.op.Index)
	p.seq++
	p.val = p.seq<<8 | uint64(p.c+1) // never 0, distinct per caller and write
	return int(p.op.Kind)
}

func (p *pointCaller) call() {
	p.got, p.gotOK, p.err = p.do(p.op.Kind, p.pop.key(p.slot), base.Value(p.val))
}

func (p *pointCaller) ops() uint64      { return 1 }
func (p *pointCaller) spanKind() uint16 { return p.kind }

// check holds the reply against the oracle. ErrNotFound and ErrDuplicate
// are outcomes the oracle predicts, not failures; any other error, an
// unpredicted outcome or a wrong value is a failure.
func (p *pointCaller) check() uint64 {
	want := p.pop.oracle[p.slot]
	ok := false
	switch p.op.Kind {
	case gen.Search:
		if want == 0 {
			ok = errors.Is(p.err, base.ErrNotFound)
		} else {
			ok = p.err == nil && uint64(p.got) == want
		}
	case gen.Insert:
		if want == 0 {
			if ok = p.err == nil; ok {
				p.pop.oracle[p.slot] = p.val
			}
		} else {
			ok = errors.Is(p.err, base.ErrDuplicate)
		}
	case gen.Delete:
		if want != 0 {
			if ok = p.err == nil; ok {
				p.pop.oracle[p.slot] = 0
			}
		} else {
			ok = errors.Is(p.err, base.ErrNotFound)
		}
	case gen.Upsert:
		if ok = p.err == nil && p.gotOK == (want != 0) && (want == 0 || uint64(p.got) == want); ok {
			p.pop.oracle[p.slot] = p.val
		}
	}
	if ok {
		return 0
	}
	return 1
}

// doTree makes the in-process point workloads' call: the public facade.
func doTree(t *blinktree.Tree) func(gen.Kind, base.Key, base.Value) (base.Value, bool, error) {
	return func(k gen.Kind, key base.Key, v base.Value) (base.Value, bool, error) {
		switch k {
		case gen.Search:
			got, err := t.Search(key)
			return got, false, err
		case gen.Insert:
			return 0, false, t.Insert(key, v)
		case gen.Delete:
			return 0, false, t.Delete(key)
		default:
			return t.Upsert(key, v)
		}
	}
}

// treeInstance is an in-process blinktree.Tree under point operations:
// mem-balanced and disk-read.
type treeInstance struct {
	cfg  Config
	t    *blinktree.Tree
	pop  *population
	mix  gen.Mix
	name string
}

func (ti *treeInstance) callers() int     { return Workers() }
func (ti *treeInstance) sampleEvery() int { return inProcEvery }
func (ti *treeInstance) background() func(<-chan struct{}, *tracer) {
	return nil
}

func (ti *treeInstance) newCaller(c int) (caller, error) {
	n := ti.callers()
	s, err := gen.NewStream(ti.cfg.Seed, c, ti.pop.perCaller(n), ti.mix, nil)
	if err != nil {
		return nil, err
	}
	return &pointCaller{pop: ti.pop, stream: s, c: c, n: n, kind: kindTree, do: doTree(ti.t)}, nil
}

func (ti *treeInstance) counters() (counters, error) {
	st, err := ti.t.Stats()
	return counters{stats: st}, err
}

func (ti *treeInstance) quiesce() error {
	if err := ti.t.DrainCompression(); err != nil {
		return err
	}
	_, err := ti.t.CollectGarbage()
	return err
}

func (ti *treeInstance) verify(log io.Writer) (uint64, recovery, error) {
	return ti.pop.audit(log, ti.name, ti.t.Check, ti.t.Len(), ti.t.All()), recovery{}, nil
}

func (ti *treeInstance) close() error { return ti.t.Close() }

// mem-balanced: one in-memory tree, k = 16, background compression; the
// even keys of [0, 2·Keys) loaded at fill 0.7; 50 % Search, 25 % Insert,
// 25 % Delete, uniform over the whole key space, so the size stays put.
type memWorkload struct {
	cfg Config
	pop *population
}

// memPopulation is the mem-balanced data set; the ladder runs on it too.
func memPopulation(keys uint64) *population { return newPopulation(2*keys, 2, 1, 1) }

func (w *memWorkload) setup() (instance, error) {
	pop := w.pop
	t, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(pop.pairs(), 0.7); err != nil {
		t.Close()
		return nil, err
	}
	return &treeInstance{cfg: w.cfg, t: t, pop: pop, name: "mem-balanced",
		mix: gen.Mix{gen.Search: 50, gen.Insert: 25, gen.Delete: 25}}, nil
}

// disk-read: one disk-native tree whose buffer pool holds a tenth of the
// page file; Keys keys loaded; 90 % Search, 10 % Upsert, uniform over the
// loaded keys. The page file is this sandbox's: it sits in the operating
// system's cache, so a miss costs a read system call, not a device.
type diskWorkload struct {
	cfg       Config
	pop       *population
	footprint int64 // page-file bytes of the loaded tree, measured once
}

func (w *diskWorkload) setup() (instance, error) {
	pop := w.pop
	if w.footprint == 0 {
		// The pool is sized from the tree the same load builds in
		// memory: the bulk loader packs nodes the same way on either
		// store, one page per node.
		m, err := blinktree.Open(blinktree.Options{})
		if err != nil {
			return nil, err
		}
		err = m.BulkLoad(pop.pairs(), 0.7)
		st, serr := m.Stats()
		m.Close()
		if err = errors.Join(err, serr); err != nil {
			return nil, err
		}
		w.footprint = int64(st.Occupancy.Nodes) * storage.DefaultPageSize
	}
	t, err := blinktree.Open(blinktree.Options{DiskNative: true, CacheBytes: w.footprint / 10})
	if err != nil {
		return nil, err
	}
	if err := t.BulkLoad(pop.pairs(), 0.7); err != nil {
		t.Close()
		return nil, err
	}
	return &treeInstance{cfg: w.cfg, t: t, pop: pop, name: "disk-read",
		mix: gen.Mix{gen.Search: 90, gen.Upsert: 10}}, nil
}

// stretch spreads n slots over the whole uint64 range: the Router
// partitions by range, so unstretched keys would all land in shard 0.
func stretch(n uint64) uint64 { return ^uint64(0) / n }

const netShards = 2

// net-readmostly: a 2-shard router behind internal/server on loopback,
// default Config, one client with W connections shared by 32 callers
// (pipeline depth 16 per connection at W = 2); 80 % Search, 20 % Upsert,
// Zipf 0.99 over the loaded keys.
type netWorkload struct {
	cfg Config
	pop *population
}

type netInstance struct {
	cfg  Config
	r    *shard.Router
	srv  *server.Server
	cl   *client.Client
	pop  *population
	zipf *gen.Zipf // shared by the callers; built with the first
}

func (w *netWorkload) setup() (instance, error) {
	pop := w.pop
	ni := &netInstance{cfg: w.cfg, pop: pop}
	var err error
	if ni.r, err = shard.NewRouter(netShards, shard.Options{}); err != nil {
		return nil, err
	}
	if err := ni.r.BulkLoad(pop.pairs(), 0.7); err != nil {
		ni.close()
		return nil, err
	}
	ni.srv = server.New(ni.r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := ni.srv.Start(); err != nil {
		ni.srv = nil
		ni.close()
		return nil, err
	}
	if ni.cl, err = client.Dial(ni.srv.Addr().String(), client.Options{Conns: Workers()}); err != nil {
		ni.close()
		return nil, err
	}
	return ni, nil
}

func (ni *netInstance) callers() int     { return netCallers }
func (ni *netInstance) sampleEvery() int { return 1 }
func (ni *netInstance) background() func(<-chan struct{}, *tracer) {
	return nil
}

func (ni *netInstance) newCaller(c int) (caller, error) {
	if ni.zipf == nil {
		z, err := gen.NewZipf(ni.pop.perCaller(netCallers), 0.99)
		if err != nil {
			return nil, err
		}
		ni.zipf = z
	}
	s, err := gen.NewStream(ni.cfg.Seed, c, ni.pop.perCaller(netCallers), gen.Mix{gen.Search: 80, gen.Upsert: 20}, ni.zipf)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	do := func(k gen.Kind, key base.Key, v base.Value) (base.Value, bool, error) {
		if k == gen.Search {
			got, err := ni.cl.Search(ctx, key)
			return got, false, err
		}
		return ni.cl.Upsert(ctx, key, v)
	}
	return &pointCaller{pop: ni.pop, stream: s, c: c, n: netCallers, kind: kindClient, do: do}, nil
}

func (ni *netInstance) counters() (counters, error) {
	st, err := ni.r.Stats()
	m := &ni.srv.Metrics
	return counters{
		stats: st, shards: ni.r.ShardStats(), served: true,
		polls: m.Polls.Load(), requests: m.Requests.Load(),
		bytesIn: m.BytesIn.Load(), bytesOut: m.BytesOut.Load(), protoErrors: m.Errors.Load(),
		pollP50: m.PollLat.Quantile(0.5), pollP99: m.PollLat.Quantile(0.99),
	}, err
}

func (ni *netInstance) quiesce() error { return quiesceRouter(ni.r) }

func quiesceRouter(r *shard.Router) error {
	if err := r.DrainCompression(); err != nil {
		return err
	}
	_, err := r.CollectGarbage()
	return err
}

func (ni *netInstance) verify(log io.Writer) (uint64, recovery, error) {
	return ni.pop.audit(log, "net-readmostly", ni.r.Check, ni.r.Len(), ni.r.All()), recovery{}, nil
}

func (ni *netInstance) close() error {
	var errs []error
	if ni.cl != nil {
		errs = append(errs, ni.cl.Close())
	}
	if ni.srv != nil {
		errs = append(errs, ni.srv.Close())
	}
	return errors.Join(append(errs, ni.r.Close())...)
}

// durable-batch: the 2-shard durable router the server and Sharded both
// sit on, fsync on (WALNoSync false — the flush policy is fixed: every
// batch is acknowledged after its group's fsync); three of every four of
// 2·Keys stretched slots loaded, which is the steady presence of a
// 75 % Upsert / 25 % Delete mix; W callers, each ApplyBatch of 32 uniform
// ops; one checkpoint in the middle of each slice of the window.
type durableWorkload struct {
	cfg Config
	pop *population
}

type durableInstance struct {
	cfg Config
	dir string
	r   *shard.Router
	pop *population

	checkpoints     []time.Duration
	checkpointBytes uint64
	checkpointPairs uint64
	bgErr           error
}

func openDurable(dir string) (*shard.Router, error) {
	return shard.NewRouter(netShards, shard.Options{Durable: true, Dir: dir})
}

func (w *durableWorkload) setup() (instance, error) {
	dir := filepath.Join(w.cfg.OutDir, "wal")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	pop := w.pop
	r, err := openDurable(dir)
	if err != nil {
		return nil, err
	}
	// A durable bulk load ends in a checkpoint: that is how it is made
	// durable, and part of what set-up costs.
	if err := r.BulkLoad(pop.pairs(), 0.7); err != nil {
		r.Close()
		return nil, err
	}
	return &durableInstance{cfg: w.cfg, dir: dir, r: r, pop: pop}, nil
}

func (di *durableInstance) callers() int     { return Workers() }
func (di *durableInstance) sampleEvery() int { return 1 }

// background checkpoints once per slice of the window, mid-slice, so that
// every slice carries the same share of checkpoint work.
func (di *durableInstance) background() func(<-chan struct{}, *tracer) {
	period := time.Duration(di.cfg.Seconds * float64(time.Second) / numSlices)
	return func(stop <-chan struct{}, tr *tracer) {
		ring := tr.ring(di.callers(), 64)
		next := time.NewTimer(period / 2)
		defer next.Stop()
		for {
			select {
			case <-stop:
				return
			case <-next.C:
			}
			next.Reset(period)
			t0 := tr.now()
			if err := di.r.Checkpoint(); err != nil {
				di.bgErr = err
				return
			}
			t1 := tr.now()
			ring.Add(kindCheckpoint, 0, 0, t0, t1, 1)
			di.checkpoints = append(di.checkpoints, time.Duration(t1-t0))
			di.checkpointPairs += uint64(di.r.Len())
			for s := 0; s < netShards; s++ {
				_, path, ok, err := wal.LatestCheckpoint(di.r.Engine(s).WALDir())
				if fi, serr := os.Stat(path); err == nil && ok && serr == nil {
					di.checkpointBytes += uint64(fi.Size())
				}
			}
		}
	}
}

type batchCaller struct {
	di      *durableInstance
	stream  *gen.Stream
	c, n    int
	seq     uint64
	batch   [batchSize]shard.Op
	slots   [batchSize]uint64
	results []shard.Result
}

func (di *durableInstance) newCaller(c int) (caller, error) {
	n := di.callers()
	s, err := gen.NewStream(di.cfg.Seed, c, di.pop.perCaller(n), gen.Mix{gen.Upsert: 75, gen.Delete: 25}, nil)
	if err != nil {
		return nil, err
	}
	return &batchCaller{di: di, stream: s, c: c, n: n}, nil
}

func (b *batchCaller) next() int {
	for i := range b.batch {
		op := b.stream.Next()
		b.slots[i] = b.di.pop.slot(b.c, b.n, op.Index)
		b.seq++
		b.batch[i] = shard.Op{Kind: shard.OpDelete, Key: b.di.pop.key(b.slots[i])}
		if op.Kind == gen.Upsert {
			b.batch[i].Kind = shard.OpUpsert
			b.batch[i].Value = base.Value(b.seq<<8 | uint64(b.c+1))
		}
	}
	return classBatch
}

func (b *batchCaller) call()            { b.results = b.di.r.ApplyBatch(b.batch[:]) }
func (b *batchCaller) ops() uint64      { return batchSize }
func (b *batchCaller) spanKind() uint16 { return kindBatch }

// check replays the batch on the oracle in order: within one shard a
// batch runs in its original order, and two ops on one key share a shard.
func (b *batchCaller) check() (failed uint64) {
	oracle := b.di.pop.oracle
	for i, res := range b.results {
		want := oracle[b.slots[i]]
		ok := false
		if b.batch[i].Kind == shard.OpUpsert {
			if ok = res.Err == nil && res.OK == (want != 0) && (want == 0 || uint64(res.Value) == want); ok {
				oracle[b.slots[i]] = uint64(b.batch[i].Value)
			}
		} else if want != 0 {
			if ok = res.Err == nil; ok {
				oracle[b.slots[i]] = 0
			}
		} else {
			ok = errors.Is(res.Err, base.ErrNotFound)
		}
		if !ok {
			failed++
		}
	}
	if len(b.results) != batchSize {
		failed += batchSize
	}
	return failed
}

func (di *durableInstance) counters() (counters, error) {
	st, err := di.r.Stats()
	return counters{
		stats: st, shards: di.r.ShardStats(),
		checkpoints: di.checkpoints, checkpointBytes: di.checkpointBytes, checkpointPairs: di.checkpointPairs,
	}, errors.Join(err, di.bgErr)
}

func (di *durableInstance) quiesce() error { return quiesceRouter(di.r) }

// verify audits the live router, then crashes it — CrashWAL drops what
// was not flushed, which killing the process would not, because the
// operating system keeps its cache — re-opens the same directory and
// audits what recovery rebuilt: every acknowledged write present, no
// phantom.
func (di *durableInstance) verify(log io.Writer) (uint64, recovery, error) {
	failed := di.pop.audit(log, "durable-batch", di.r.Check, di.r.Len(), di.r.All())
	di.r.CrashWAL(0)
	if err := di.r.Close(); err != nil { // frees the crashed router's goroutines; its log is already dead
		return failed, recovery{}, err
	}
	t0 := time.Now()
	r, err := openDurable(di.dir)
	if err != nil {
		return failed, recovery{}, fmt.Errorf("re-open after crash: %w", err)
	}
	rec := recovery{seconds: time.Since(t0).Seconds()}
	di.r = r
	st, err := r.Stats()
	if err != nil {
		return failed, rec, err
	}
	rec.records = st.WAL.Replayed
	fmt.Fprintf(log, "durable-batch: crash, re-open in %.3f s, %d log records replayed\n", rec.seconds, rec.records)
	return failed + di.pop.audit(log, "durable-batch after crash and re-open", r.Check, r.Len(), r.All()), rec, nil
}

func (di *durableInstance) close() error {
	return errors.Join(di.r.Close(), os.RemoveAll(di.dir))
}
