package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/shard"
)

// keysPer is the size of each worker's slice of the key space.
const keysPer = 1024

// state is what a key holds: nothing, or val.
type state struct {
	val     base.Value
	present bool
}

// entry is what the oracle knows of one key.
type entry struct {
	acked state   // the state after the newest acknowledged op
	amb   []state // writes that errored since: each may or may not have landed
	base  state   // the acked state at barrier (absent for a key written later)
	hist  []state // every state acked since barrier
}

// legal lists the states the key may hold.
func (e *entry) legal(prefix bool) []state {
	l := append([]state{e.acked}, e.amb...)
	if prefix {
		l = append(append(l, e.base), e.hist...)
	}
	return l
}

// oracle records every key the workload touched. Worker w alone writes
// keys [w·keysPer, (w+1)·keysPer) and keys[w], so a key's history is
// sequential and needs no lock: steps between runs, and verify, read
// the maps after the workers have stopped.
type oracle struct {
	stride  uint64
	keys    []map[uint64]*entry // per worker
	history bool                // barrier has run
	faulty  atomic.Bool         // op errors are expected (and ambiguous), not fatal
}

func newOracle(workers int) *oracle {
	o := &oracle{stride: ^uint64(0)/uint64(workers*keysPer) + 1}
	for range workers {
		o.keys = append(o.keys, map[uint64]*entry{})
	}
	return o
}

// key stretches raw key numbers over the whole key space so every
// shard and cluster range takes traffic.
func (o *oracle) key(raw uint64) base.Key { return base.Key(raw * o.stride) }

// holds reports whether s is a legal state of k.
func (o *oracle) holds(k base.Key, s state, prefix bool) bool {
	raw := uint64(k) / o.stride
	w := int(raw / keysPer)
	if uint64(k)%o.stride != 0 || w >= len(o.keys) || o.keys[w][raw] == nil {
		return !s.present // a key no worker touched is absent
	}
	return slices.Contains(o.keys[w][raw].legal(prefix), s)
}

// at returns worker w's entry for raw, absent until written.
func (o *oracle) at(w int, raw uint64) *entry {
	e := o.keys[w][raw]
	if e == nil {
		e = &entry{}
		o.keys[w][raw] = e
	}
	return e
}

func (o *oracle) ack(w int, raw uint64, s state) {
	e := o.at(w, raw)
	e.acked, e.amb = s, nil
	if o.history {
		e.hist = append(e.hist, s)
	}
}

// attempt records a write that errored: its state may or may not have landed.
func (o *oracle) attempt(w int, raw uint64, s state) {
	e := o.at(w, raw)
	e.amb = append(e.amb, s)
}

// fault arms the event: from now on op errors are ambiguous, not fatal.
func (o *oracle) fault() { o.faulty.Store(true) }

// barrier starts the acked history: after it, verify in prefix mode
// also admits the state each key held here and every state acked since
// — what a follower holding a prefix of the primary's log may show.
func (o *oracle) barrier() {
	o.history = true
	for _, m := range o.keys {
		for _, e := range m {
			e.base = e.acked
		}
	}
}

// read returns the state k holds on t.
func read(t target, k base.Key) (state, error) {
	v, err := t.Search(k)
	if errors.Is(err, base.ErrNotFound) {
		return state{}, nil
	}
	return state{v, err == nil}, err
}

// verify checks a quiescent target against the oracle: every oracle key
// holds a legal state (the point pass), every pair a full scan visits is
// a legal state of an oracle key (no phantoms), and Len counts the pairs
// the point pass found. Exact mode admits the acked state and the
// ambiguous attempts; prefix mode the acked history as well. It returns
// the keys checked and the pairs present.
func (o *oracle) verify(t target, prefix bool) (checked, present int, err error) {
	for _, m := range o.keys {
		for raw, e := range m {
			got, err := read(t, o.key(raw))
			if err != nil {
				return 0, 0, fmt.Errorf("search key %d: %w", raw, err)
			}
			if got.present {
				present++
			}
			if !slices.Contains(e.legal(prefix), got) {
				return 0, 0, fmt.Errorf("key %d holds %+v; legal: %+v", raw, got, e.legal(prefix))
			}
			checked++
		}
	}
	var phantom error
	if err := t.Range(0, base.Key(^uint64(0)), func(k base.Key, v base.Value) bool {
		if !o.holds(k, state{v, true}, prefix) {
			phantom = fmt.Errorf("phantom pair (%d, %d)", k, v)
		}
		return phantom == nil
	}); err != nil {
		return 0, 0, fmt.Errorf("scan: %w", err)
	}
	if phantom != nil {
		return 0, 0, phantom
	}
	if n, err := t.Len(); err != nil || n != present {
		return 0, 0, fmt.Errorf("Len %d (err %v), point pass found %d pairs", n, err, present)
	}
	return checked, present, nil
}

// mustVerify is verify or fatal.
func (o *oracle) mustVerify(t target, prefix bool) (checked, present int) {
	checked, present, err := o.verify(t, prefix)
	if err != nil {
		fatal("verify", err)
	}
	return checked, present
}

// ckptEvery paces worker 0's checkpoints (no-ops on a volatile target).
const ckptEvery = 500 * time.Millisecond

// traffic runs the workload on t until event returns. Each worker
// draws keys from its own slice and checks every read and scan against
// the oracle as it goes. Before event calls fault, any error is fatal;
// after it, a failed write is recorded as ambiguous, and a failed op
// ends its worker or, with ride (cluster members come and go), backs off
// and carries on. It returns the acknowledged ops, checkpoints included.
func (o *oracle) traffic(t target, ride bool, event func()) (ops uint64) {
	var n atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range o.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.work(w, t, ride, rand.New(rand.NewSource(rand.Int63())), stop, &n)
		}()
	}
	event()
	close(stop)
	wg.Wait()
	return n.Load()
}

func (o *oracle) work(w int, t target, ride bool, rng *rand.Rand, stop <-chan struct{}, ops *atomic.Uint64) {
	lastCkpt := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		raw := uint64(w*keysPer + rng.Intn(keysPer))
		k, e := o.key(raw), o.at(w, raw)
		cur, sure := e.acked, len(e.amb) == 0
		next, write := state{}, true
		var err error
		switch r := rng.Intn(16); {
		case w == 0 && time.Since(lastCkpt) >= ckptEvery:
			write, err, lastCkpt = false, t.Checkpoint(), time.Now()
		case r == 0:
			write, err = false, o.scan(t, w, raw)
		case r < 5:
			var got state
			if got, err = read(t, k); err == nil && sure && got != cur {
				fatal("read", fmt.Errorf("key %d: read %+v, oracle %+v", raw, got, cur))
			}
			write = false
		case cur.present && r < 8:
			err = t.Delete(k)
		case cur.present && sure && r < 11:
			next = state{cur.val + 1, true}
			if err = t.Incr(k, cur.val); errors.Is(err, errMismatch) {
				fatal("increment", fmt.Errorf("key %d: %w %+v", raw, err, cur))
			}
		default:
			next = state{base.Value(rng.Uint64() | 1), true}
			_, _, err = t.Upsert(k, next.val)
		}
		switch {
		case err == nil:
			if write {
				o.ack(w, raw, next)
			}
			ops.Add(1)
		case !o.faulty.Load():
			fatal("workload", fmt.Errorf("key %d: %w", raw, err))
		default:
			if write {
				o.attempt(w, raw, next)
			}
			if !ride {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// scan range-scans up to 64 of worker w's keys from raw: every pair it
// visits must be in range and a legal state of its key. The range check
// comes first, so a stray key never reads another worker's map.
func (o *oracle) scan(t target, w int, raw uint64) error {
	lo, hi := o.key(raw), o.key(min(raw+63, uint64((w+1)*keysPer-1)))
	return t.Range(lo, hi, func(k base.Key, v base.Value) bool {
		if k < lo || k > hi || !o.holds(k, state{v, true}, false) {
			fatal("scan", fmt.Errorf("[%d, %d] visits (%d, %d), not a legal pair", lo, hi, k, v))
		}
		return true
	})
}

// load writes every key once, worker slices in parallel.
func (o *oracle) load(t target) {
	var wg sync.WaitGroup
	for w := range o.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raw := uint64(w * keysPer); raw < uint64((w+1)*keysPer); raw++ {
				if _, _, err := t.Upsert(o.key(raw), base.Value(raw|1)); err != nil {
					fatal("load", err)
				}
				o.ack(w, raw, state{base.Value(raw | 1), true})
			}
		}()
	}
	wg.Wait()
}

// target is what the workload drives: a router in process or a server
// over the wire. Search returns base.ErrNotFound for an absent key.
type target interface {
	Search(base.Key) (base.Value, error)
	Upsert(base.Key, base.Value) (old base.Value, existed bool, err error)
	Delete(base.Key) error
	// Incr moves k from old to old+1; errMismatch if k did not hold old.
	Incr(k base.Key, old base.Value) error
	Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error
	Len() (int, error)
	Checkpoint() error
}

var errMismatch = errors.New("value differs from the exact oracle")

// local is the in-process target; its increment is Update.
type local struct{ *shard.Router }

func (l local) Incr(k base.Key, _ base.Value) error {
	_, err := l.Update(k, func(v base.Value) base.Value { return v + 1 })
	return err
}

func (l local) Len() (int, error) { return l.Router.Len(), nil }

// remote is the wire target over a *client.Client or a *client.Cluster;
// its increment is CompareAndSwap.
type remote struct {
	c interface {
		Search(context.Context, client.Key) (client.Value, error)
		Upsert(context.Context, client.Key, client.Value) (client.Value, bool, error)
		Delete(context.Context, client.Key) error
		CompareAndSwap(ctx context.Context, k client.Key, old, new client.Value) (bool, error)
		Range(ctx context.Context, lo, hi client.Key, pageSize int, fn func(client.Key, client.Value) bool) error
		Len(context.Context) (int, error)
		Checkpoint(context.Context) error
	}
}

var bg = context.Background()

func (r remote) Search(k base.Key) (base.Value, error) { return r.c.Search(bg, k) }
func (r remote) Delete(k base.Key) error               { return r.c.Delete(bg, k) }
func (r remote) Len() (int, error)                     { return r.c.Len(bg) }
func (r remote) Checkpoint() error                     { return r.c.Checkpoint(bg) }
func (r remote) Upsert(k base.Key, v base.Value) (base.Value, bool, error) {
	return r.c.Upsert(bg, k, v)
}

func (r remote) Incr(k base.Key, old base.Value) error {
	swapped, err := r.c.CompareAndSwap(bg, k, old, old+1)
	if err == nil && !swapped || errors.Is(err, base.ErrNotFound) {
		return errMismatch
	}
	return err
}

func (r remote) Range(lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	return r.c.Range(bg, lo, hi, 0, fn)
}
