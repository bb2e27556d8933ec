package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"blinktree/client"
	"blinktree/internal/base"
	"blinktree/internal/shard"
)

// finish is every recovery's tail: the survivor t takes a write to
// every key and a checkpoint, then stop, and a local reopen of s's
// directory must pass Check. The caller closes the router returned.
func finish(t target, o *oracle, stop func(), s spec) *shard.Router {
	o.load(t)
	if err := t.Checkpoint(); err != nil {
		fatal("post-recovery checkpoint", err)
	}
	stop()
	return open(s)
}

// runNet: a volatile server over TCP (spawned, or -addr); every read is
// checked as it returns, then the whole state and Len exactly.
func runNet(c *config) {
	addr := c.addr
	if addr == "" {
		ch := mustSpawn(c.spec(""))
		defer ch.stop()
		addr = ch.addr
	}
	cl := dial(addr)
	defer cl.Close()
	// Every pair must be this run's: a server holding data shows phantoms.
	if n, err := cl.Len(bg); err != nil || n != 0 {
		fatal("precondition", fmt.Errorf("server %s holds %d pairs (err %v); -scenario net needs an empty one", addr, n, err))
	}
	o := newOracle(c.workers)
	ops := o.traffic(remote{cl}, false, func() { time.Sleep(c.dur) })
	checked, present := o.mustVerify(remote{cl}, false)
	fmt.Printf("PASS: %d ops (%.0f ops/s) over the wire, %d oracle keys verified (%d present), 0 phantoms\n",
		ops, float64(ops)/c.dur.Seconds(), checked, present)
}

// runCrash is durable, net-durable and disk: a durable target crashed
// halfway through the run and recovered from its directory. durable
// runs the router in process and kills every shard's log committer at a
// random torn-write offset; the others kill -9 a server process and
// restart it. disk serves through a buffer pool budgeted at -cache-ratio
// of the data, loaded in full first so most pages live only in the page
// file, and the local reopen must show that the pool churned within its
// budget.
func runCrash(c *config) {
	s := c.spec(c.dir)
	disk := c.scenario == "disk"
	if disk {
		if c.cacheRatio <= 0 || c.cacheRatio > 1 {
			usage("-cache-ratio %g: need (0,1]", c.cacheRatio)
		}
		// 16 encoded bytes a pair at ~50 % page fill; 4 frames at least.
		est := float64(c.workers*keysPer) * 16 / 0.5
		s.CacheBytes = max(int64(c.cacheRatio*est)/int64(c.shards), 4*diskPageSize)
	}
	var t target
	var crash, stop func()
	var cl *client.Client
	up := func() {
		if c.scenario == "durable" {
			r := open(s)
			t, stop = local{r}, func() { r.Close() }
			crash = func() {
				torn := rand.Intn(64)
				r.CrashWAL(torn)
				if st, err := r.Stats(); err == nil {
					fmt.Printf("      killed the log committer mid-group (torn write: %d bytes); wal: %d records / %d syncs (mean group %.1f, max %d)\n",
						torn, st.WAL.Records, st.WAL.Syncs, st.WAL.MeanGroup(), st.WAL.MaxGroup)
				}
			}
			return
		}
		if cl != nil {
			cl.Close() // the crashed server's
		}
		ch := mustSpawn(s)
		cl = dial(ch.addr)
		t, crash, stop = remote{cl}, ch.kill9, func() { cl.Close(); ch.stop() }
	}
	up()
	o := newOracle(c.workers)
	if disk {
		o.load(t)
	}
	ops := o.traffic(t, false, func() {
		time.Sleep(c.dur / 2)
		o.fault()
		crash()
	})
	up()
	checked, present := o.mustVerify(t, false)
	r := finish(t, o, stop, s)
	defer r.Close()
	fmt.Printf("PASS: crashed after %d acked ops; %d oracle keys verified (%d present), 0 phantoms\n", ops, checked, present)
	if !disk {
		return
	}
	st, err := r.Stats()
	if err != nil {
		fatal("stats", err)
	}
	// Recovery alone walks the whole tree through the pool, so no
	// eviction means the budget never bound and the run proved nothing.
	if !st.Pooled || st.Pool.Evictions == 0 || st.Pool.Resident > st.Pool.Capacity {
		fatal("pool", fmt.Errorf("want a pool that evicted and holds at most its capacity: pooled=%v %+v", st.Pooled, st.Pool))
	}
	fmt.Printf("      pool: capacity %d frames (%d B/shard), %d hits / %d misses, %d evictions, %d writebacks, pinned high-water %d\n",
		st.Pool.Capacity, s.CacheBytes, st.Pool.Hits, st.Pool.Misses, st.Pool.Evictions, st.Pool.Writebacks, st.Pool.PinnedHighWater)
}

// runRepl: a primary and a follower. Writes stop and the follower must
// converge to the oracle exactly; then writes resume, the primary is
// kill -9'd mid-traffic and the follower promoted. Shipping is
// asynchronous, so each key on the promoted follower may hold any state
// of its history since the barrier — but a key that converged present
// may not come back absent unless its history says so.
func runRepl(c *config) {
	ps, fs := c.spec(filepath.Join(c.dir, "primary")), c.spec(filepath.Join(c.dir, "follower"))
	primary := mustSpawn(ps)
	fs.Follow = primary.addr
	follower := mustSpawn(fs)
	cl, clF := dial(primary.addr), dial(follower.addr)
	o := newOracle(c.workers)
	if _, _, err := clF.Upsert(bg, o.key(0), 1); !errors.Is(err, client.ErrReadOnly) {
		fatal("follower read-only", fmt.Errorf("follower accepted a write before promotion: %v", err))
	}

	ops := o.traffic(remote{cl}, false, func() { time.Sleep(c.dur / 2) })
	poll("convergence", 30*time.Second, func() error {
		_, _, err := o.verify(remote{clF}, false)
		return err
	})
	fmt.Printf("      follower converged exactly after %d acked ops\n", ops)

	o.barrier()
	ops = o.traffic(remote{cl}, false, func() {
		time.Sleep(c.dur / 2)
		o.fault()
		primary.kill9()
	})
	cl.Close()
	if was, err := clF.Promote(bg); err != nil || !was {
		fatal("promote", fmt.Errorf("was=%v err=%v", was, err))
	}
	checked, present := o.mustVerify(remote{clF}, true)
	r := finish(remote{clF}, o, func() { clF.Close(); follower.stop() }, fs)
	defer r.Close()
	fmt.Printf("PASS: primary kill -9'd after %d more acked ops; %d oracle keys prefix-consistent on the promoted follower (%d present), 0 phantoms\n",
		ops, checked, present)
}

// pickAddr reserves a loopback address: cluster members need fixed
// addresses (the map names them) that survive a kill -9 restart.
func pickAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("pick addr", err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// runCluster: two durable members A and B, A owning every range at
// first. Under load the upper half of the ranges move to B; then range 0
// moves while B (the target) is kill -9'd, and range 1 while A (the
// source) is, each restarted on its address and directory and the
// migration re-triggered until it converges. Then the oracle must hold
// (a write that errored while a member was down may or may not have
// landed), the map must show every move, and local reopens must find
// each pair only on the member the map names.
func runCluster(c *config) {
	if c.shards < 2 {
		c.shards = 8 // migration needs several ranges
	}
	addrA, addrB := pickAddr(), pickAddr()
	sa, sb := c.spec(filepath.Join(c.dir, "a")), c.spec(filepath.Join(c.dir, "b"))
	sa.Addr, sa.Initial = addrA, addrA
	sb.Addr, sb.Initial = addrB, addrA
	chA, chB := mustSpawn(sa), mustSpawn(sb)
	cl, err := client.DialCluster(addrA, client.Options{Conns: 2})
	if err != nil {
		fatal("dial cluster", err)
	}
	o := newOracle(c.workers)
	o.load(remote{cl})

	migrate := func(sh int, to string) {
		poll("migrate", time.Minute, func() error {
			err := cl.Migrate(bg, sh, to)
			if err != nil && cl.Refresh(bg) == nil && cl.Map().Owners[sh] == to {
				return nil // the handoff committed before the error
			}
			return err
		})
	}
	// crashDuring kills ch while range sh migrates to B, restarts it
	// from s and re-triggers the migration.
	crashDuring := func(sh int, ch *child, s spec, who string) *child {
		migDone := make(chan error, 1)
		go func() { migDone <- cl.Migrate(bg, sh, addrB) }()
		time.Sleep(time.Duration(2+rand.Intn(15)) * time.Millisecond)
		ch.kill9()
		fmt.Printf("      kill -9'd %s (%s) mid-migration of range %d (migrate: %v)\n", who, s.Addr, sh, <-migDone)
		ch = mustSpawn(s)
		migrate(sh, addrB)
		return ch
	}
	o.fault() // members come and go: every error is ambiguous
	ops := o.traffic(remote{cl}, true, func() {
		time.Sleep(c.dur / 4)
		for sh := c.shards / 2; sh < c.shards; sh++ {
			migrate(sh, addrB)
		}
		time.Sleep(c.dur / 5)
		chB = crashDuring(0, chB, sb, "the target B")
		time.Sleep(c.dur / 8)
		chA = crashDuring(1, chA, sa, "the source A")
		time.Sleep(c.dur / 5)
	})
	checked, present := o.mustVerify(remote{cl}, false)

	m := cl.Map()
	for sh := range c.shards {
		want := addrA
		if sh <= 1 || sh >= c.shards/2 {
			want = addrB
		}
		if m.Owners[sh] != want {
			fatal("map", fmt.Errorf("range %d owned by %s, want %s (map v%d)", sh, m.Owners[sh], want, m.Version))
		}
	}
	cs := cl.Stats()
	cl.Close()
	chA.stop()
	chB.stop()

	// No pair may live on a member the map does not name: a migrated
	// range must leave no copy behind and lose none.
	held := 0
	for _, s := range []spec{sa, sb} {
		r := open(s)
		if err := r.Range(0, base.Key(^uint64(0)), func(k base.Key, _ base.Value) bool {
			if owner := m.Owners[m.Range(uint64(k))]; owner != s.Addr {
				fatal("placement", fmt.Errorf("member %s holds key %d of a range %s owns", s.Addr, k, owner))
			}
			return true
		}); err != nil {
			fatal("placement scan", err)
		}
		held += r.Len()
		r.Close()
	}
	if held != present {
		fatal("placement", fmt.Errorf("members hold %d pairs together, the oracle %d: data lost or duplicated", held, present))
	}
	fmt.Printf("PASS: %d ops, %d oracle keys verified, 0 phantoms, 0 misplaced pairs\n", ops, checked)
	fmt.Printf("      map v%d; client: %d redirects, %d map installs, %d retries\n", m.Version, cs.Redirects, cs.MapInstalls, cs.Retries)
}
