package client

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blinktree/internal/base"
	"blinktree/internal/server"
	"blinktree/internal/shard"
	"blinktree/internal/wire"
)

// countingConn counts the Write calls the connection's writer makes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWriterCoalesces asserts that concurrent callers on one connection
// share the writer's bursts: 16 closed-loop callers, at two Ps as on
// net-readmostly, must average at least 3 frames per Write. It reads
// about 12; without the writer's yield before it takes the queue it
// reads 1.2–2.2. Under -race the yield-less writer still reaches about
// 6, so there the test exercises the pooled-call lifetime rule over long
// bursts rather than the yield.
func TestWriterCoalesces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const callers, perCaller, keys = 16, 2000, 64

	r, err := shard.NewRouter(2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stride := ^uint64(0) / keys // spread the keys over both shards
	for k := uint64(0); k < keys; k++ {
		if err := r.Insert(base.Key(k*stride), base.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(r, server.Config{Addr: "127.0.0.1:0", Logf: func(string, ...any) {}})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHello(nc); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if err := wire.ReadHello(br); err != nil {
		t.Fatal(err)
	}
	cw := &countingConn{Conn: nc}
	opt := Options{Conns: 1}
	opt.fill()
	c := &Client{addr: s.Addr().String(), opt: opt, slots: make([]slot, 1)}
	cn := c.newConn(cw, br)
	c.slots[0].cn = cn
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				k := uint64((w + i) % keys)
				if v, err := c.Search(ctx, Key(k*stride)); err != nil || v != Value(k) {
					t.Errorf("search %d: v=%d err=%v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if c.slots[0].cn != cn {
		t.Fatal("the counted connection was replaced mid-run")
	}
	writes := cw.writes.Load()
	perWrite := float64(callers*perCaller) / float64(writes)
	t.Logf("%d frames in %d writes: %.2f frames per Write", callers*perCaller, writes, perWrite)
	if perWrite < 3 {
		t.Fatalf("%.2f frames per Write, want >= 3: concurrent callers are not sharing the writer's bursts", perWrite)
	}
}
