package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"blinktree/client"
	"blinktree/internal/shard"
	"blinktree/internal/wire"
)

// start spins up a server over a fresh router and returns both plus a
// connected client. Everything is cleaned up with t.Cleanup.
func start(t *testing.T, shards int, cfg Config, opts shard.Options) (*Server, *shard.Router, *client.Client) {
	t.Helper()
	r, err := shard.NewRouter(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = func(format string, args ...any) { t.Logf("server: "+format, args...) }
	s := New(r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(s.Addr().String(), client.Options{})
	if err != nil {
		s.Close()
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
		r.Close()
	})
	return s, r, c
}

func TestPointOpsOverWire(t *testing.T) {
	_, _, c := start(t, 4, Config{}, shard.Options{})
	ctx := context.Background()

	if err := c.Insert(ctx, 10, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ctx, 10, 100); !errors.Is(err, client.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if v, err := c.Search(ctx, 10); err != nil || v != 100 {
		t.Fatalf("search: %d, %v", v, err)
	}
	if _, err := c.Search(ctx, 11); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("missing search: %v", err)
	}
	old, existed, err := c.Upsert(ctx, 10, 101)
	if err != nil || !existed || old != 100 {
		t.Fatalf("upsert: %d %v %v", old, existed, err)
	}
	actual, loaded, err := c.GetOrInsert(ctx, 20, 200)
	if err != nil || loaded || actual != 200 {
		t.Fatalf("get-or-insert fresh: %d %v %v", actual, loaded, err)
	}
	actual, loaded, err = c.GetOrInsert(ctx, 20, 999)
	if err != nil || !loaded || actual != 200 {
		t.Fatalf("get-or-insert present: %d %v %v", actual, loaded, err)
	}
	swapped, err := c.CompareAndSwap(ctx, 10, 101, 102)
	if err != nil || !swapped {
		t.Fatalf("cas hit: %v %v", swapped, err)
	}
	swapped, err = c.CompareAndSwap(ctx, 10, 101, 103)
	if err != nil || swapped {
		t.Fatalf("cas miss: %v %v", swapped, err)
	}
	if _, err := c.CompareAndSwap(ctx, 999, 0, 1); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("cas absent: %v", err)
	}
	deleted, err := c.CompareAndDelete(ctx, 20, 200)
	if err != nil || !deleted {
		t.Fatalf("cad: %v %v", deleted, err)
	}
	if err := c.Delete(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, 10); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if n, err := c.Len(ctx); err != nil || n != 0 {
		t.Fatalf("len: %d %v", n, err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestScanPaging(t *testing.T) {
	_, _, c := start(t, 4, Config{}, shard.Options{})
	ctx := context.Background()

	// Spread keys over all shards.
	const n = 1000
	stride := ^uint64(0)/n + 1
	ops := make([]client.Op, n)
	for i := range ops {
		ops[i] = client.Op{Kind: client.OpInsert, Key: client.Key(uint64(i) * stride), Value: client.Value(i)}
	}
	if _, err := c.Batch(ctx, ops); err != nil {
		t.Fatal(err)
	}

	// Page through with a small page size and check order + totals.
	var got []client.Key
	lo := client.Key(0)
	pages := 0
	for {
		pairs, more, err := c.Scan(ctx, lo, client.Key(^uint64(0)), 64)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, p := range pairs {
			got = append(got, p.Key)
		}
		if !more {
			break
		}
		lo = pairs[len(pairs)-1].Key + 1
	}
	if len(got) != n {
		t.Fatalf("scanned %d pairs, want %d", len(got), n)
	}
	if pages < n/64 {
		t.Fatalf("only %d pages — paging not happening", pages)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}

	// Range helper agrees.
	count := 0
	if err := c.Range(ctx, 0, client.Key(^uint64(0)), 100, func(client.Key, client.Value) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("Range visited %d, want %d", count, n)
	}

	// Early stop.
	count = 0
	if err := c.Range(ctx, 0, client.Key(^uint64(0)), 10, func(client.Key, client.Value) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBatchMixedKinds(t *testing.T) {
	_, _, c := start(t, 4, Config{}, shard.Options{})
	ctx := context.Background()
	res, err := c.Batch(ctx, []client.Op{
		{Kind: client.OpInsert, Key: 1, Value: 10},
		{Kind: client.OpInsert, Key: 1, Value: 11}, // duplicate
		{Kind: client.OpUpsert, Key: 1, Value: 12},
		{Kind: client.OpSearch, Key: 1},
		{Kind: client.OpCompareAndSwap, Key: 1, Old: 12, Value: 13},
		{Kind: client.OpDelete, Key: 404},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("slot 0: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, client.ErrDuplicate) {
		t.Fatalf("slot 1: %v", res[1].Err)
	}
	if res[2].Err != nil || !res[2].OK || res[2].Value != 10 {
		t.Fatalf("slot 2: %+v", res[2])
	}
	if res[3].Err != nil || res[3].Value != 12 {
		t.Fatalf("slot 3: %+v", res[3])
	}
	if res[4].Err != nil || !res[4].OK {
		t.Fatalf("slot 4: %+v", res[4])
	}
	if !errors.Is(res[5].Err, client.ErrNotFound) {
		t.Fatalf("slot 5: %v", res[5].Err)
	}
}

// TestPollMixesBatchAndPointOps is a regression test for a scratch-
// aliasing bug: a poll carrying an explicit OpBatch frame alongside
// point ops used to run the batch's apply through the same per-
// connection scratch that still backed the point-op results being
// dispatched, so point ops dispatched after the OpBatch frame were
// answered from clobbered slots. It speaks raw wire so both frames
// arrive in one burst and are gathered into one poll, with the OpBatch
// frame first — its apply runs mid-dispatch, before the trailing point
// op's response is encoded.
func TestPollMixesBatchAndPointOps(t *testing.T) {
	s, _, c := start(t, 4, Config{}, shard.Options{})
	ctx := context.Background()
	const k1, k2 = 1, 2
	if err := c.Insert(ctx, k1, 111); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ctx, k2, 222); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteHello(nc); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if err := wire.ReadHello(br); err != nil {
		t.Fatal(err)
	}

	// A few rounds, in case a burst ever straddles two polls (which
	// would make that round vacuously pass).
	for round := 0; round < 8; round++ {
		// Frame 1: OpBatch with a single search of k2. Frame 2: point
		// search of k1. One Write, so the poll gathers both.
		var bp wire.Buf
		bp.U32(1)
		bp.U8(wire.OpSearch)
		bp.U64(k2)
		bp.U64(0)
		bp.U64(0)
		burst, err := wire.AppendFrame(nil, uint64(2*round+1), wire.OpBatch, bp.B)
		if err != nil {
			t.Fatal(err)
		}
		var pp wire.Buf
		pp.U64(k1)
		burst, err = wire.AppendFrame(burst, uint64(2*round+2), wire.OpSearch, pp.B)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(burst); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 2; i++ {
			id, status, pl, err := wire.ReadFrame(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if status != wire.StatusOK {
				t.Fatalf("round %d id %d: status %d", round, id, status)
			}
			switch id {
			case uint64(2*round + 1): // batch response: 10 bytes/slot
				if len(pl) != 10 {
					t.Fatalf("round %d: batch response %d bytes", round, len(pl))
				}
				d := wire.Dec{B: pl[1:9]}
				if v := d.U64(); v != 222 {
					t.Fatalf("round %d: batch search of k2 = %d, want 222", round, v)
				}
			case uint64(2*round + 2): // point search response: value only
				if len(pl) != 8 {
					t.Fatalf("round %d: point response %d bytes", round, len(pl))
				}
				d := wire.Dec{B: pl}
				if v := d.U64(); v != 111 {
					t.Fatalf("round %d: point search of k1 = %d, want 111 (answered from the batch's clobbered scratch?)", round, v)
				}
			default:
				t.Fatalf("round %d: unexpected response id %d", round, id)
			}
		}
	}
}

func TestConcurrentPipelining(t *testing.T) {
	s, _, c := start(t, 8, Config{}, shard.Options{})
	ctx := context.Background()
	const workers, per = 32, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := client.Key(uint64(w*per+i) * 0x9E3779B97F4A7C15)
				if _, _, err := c.Upsert(ctx, k, client.Value(i)); err != nil {
					t.Error(err)
					return
				}
				if v, err := c.Search(ctx, k); err != nil || v != client.Value(i) {
					t.Errorf("readback %d: %d %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := c.Len(ctx)
	if err != nil || n != workers*per {
		t.Fatalf("len: %d %v, want %d", n, err, workers*per)
	}
	// Coalescing must actually happen: with 32 concurrent pipeliners,
	// polls should carry well over one request on average.
	polls, reqs := s.Metrics.Polls.Load(), s.Metrics.Requests.Load()
	if polls == 0 || reqs == 0 {
		t.Fatal("no polls recorded")
	}
	t.Logf("coalescing: %d requests over %d polls (%.1f req/poll)",
		reqs, polls, float64(reqs)/float64(polls))
	if float64(reqs)/float64(polls) < 1.5 {
		t.Errorf("mean poll size %.2f — pipelined requests are not being coalesced",
			float64(reqs)/float64(polls))
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 8 || st.Len != uint64(workers*per) || st.BatchOps == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDurableOverWireWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Durable: true, Dir: dir}
	_, _, c := start(t, 2, Config{}, opts)
	ctx := context.Background()
	for i := uint64(0); i < 500; i++ {
		if _, _, err := c.Upsert(ctx, client.Key(i*(^uint64(0)/500+1)), client.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for i := uint64(500); i < 600; i++ {
		if _, _, err := c.Upsert(ctx, client.Key(i), client.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen the same dir: checkpoint + log suffix must reproduce all
	// 600 acknowledged writes.
	r2, err := shard.NewRouter(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Len(); got != 600 {
		t.Fatalf("recovered %d pairs, want 600", got)
	}
}

func TestMalformedFramesGetBadRequest(t *testing.T) {
	s, _, _ := start(t, 1, Config{}, shard.Options{})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteHello(nc); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	if err := wire.ReadHello(br); err != nil {
		t.Fatal(err)
	}
	// Search with a truncated payload, then an unknown op: both must be
	// answered (bad request), and the connection must stay usable.
	if err := wire.WriteFrame(nc, 1, wire.OpSearch, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, 2, 200, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, 3, wire.OpPing, nil); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint8{}
	for i := 0; i < 3; i++ {
		id, code, _, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = code
	}
	if got[1] != wire.StatusBadRequest || got[2] != wire.StatusBadRequest || got[3] != wire.StatusOK {
		t.Fatalf("statuses: %v", got)
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	s, _, _ := start(t, 1, Config{}, shard.Options{})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	buf := make([]byte, 1)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("server should close on bad magic, got %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, r, c := start(t, 2, Config{DrainTimeout: 2 * time.Second}, shard.Options{})
	ctx := context.Background()
	if err := c.Insert(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// New calls fail once the server is gone.
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := c.Search(cctx, 1); err == nil {
		t.Fatal("search after close should fail")
	}
	// The router is untouched by server shutdown.
	if v, err := r.Search(1); err != nil || v != 1 {
		t.Fatalf("router after drain: %d %v", v, err)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	cfg := Config{HTTPAddr: "127.0.0.1:0"}
	s, _, c := start(t, 2, cfg, shard.Options{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := c.Insert(ctx, client.Key(i), client.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + s.HTTPAddr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"blinkserver_requests_total",
		"blinkserver_polls_total",
		"blinkserver_connections_active",
		`blinkshard_pairs{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	_, _, c := start(t, 1, Config{}, shard.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ping: %v", err)
	}
	// The connection survives an abandoned call.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLockFootprintsHoldOverWire(t *testing.T) {
	_, r, c := start(t, 4, Config{}, shard.Options{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := client.Key(uint64(w*300+i) * 0x9E3779B97F4A7C15)
				switch i % 3 {
				case 0:
					if _, _, err := c.Upsert(ctx, k, 1); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := c.Search(ctx, k); err != nil && !errors.Is(err, client.ErrNotFound) {
						t.Error(err)
						return
					}
				default:
					if err := c.Delete(ctx, k); err != nil && !errors.Is(err, client.ErrNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tree.InsertLocks.MaxHeld > 1 || st.Tree.DeleteLocks.MaxHeld > 1 || st.Tree.CondLocks.MaxHeld > 1 {
		t.Fatalf("update footprint exceeded 1 over the wire: %+v", st.Tree)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}
