package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/base"
	"blinktree/internal/verify"
	"blinktree/internal/wire"
)

// Key is the 64-bit search key (identical to blinktree.Key).
type Key = base.Key

// Value is the 64-bit payload (identical to blinktree.Value).
type Value = base.Value

// Sentinel errors, shared with the blinktree package so errors.Is
// works the same against a remote index as against a local one.
var (
	ErrNotFound  = base.ErrNotFound
	ErrDuplicate = base.ErrDuplicate
	ErrClosed    = base.ErrClosed
)

// ErrReadOnly reports a mutation sent to a read-only follower; writes
// must go to the primary (see Options.ReplicaAddr and Promote).
var ErrReadOnly = wire.ErrReadOnly

// ErrClientClosed is returned by calls made after Close.
var ErrClientClosed = errors.New("client: closed")

// ErrNoPinnedRoot is returned by VerifiedGet before any root has been
// pinned with PinRoot.
var ErrNoPinnedRoot = errors.New("client: no pinned root (call PinRoot first)")

// Proof verification errors, re-exported so callers can classify a
// VerifiedGet rejection without importing another package.
var (
	ErrBadProof     = verify.ErrBadProof
	ErrRootMismatch = verify.ErrRootMismatch
)

// Options tunes Dial. The zero value works.
type Options struct {
	// Conns is the connection pool size. More connections spread
	// pipelined load over more server-side poll loops; fewer coalesce
	// harder. Default 2.
	Conns int
	// DialTimeout bounds each dial (including the hello exchange).
	// Default 5s.
	DialTimeout time.Duration
	// RetryReads is how many times an idempotent read (Search, Scan,
	// Len, Stats, Ping) is retried on a fresh connection after a
	// network failure. Mutations are never retried — a lost response
	// does not prove a lost write. Default 1; negative disables.
	RetryReads int
	// ReadBuffer sizes each connection's buffered reader; WriteBuffer
	// sizes the writer goroutine's burst buffer (whole bursts go out
	// in a single Write). Default 64 KiB each.
	ReadBuffer, WriteBuffer int
	// ReplicaAddr, when non-empty, is a read replica (a follower, see
	// docs/protocol.md): idempotent reads — Search, Scan/Range, Len,
	// Stats, Ping — are served by it, falling back to the primary on a
	// network failure, mirroring the retry-on-reconnect rule.
	// Mutations always go to the primary. Replication is asynchronous:
	// replica reads may lag the primary (a Search can miss a write the
	// primary already acknowledged), which is the price of scaling
	// reads beyond one machine.
	ReplicaAddr string
}

func (o *Options) fill() {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RetryReads == 0 {
		o.RetryReads = 1
	}
	if o.RetryReads < 0 {
		o.RetryReads = 0
	}
	if o.ReadBuffer <= 0 {
		o.ReadBuffer = 64 << 10
	}
	if o.WriteBuffer <= 0 {
		o.WriteBuffer = 64 << 10
	}
}

// Client is a pooled, pipelining client for a blinkserver. All methods
// are safe for concurrent use by any number of goroutines; concurrent
// calls through the same connection are multiplexed onto one wire
// stream (each call is one pipelined request), which is what lets the
// server coalesce them into shard-parallel batches.
type Client struct {
	addr   string
	opt    Options
	slots  []slot
	next   atomic.Uint64
	closed atomic.Bool
	// replica is the read-replica pool (nil without ReplicaAddr). Its
	// connections dial lazily, so a down replica costs nothing until a
	// read tries it — and that read falls back to the primary.
	replica *Client
	// replicaDownUntil (unix nanos) is the negative cache after a
	// replica transport failure: reads skip straight to the primary
	// until it passes, so a dead replica costs one dial timeout per
	// cooldown window instead of one per read.
	replicaDownUntil atomic.Int64
	// pinnedRoot is the trusted state root VerifiedGet checks proofs
	// against (nil until PinRoot).
	pinnedRoot atomic.Pointer[[32]byte]
}

// replicaCooldown is how long reads avoid the replica after it fails.
const replicaCooldown = time.Second

// slot holds one pooled connection, redialed lazily after failures.
type slot struct {
	mu sync.Mutex
	cn *conn
}

// Dial connects to a blinkserver at addr (host:port). The first
// connection is established eagerly so configuration errors surface
// here; the rest of the pool dials on demand.
func Dial(addr string, opt Options) (*Client, error) {
	opt.fill()
	c := &Client{addr: addr, opt: opt, slots: make([]slot, opt.Conns)}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.slots[0].cn = cn
	if opt.ReplicaAddr != "" {
		ropt := opt
		ropt.ReplicaAddr = ""
		// Lazy pool: a replica that is down when Dial runs must not
		// fail the primary client, so no eager connection here.
		c.replica = &Client{addr: opt.ReplicaAddr, opt: ropt, slots: make([]slot, ropt.Conns)}
	}
	return c, nil
}

// Close tears the pool down. In-flight calls fail with ErrClientClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		if s.cn != nil {
			s.cn.fail(ErrClientClosed)
			s.cn = nil
		}
		s.mu.Unlock()
	}
	if c.replica != nil {
		c.replica.Close()
	}
	return nil
}

// --- public operation surface ---

// Ping round-trips an empty frame. Idempotent (retried on reconnect).
func (c *Client) Ping(ctx context.Context) error {
	_, _, err := c.doPoint(ctx, wire.OpPing, 0, 0, 0, true)
	return err
}

// Search returns the value stored under k, or ErrNotFound. Idempotent.
func (c *Client) Search(ctx context.Context, k Key) (Value, error) {
	v, _, err := c.doPoint(ctx, wire.OpSearch, uint64(k), 0, 0, true)
	return Value(v), err
}

// Insert stores v under k; ErrDuplicate if k is present.
func (c *Client) Insert(ctx context.Context, k Key, v Value) error {
	_, _, err := c.doPoint(ctx, wire.OpInsert, uint64(k), uint64(v), 0, false)
	return err
}

// Delete removes k, or returns ErrNotFound.
func (c *Client) Delete(ctx context.Context, k Key) error {
	_, _, err := c.doPoint(ctx, wire.OpDelete, uint64(k), 0, 0, false)
	return err
}

// Upsert stores v under k unconditionally, returning the previous
// value and whether one existed.
func (c *Client) Upsert(ctx context.Context, k Key, v Value) (old Value, existed bool, err error) {
	prev, existed, err := c.doPoint(ctx, wire.OpUpsert, uint64(k), uint64(v), 0, false)
	return Value(prev), existed, err
}

// GetOrInsert returns the value under k, inserting v first when k is
// absent; loaded reports whether it was already present.
func (c *Client) GetOrInsert(ctx context.Context, k Key, v Value) (actual Value, loaded bool, err error) {
	got, loaded, err := c.doPoint(ctx, wire.OpGetOrInsert, uint64(k), uint64(v), 0, false)
	return Value(got), loaded, err
}

// CompareAndSwap replaces k's value with new only when it equals old.
// A missing key is ErrNotFound; a mismatch is (false, nil).
func (c *Client) CompareAndSwap(ctx context.Context, k Key, old, new Value) (bool, error) {
	_, swapped, err := c.doPoint(ctx, wire.OpCompareAndSwap, uint64(k), uint64(old), uint64(new), false)
	return swapped, err
}

// CompareAndDelete removes k only when its value equals old, with the
// same convention as CompareAndSwap.
func (c *Client) CompareAndDelete(ctx context.Context, k Key, old Value) (bool, error) {
	_, deleted, err := c.doPoint(ctx, wire.OpCompareAndDelete, uint64(k), uint64(old), 0, false)
	return deleted, err
}

// Pair is one key/value of a scan page.
type Pair struct {
	Key   Key
	Value Value
}

// Scan fetches one bounded page of lo ≤ key ≤ hi in ascending order.
// limit 0 asks for the server default; the server caps it at
// wire.MaxScanLimit. more reports that the page filled before hi —
// resume with lo = last key + 1. Idempotent.
func (c *Client) Scan(ctx context.Context, lo, hi Key, limit int) (pairs []Pair, more bool, err error) {
	var b wire.Buf
	b.U64(uint64(lo))
	b.U64(uint64(hi))
	b.U32(uint32(limit))
	pl, err := c.do(ctx, wire.OpScan, b.B, true)
	if err != nil {
		return nil, false, err
	}
	d := wire.Dec{B: pl}
	more = d.U8() != 0
	n := int(d.U32())
	if n > (len(pl)-5)/16 {
		// Never trust a wire-supplied count beyond what the payload
		// can actually hold — a corrupt response must not drive a
		// giant allocation.
		return nil, false, errors.New("client: malformed scan response")
	}
	pairs = make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{Key(d.U64()), Value(d.U64())})
	}
	if !d.Done() {
		return nil, false, errors.New("client: malformed scan response")
	}
	return pairs, more, nil
}

// Range calls fn for each pair with lo ≤ key ≤ hi in ascending order,
// fetching pages of pageSize (0 = server default) until done or fn
// returns false. Pages are independent requests: concurrent mutations
// between pages may or may not be observed, exactly like a local
// cursor.
func (c *Client) Range(ctx context.Context, lo, hi Key, pageSize int, fn func(Key, Value) bool) error {
	for {
		pairs, more, err := c.Scan(ctx, lo, hi, pageSize)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			if !fn(p.Key, p.Value) {
				return nil
			}
		}
		if !more || len(pairs) == 0 {
			return nil
		}
		last := pairs[len(pairs)-1].Key
		if last == Key(^uint64(0)) || last >= hi {
			return nil
		}
		lo = last + 1
	}
}

// OpKind selects what a batch slot does. The values are the wire op
// codes of the corresponding point operations.
type OpKind uint8

// Batchable operation kinds.
const (
	OpSearch           = OpKind(wire.OpSearch)
	OpInsert           = OpKind(wire.OpInsert)
	OpDelete           = OpKind(wire.OpDelete)
	OpUpsert           = OpKind(wire.OpUpsert)
	OpGetOrInsert      = OpKind(wire.OpGetOrInsert)
	OpCompareAndSwap   = OpKind(wire.OpCompareAndSwap)
	OpCompareAndDelete = OpKind(wire.OpCompareAndDelete)
)

// Op is one operation of a Batch call. Old is the expected value for
// the compare kinds; Value is ignored for searches and deletes.
type Op struct {
	Kind  OpKind
	Key   Key
	Value Value
	Old   Value
}

// Result is the outcome of one batched operation, positionally aligned
// with its Op: Value carries the searched/previous/actual value, OK
// the kind-specific boolean, Err the per-slot error.
type Result struct {
	Value Value
	OK    bool
	Err   error
}

// Batch executes ops as one wire request and one shard-parallel batch
// on the server, returning per-slot results. Errors are per slot: a
// failed op does not stop the batch. At most wire.MaxBatchOps slots.
func (c *Client) Batch(ctx context.Context, ops []Op) ([]Result, error) {
	if len(ops) > wire.MaxBatchOps {
		return nil, fmt.Errorf("client: batch of %d exceeds %d", len(ops), wire.MaxBatchOps)
	}
	var b wire.Buf
	b.U32(uint32(len(ops)))
	for _, op := range ops {
		b.U8(uint8(op.Kind))
		b.U64(uint64(op.Key))
		b.U64(uint64(op.Value))
		b.U64(uint64(op.Old))
	}
	pl, err := c.do(ctx, wire.OpBatch, b.B, false)
	if err != nil {
		return nil, err
	}
	if len(pl) != 10*len(ops) {
		return nil, errors.New("client: malformed batch response")
	}
	d := wire.Dec{B: pl}
	results := make([]Result, len(ops))
	for i := range results {
		status := d.U8()
		results[i].Value = Value(d.U64())
		results[i].OK = d.U8() != 0
		results[i].Err = wire.StatusError(status, "")
	}
	return results, nil
}

// Len returns the number of stored pairs. Idempotent.
func (c *Client) Len(ctx context.Context) (int, error) {
	pl, err := c.do(ctx, wire.OpLen, nil, true)
	if err != nil {
		return 0, err
	}
	d := wire.Dec{B: pl}
	n := int(d.U64())
	return n, d.Err
}

// Checkpoint asks the server to write a durable snapshot and truncate
// its write-ahead log (a no-op on a volatile server).
func (c *Client) Checkpoint(ctx context.Context) error {
	_, err := c.do(ctx, wire.OpCheckpoint, nil, false)
	return err
}

// Promote asks a read-only follower to stop replicating and accept
// writes — the failover step after the primary dies. It reports
// whether the server was in fact a follower (false = it was already
// writable and nothing changed). Promote always targets the primary
// address of this client, so a failover client should be dialed
// against the follower's address.
func (c *Client) Promote(ctx context.Context) (bool, error) {
	pl, err := c.do(ctx, wire.OpPromote, nil, false)
	if err != nil {
		return false, err
	}
	d := wire.Dec{B: pl}
	was := d.U8() != 0
	return was, d.Err
}

// Stats is the index-level counter snapshot a server reports.
type Stats struct {
	Shards   int
	Len      uint64
	Height   uint64
	Searches uint64
	Inserts  uint64
	Deletes  uint64
	Upserts  uint64
	Updates  uint64
	Cas      uint64
	Scans    uint64
	Batches  uint64
	BatchOps uint64
}

// Stats fetches the server's cheap index counters. Idempotent.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	pl, err := c.do(ctx, wire.OpStats, nil, true)
	if err != nil {
		return Stats{}, err
	}
	d := wire.Dec{B: pl}
	n := int(d.U32())
	if n > (len(pl)-4)/8 {
		return Stats{}, errors.New("client: malformed stats response")
	}
	f := make([]uint64, n)
	for i := range f {
		f[i] = d.U64()
	}
	if d.Err != nil {
		return Stats{}, d.Err
	}
	get := func(i int) uint64 {
		if i < len(f) {
			return f[i]
		}
		return 0
	}
	return Stats{
		Shards: int(get(0)), Len: get(1), Height: get(2),
		Searches: get(3), Inserts: get(4), Deletes: get(5),
		Upserts: get(6), Updates: get(7), Cas: get(8),
		Scans: get(9), Batches: get(10), BatchOps: get(11),
	}, nil
}

// --- verified serving (server started with -verified) ---

// Root fetches the server's current Merkle state root. The root is a
// commitment to the entire key/value state: two servers with the same
// contents report the same root. Idempotent (and replica-first when a
// replica is configured — a replica's root lags the primary's until
// replication catches up).
func (c *Client) Root(ctx context.Context) ([32]byte, error) {
	var root [32]byte
	pl, err := c.do(ctx, wire.OpRoot, nil, true)
	if err != nil {
		return root, err
	}
	if len(pl) != len(root) {
		return root, errors.New("client: malformed root response")
	}
	copy(root[:], pl)
	return root, nil
}

// PinRoot pins the trusted state root that every later VerifiedGet
// checks its proof against. Pin a root obtained out of band, or from
// Root over a connection made while you trust the server. After any
// mutation the server's root moves on, and VerifiedGet fails with
// ErrRootMismatch until a fresh root is pinned — which is the point:
// against a pinned root the server cannot answer from different state
// without detection.
func (c *Client) PinRoot(root [32]byte) {
	r := root
	c.pinnedRoot.Store(&r)
}

// PinnedRoot returns the currently pinned root, if any.
func (c *Client) PinnedRoot() ([32]byte, bool) {
	if p := c.pinnedRoot.Load(); p != nil {
		return *p, true
	}
	return [32]byte{}, false
}

// Prove fetches the server's inclusion/exclusion proof for k without
// checking it against any root. Most callers want VerifiedGet; Prove
// is for tooling that inspects or stores proofs. Idempotent.
func (c *Client) Prove(ctx context.Context, k Key) (*verify.Proof, error) {
	var b wire.Buf
	b.U64(uint64(k))
	pl, err := c.do(ctx, wire.OpProve, b.B, true)
	if err != nil {
		return nil, err
	}
	return verify.DecodeProof(pl)
}

// VerifiedGet looks up k and cryptographically verifies the answer
// against the root pinned with PinRoot: the server returns a Merkle
// proof, and the value (or its absence — absence is proven too) is
// accepted only if the proof folds up to exactly the pinned root.
// Returns the value and whether k is present; ErrRootMismatch if the
// proof is well-formed but commits to different state than the pinned
// root, ErrBadProof if it is malformed or self-inconsistent.
func (c *Client) VerifiedGet(ctx context.Context, k Key) (Value, bool, error) {
	p := c.pinnedRoot.Load()
	if p == nil {
		return 0, false, ErrNoPinnedRoot
	}
	proof, err := c.Prove(ctx, k)
	if err != nil {
		return 0, false, err
	}
	v, present, err := proof.Verify(uint64(k), *p)
	if err != nil {
		return 0, false, err
	}
	return Value(v), present, nil
}

// --- transport ---

// do runs one round trip: pick a pooled connection (redialing a dead
// slot), send the request, wait for the id-matched response. On a
// network failure, idempotent requests are retried Options.RetryReads
// times on a fresh connection; mutations surface the failure.
//
// With a configured replica, idempotent requests route there first and
// fall back to the primary only on a transport failure — a server-
// reported status from the replica (including NotFound) is a valid,
// possibly stale, answer and is returned as-is.
func (c *Client) do(ctx context.Context, op uint8, payload []byte, idempotent bool) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if idempotent && c.replica != nil && time.Now().UnixNano() > c.replicaDownUntil.Load() {
		pl, err := c.replica.do(ctx, op, payload, true)
		var ne *netError
		if err == nil || !errors.As(err, &ne) {
			return pl, err
		}
		// Replica unreachable: remember that for a cooldown and serve
		// from the primary.
		c.replicaDownUntil.Store(time.Now().Add(replicaCooldown).UnixNano())
	}
	attempts := 1
	if idempotent {
		attempts += c.opt.RetryReads
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		cn, err := c.conn()
		if err != nil {
			lastErr = err
			continue
		}
		pl, err := cn.roundtrip(ctx, op, payload)
		if err == nil {
			return pl, nil
		}
		var ne *netError
		if !errors.As(err, &ne) {
			return nil, err // server status or ctx error: no retry
		}
		lastErr = ne.err
	}
	// Wrap in netError so callers (the replica fallback above) can
	// still classify the exhausted retries as a transport failure.
	return nil, fmt.Errorf("client: %s failed after %d attempt(s): %w", opName(op), attempts, &netError{lastErr})
}

// doPoint is do for the fixed-shape point operations (ping, search,
// insert, delete, upsert, get-or-insert, compare-and-swap,
// compare-and-delete): the request is encoded into the pooled call's
// own storage and the response decoded from it before the call is
// pooled again, so the steady-state round trip allocates nothing. The
// x/y/z argument meaning is per-op (see encodePoint); val/ok carry the
// decoded response fields the op defines (see decodePoint).
func (c *Client) doPoint(ctx context.Context, op uint8, x, y, z uint64, idempotent bool) (val uint64, ok bool, err error) {
	if c.closed.Load() {
		return 0, false, ErrClientClosed
	}
	if idempotent && c.replica != nil && time.Now().UnixNano() > c.replicaDownUntil.Load() {
		val, ok, err := c.replica.doPoint(ctx, op, x, y, z, true)
		var ne *netError
		if err == nil || !errors.As(err, &ne) {
			return val, ok, err
		}
		// Replica unreachable: remember that for a cooldown and serve
		// from the primary.
		c.replicaDownUntil.Store(time.Now().Add(replicaCooldown).UnixNano())
	}
	cl := callPool.Get().(*call)
	n := encodePoint(cl, op, x, y, z)
	attempts := 1
	if idempotent {
		attempts += c.opt.RetryReads
	}
	// reuse tracks whether cl can go back to the pool when this call
	// returns. It latches false the first time an attempt leaves cl.req
	// possibly still referenced by a dead connection's goroutines (see
	// roundtripPoint); retries on a fresh connection only *read* cl.req,
	// which is safe, but pooling — and the rewrite by cl's next owner —
	// is not. A tainted cl is left to the garbage collector.
	reuse := true
	var lastErr error
	for a := 0; a < attempts; a++ {
		cn, err := c.conn()
		if err != nil {
			lastErr = err
			continue
		}
		val, ok, safe, err := cn.roundtripPoint(ctx, op, cl, n)
		reuse = reuse && safe
		if err == nil {
			if reuse {
				callPool.Put(cl)
			}
			return val, ok, nil
		}
		var ne *netError
		if !errors.As(err, &ne) {
			if reuse {
				callPool.Put(cl)
			}
			return 0, false, err // server status or ctx error: no retry
		}
		lastErr = ne.err
	}
	if reuse {
		callPool.Put(cl)
	}
	return 0, false, fmt.Errorf("client: %s failed after %d attempt(s): %w", opName(op), attempts, &netError{lastErr})
}

// encodePoint writes op's request payload (per docs/protocol.md) into
// cl.req and returns its length. Argument meaning per op: x is the key
// (unused by ping); y is the value for insert/upsert/get-or-insert and
// the expected old value for the compare ops; z is compare-and-swap's
// new value.
func encodePoint(cl *call, op uint8, x, y, z uint64) int {
	le := binary.LittleEndian
	switch op {
	case wire.OpPing:
		return 0
	case wire.OpSearch, wire.OpDelete:
		le.PutUint64(cl.req[0:8], x)
		return 8
	case wire.OpCompareAndSwap:
		le.PutUint64(cl.req[0:8], x)
		le.PutUint64(cl.req[8:16], y)
		le.PutUint64(cl.req[16:24], z)
		return 24
	default: // insert, upsert, get-or-insert, compare-and-delete
		le.PutUint64(cl.req[0:8], x)
		le.PutUint64(cl.req[8:16], y)
		return 16
	}
}

// errMalformedPoint reports a point response whose payload length does
// not match its op's fixed shape.
var errMalformedPoint = errors.New("client: malformed point response")

// decodePoint decodes op's fixed-shape response payload: val is the
// searched/previous/actual value, ok the existed/loaded/swapped/
// deleted flag.
func decodePoint(op uint8, pl []byte) (val uint64, ok bool, err error) {
	switch op {
	case wire.OpSearch:
		if len(pl) != 8 {
			return 0, false, errMalformedPoint
		}
		return binary.LittleEndian.Uint64(pl), false, nil
	case wire.OpUpsert, wire.OpGetOrInsert:
		if len(pl) != 9 {
			return 0, false, errMalformedPoint
		}
		return binary.LittleEndian.Uint64(pl), pl[8] != 0, nil
	case wire.OpCompareAndSwap, wire.OpCompareAndDelete:
		if len(pl) != 1 {
			return 0, false, errMalformedPoint
		}
		return 0, pl[0] != 0, nil
	default: // ping, insert, delete: empty response
		if len(pl) != 0 {
			return 0, false, errMalformedPoint
		}
		return 0, false, nil
	}
}

// conn returns a live pooled connection, round-robin, dialing if the
// slot is empty or its connection died.
func (c *Client) conn() (*conn, error) {
	s := &c.slots[c.next.Add(1)%uint64(len(c.slots))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if s.cn != nil && !s.cn.isDead() {
		return s.cn, nil
	}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	s.cn = cn
	return cn, nil
}

// dial establishes one connection: TCP connect, hello exchange, then
// the writer and reader goroutines.
func (c *Client) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	nc.SetDeadline(time.Now().Add(c.opt.DialTimeout))
	if err := wire.WriteHello(nc); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(nc, c.opt.ReadBuffer)
	if err := wire.ReadHello(br); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	nc.SetDeadline(time.Time{})
	return c.newConn(nc, br), nil
}

// newConn wraps a connection whose hello exchange is done (br reads
// from nc) and starts its writer and reader goroutines.
func (c *Client) newConn(nc net.Conn, br *bufio.Reader) *conn {
	cn := &conn{
		nc:      nc,
		br:      br,
		wbufCap: c.opt.WriteBuffer,
		wake:    make(chan struct{}, 1),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	go cn.writeLoop()
	go cn.readLoop()
	return cn
}

// netError wraps transport failures so do can distinguish them from
// server-reported statuses.
type netError struct{ err error }

func (e *netError) Error() string { return e.err.Error() }
func (e *netError) Unwrap() error { return e.err }

// wreq is one frame queued for the writer goroutine.
type wreq struct {
	id      uint64
	op      uint8
	payload []byte
}

// call is one in-flight request. Calls are pooled and carry their own
// request and response storage, so a steady-state point operation
// allocates nothing: the request is encoded into req (24 bytes holds
// the largest point payload, compare-and-swap), the reader copies any
// response that fits into resp (the largest point response is 9
// bytes), and the caller decodes from resp before returning the call
// to the pool. Larger responses arrive in payload, freshly allocated
// by the reader.
//
// Lifetime rule for req: on the success path the writer goroutine
// reads it exactly once, before the response can possibly arrive (the
// server answers only what it received), so decoding-then-Put after
// done fires is safe. Two completions break that ordering and must NOT
// pool the call (it is left to the garbage collector instead):
//   - a call abandoned on context cancellation, whose frame may still
//     sit unwritten in the queue;
//   - a completion delivered by fail(), which fires done without
//     waiting for the writer — the writer may still hold a swapped-out
//     burst referencing req, and would race with the next pool owner's
//     encodePoint.
type call struct {
	done    chan struct{}
	payload []byte // large response payload (owned by this call)
	err     error  // transport-level failure
	status  uint8
	respLen uint8    // bytes of resp in use when payload is nil
	resp    [16]byte // small response storage (point ops land here)
	req     [24]byte // request payload storage for point ops
}

// respSlice returns the response payload without copying; valid only
// until the call is pooled.
func (cl *call) respSlice() []byte {
	if cl.payload != nil {
		return cl.payload
	}
	return cl.resp[:cl.respLen]
}

// ownedResp returns the response payload as a slice safe to hold after
// the call is pooled: large payloads are already owned, small ones are
// copied out.
func (cl *call) ownedResp() []byte {
	if cl.payload != nil {
		return cl.payload
	}
	if cl.respLen == 0 {
		return nil
	}
	return append([]byte(nil), cl.resp[:cl.respLen]...)
}

var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan struct{}, 1)} },
}

// conn is one pooled connection. Calls from any number of goroutines
// are pipelined: enqueue appends to a queue under one mutex (the same
// acquisition registers the pending call), the writer goroutine swaps
// the whole queue out and writes it as one burst with a single flush,
// and the reader goroutine dispatches responses by id.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	wbufCap int // initial capacity of the writer's burst buffer
	ids     atomic.Uint64

	mu      sync.Mutex
	queue   []wreq
	pending map[uint64]*call
	failed  bool
	failErr error

	wake     chan struct{} // 1-buffered; nudges the writer
	dead     chan struct{}
	failOnce sync.Once
}

func (cn *conn) isDead() bool {
	select {
	case <-cn.dead:
		return true
	default:
		return false
	}
}

// fail poisons the connection: every pending and future call errors.
func (cn *conn) fail(err error) {
	cn.failOnce.Do(func() {
		cn.mu.Lock()
		cn.failed = true
		cn.failErr = err
		calls := cn.pending
		cn.pending = nil
		cn.queue = nil
		cn.mu.Unlock()
		close(cn.dead)
		cn.nc.Close()
		for _, cl := range calls {
			cl.err = &netError{err}
			cl.done <- struct{}{}
		}
	})
}

// enqueue registers the call and queues its frame in one lock
// acquisition, then nudges the writer.
func (cn *conn) enqueue(id uint64, op uint8, payload []byte, cl *call) error {
	cn.mu.Lock()
	if cn.failed {
		err := cn.failErr
		cn.mu.Unlock()
		return err
	}
	cn.pending[id] = cl
	cn.queue = append(cn.queue, wreq{id: id, op: op, payload: payload})
	cn.mu.Unlock()
	select {
	case cn.wake <- struct{}{}:
	default:
	}
	return nil
}

// takePending removes and returns the call for id (nil if cancelled
// or already delivered).
func (cn *conn) takePending(id uint64) *call {
	cn.mu.Lock()
	cl := cn.pending[id]
	delete(cn.pending, id)
	cn.mu.Unlock()
	return cl
}

// roundtrip sends one request (payload owned by the caller) and waits
// for its response, returning an owned response slice.
func (cn *conn) roundtrip(ctx context.Context, op uint8, payload []byte) ([]byte, error) {
	ctxDone := ctx.Done()
	if ctxDone != nil && ctx.Err() != nil {
		// Already cancelled: the select below would pick at random
		// between the cancellation and a reply that raced in, so the
		// request must not go on the wire at all.
		return nil, ctx.Err()
	}
	id := cn.ids.Add(1)
	cl := callPool.Get().(*call)
	cl.payload, cl.status, cl.err, cl.respLen = nil, 0, nil, 0
	if err := cn.enqueue(id, op, payload, cl); err != nil {
		callPool.Put(cl)
		return nil, &netError{err}
	}
	if ctxDone == nil {
		// No cancellation possible: skip the select machinery.
		<-cl.done
		return cl.finish()
	}
	select {
	case <-cl.done:
	case <-ctxDone:
		if cn.takePending(id) != nil {
			// Abandoned before delivery: the reader can no longer see
			// this call, so it is ours to reuse (the queued frame
			// references the caller's payload, not the call); its
			// response, if it ever arrives, is dropped by the id
			// lookup missing.
			callPool.Put(cl)
			return nil, ctx.Err()
		}
		// The reader already took the call: the result is in flight.
		<-cl.done
	}
	return cl.finish()
}

// finish extracts a delivered call's outcome as an owned payload or
// error and returns the call to the pool.
func (cl *call) finish() ([]byte, error) {
	if err := cl.err; err != nil {
		callPool.Put(cl)
		return nil, err
	}
	if cl.status != wire.StatusOK {
		err := wire.StatusError(cl.status, string(cl.respSlice()))
		callPool.Put(cl)
		return nil, err
	}
	payload := cl.ownedResp()
	callPool.Put(cl)
	return payload, nil
}

// roundtripPoint sends one point request already encoded in cl.req
// (length n) and decodes the response in place. It never pools cl:
// success and failure alike leave that to the caller. reuse reports
// whether cl is safe to pool afterwards; it is false when the frame
// may still be referenced by this connection (see the call doc
// comment): a context cancellation that left the frame possibly still
// queued, or a fail()-delivered completion — fail fires done after
// closing the socket but without synchronizing with the writer
// goroutine, which may still hold a swapped-out burst that reads
// cl.req while it drains onto the dead socket.
func (cn *conn) roundtripPoint(ctx context.Context, op uint8, cl *call, n int) (val uint64, ok, reuse bool, err error) {
	ctxDone := ctx.Done()
	if ctxDone != nil && ctx.Err() != nil {
		// Already cancelled (see roundtrip): nothing is sent and nothing
		// references cl.
		return 0, false, true, ctx.Err()
	}
	id := cn.ids.Add(1)
	cl.payload, cl.status, cl.err, cl.respLen = nil, 0, nil, 0
	if err := cn.enqueue(id, op, cl.req[:n], cl); err != nil {
		// Refused before entering the queue: nothing references cl.
		return 0, false, true, &netError{err}
	}
	if ctxDone == nil {
		<-cl.done
	} else {
		select {
		case <-cl.done:
		case <-ctxDone:
			if cn.takePending(id) != nil {
				return 0, false, false, ctx.Err()
			}
			<-cl.done
		}
	}
	if cl.err != nil {
		return 0, false, false, cl.err
	}
	if cl.status != wire.StatusOK {
		return 0, false, true, wire.StatusError(cl.status, string(cl.respSlice()))
	}
	val, ok, err = decodePoint(op, cl.respSlice())
	return val, ok, true, err
}

// wburstRetain bounds the writer burst buffer kept across bursts: a
// burst that ballooned past it (concurrent large batches) is dropped
// back to the configured size instead of pinning the high-water mark.
const wburstRetain = 256 << 10

// writeLoop writes queued frames in bursts: swap the whole queue out
// under the lock, append every frame into one owned buffer, and put
// the whole burst on the wire with a single Write — one syscall per
// burst, no intermediate bufio layer. This is what turns N concurrent
// callers into one pipelined burst — which the server's coalescing
// loop then turns into one ApplyBatch.
func (cn *conn) writeLoop() {
	var spare []wreq
	out := make([]byte, 0, cn.wbufCap)
	for {
		select {
		case <-cn.wake:
		case <-cn.dead:
			return
		}
		// Yield once before taking the queue, as the WAL committer does
		// before it steals a group: callers the reader has just woken
		// get to enqueue into this burst (see the package doc).
		runtime.Gosched()
		for {
			cn.mu.Lock()
			batch := cn.queue
			if len(batch) == 0 {
				cn.mu.Unlock()
				break
			}
			cn.queue = spare[:0]
			cn.mu.Unlock()
			for i := range batch {
				var err error
				out, err = wire.AppendFrame(out, batch[i].id, batch[i].op, batch[i].payload)
				if err != nil {
					cn.fail(err)
					return
				}
				batch[i].payload = nil
			}
			spare = batch
		}
		if len(out) > 0 {
			if _, err := cn.nc.Write(out); err != nil {
				cn.fail(err)
				return
			}
			if cap(out) > wburstRetain {
				out = make([]byte, 0, cn.wbufCap)
			} else {
				out = out[:0]
			}
		}
	}
}

// readLoop dispatches responses to their pending calls by id. The
// scratch buffer is sized so every point response (≤ 9 bytes payload)
// is read into it and copied to the call's own resp array — no
// allocation; anything larger misses the scratch, so ReadFrame
// freshly allocates it and the buffer is handed to the waiter
// outright, owned.
func (cn *conn) readLoop() {
	var scratch [16]byte
	for {
		id, status, payload, err := wire.ReadFrame(cn.br, scratch[:0])
		if err != nil {
			cn.fail(err)
			return
		}
		cl := cn.takePending(id)
		if cl == nil {
			continue // cancelled call; drop its response
		}
		if len(payload) <= len(cl.resp) {
			cl.respLen = uint8(copy(cl.resp[:], payload))
			cl.payload = nil
		} else {
			cl.payload = payload
		}
		cl.status = status
		cl.done <- struct{}{}
	}
}

// opName names an op code for error messages.
func opName(op uint8) string {
	switch op {
	case wire.OpPing:
		return "ping"
	case wire.OpSearch:
		return "search"
	case wire.OpInsert:
		return "insert"
	case wire.OpDelete:
		return "delete"
	case wire.OpUpsert:
		return "upsert"
	case wire.OpGetOrInsert:
		return "get-or-insert"
	case wire.OpCompareAndSwap:
		return "compare-and-swap"
	case wire.OpCompareAndDelete:
		return "compare-and-delete"
	case wire.OpScan:
		return "scan"
	case wire.OpBatch:
		return "batch"
	case wire.OpLen:
		return "len"
	case wire.OpCheckpoint:
		return "checkpoint"
	case wire.OpStats:
		return "stats"
	case wire.OpPromote:
		return "promote"
	case wire.OpMigrate:
		return "migrate"
	case wire.OpClusterMap:
		return "cluster-map"
	case wire.OpRoot:
		return "root"
	case wire.OpProve:
		return "prove"
	default:
		return fmt.Sprintf("op%d", op)
	}
}
