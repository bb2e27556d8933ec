// Package server turns a sharded blinktree engine into a network
// service: a TCP front-end speaking the length-prefixed binary
// protocol of internal/wire (specified in docs/protocol.md), plus an
// HTTP listener for /healthz and /metrics.
//
// The design premise is that network batching and the engine's
// batching are the same shape. Clients pipeline requests — many
// goroutines multiplexed onto one connection by the client package —
// and the server's per-connection poll loop gathers every request
// that arrives within a short coalescing window (Config.Coalesce,
// default 200µs, bounded by Config.MaxBatch requests and
// Config.MaxInflight bytes) into ONE shard.Router.ApplyBatch call.
// ApplyBatch fans the group out shard-parallel, and on a durable
// index each touched shard commits the whole group with a single WAL
// fsync. So the deeper clients pipeline, the fewer descents, lock
// acquisitions and fsyncs each operation costs — the same
// amortization Sagiv's design applies to structure modification,
// applied at the wire.
//
// Request/response framing is id-matched: the server may complete
// requests in any order, and a poll's responses are written with one
// buffered flush. Scans are served in bounded pages (wire.MaxScanLimit)
// so one request can never hold a connection or the response buffer
// hostage; Checkpoint and Stats execute inline on the connection's
// goroutine.
//
// Lock discipline inherited from the engine (see ARCHITECTURE.md):
// the server adds no locks around tree operations — searches stay
// lock-free, updates lock at most one node per shard, and the only
// server-side synchronization is each connection's private state plus
// the accept bookkeeping.
//
// Shutdown is graceful by default: Close stops accepting, lets every
// connection finish the poll it is executing (responses for accepted
// requests are flushed), and force-closes stragglers after
// Config.DrainTimeout.
//
// Replication rides the same front-end. A durable server accepts
// OpFollow handshakes and hands those connections to internal/repl
// feeds (WAL shipping with ack-based backpressure; lag surfaces on
// /metrics). Started with Config.ReadOnly, the server is a follower:
// mutations answer StatusReadOnly while reads serve normally, until
// an OpPromote request runs Config.OnPromote and flips it writable —
// the failover path cmd/blinkserver wires to a repl.Follower.
//
// The package deliberately depends on shard.Router, not on the public
// facade, so the facade, the tests and the benchmarks can all embed
// a Server without an import cycle. cmd/blinkserver is the thin
// binary around it; the public client lives in the client package.
package server
