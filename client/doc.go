// Package client is the Go client for a blinktree network server
// (internal/server, cmd/blinkserver). It speaks the length-prefixed
// binary protocol specified in docs/protocol.md and mirrors the
// blinktree.Index surface over the wire: point operations, the atomic
// conditional writes, bounded scan pages, shard-parallel batches,
// Len, Stats and Checkpoint.
//
// The client is built for pipelining. A Client holds a small pool of
// connections (Options.Conns); each connection multiplexes any number
// of concurrent calls onto one wire stream — a writer goroutine
// gathers whatever calls are queued and writes them as one burst, a
// reader goroutine matches responses to calls by request id. So N
// goroutines calling Search/Upsert concurrently cost far fewer
// syscalls than N round trips, and the server coalesces the burst
// into a single shard-parallel batch (one WAL group commit per
// touched shard on a durable server). Throughput therefore scales
// with pipeline depth (server.reqs_per_poll on net-readmostly).
//
// The writer yields the processor once after each wake-up, before it
// takes the queue — the move internal/wal's committer makes before it
// steals a commit group. A burst of responses wakes the callers one
// after another, and the first to enqueue nudges the writer; without
// the yield the writer sends that one frame while the callers woken
// behind it are still runnable. On BenchmarkNetReadMostly at two Ps
// (32 callers, two connections) that was 1.04–1.05 frames per Write;
// with the yield it is 6.4–6.8, and ns/op halves. TestWriterCoalesces
// holds it at ≥ 3.
//
// Semantics across the wire:
//
//   - Sentinel errors survive: a missing key is blinktree.ErrNotFound
//     via errors.Is, a duplicate insert blinktree.ErrDuplicate.
//   - Every call takes a context; cancellation abandons the call
//     (the response, if it arrives, is discarded) without disturbing
//     other calls on the connection.
//   - Idempotent reads (Search, Scan, Len, Stats, Ping) are retried
//     once on a fresh connection after a network failure
//     (Options.RetryReads). Mutations are never retried: a lost
//     response does not prove a lost write, and the conditional
//     surface (CompareAndSwap / GetOrInsert) is the right tool for
//     at-most-once semantics over an unreliable link.
//   - Requests pipelined concurrently may execute in any relative
//     order. A caller that needs op B to observe op A must wait for
//     A's response before issuing B (per-call ordering is preserved
//     by waiting, exactly like a local call).
//   - With Options.ReplicaAddr set, idempotent reads are served by a
//     read replica (falling back to the primary on transport
//     failure) while mutations always go to the primary. Replication
//     is asynchronous, so replica reads may lag acknowledged writes.
//     Promote turns a follower writable after its primary dies.
package client
