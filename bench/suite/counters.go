package suite

import (
	"fmt"
	"slices"
	"time"

	"blinktree/bench/report"
	"blinktree/internal/shard"
	"blinktree/internal/storage"
)

// counters is one reading of the program's public counters: Stats(),
// ShardStats(), server.Metrics and the checkpoints the benchmark itself
// asked for. Two readings bracket a run; the per-layer "window" metrics
// are their difference.
type counters struct {
	stats  shard.Stats
	shards []shard.ShardStat // nil for a single tree

	served                           bool // a server is in the path
	polls, requests                  uint64
	bytesIn, bytesOut, protoErrors   uint64
	pollP50, pollP99                 time.Duration
	checkpoints                      []time.Duration
	checkpointBytes, checkpointPairs uint64
	recovery                         recovery
}

// recovery is what re-opening after the crash step replayed, and how long
// the re-open took, checkpoint load included.
type recovery struct {
	records uint64
	seconds float64
}

// violations lists the paper's lock-footprint theorems the run broke.
func (c counters) violations() []string {
	var v []string
	t := c.stats.Tree
	for _, f := range []struct {
		op   string
		held uint64
	}{{"insert", t.InsertLocks.MaxHeld}, {"delete", t.DeleteLocks.MaxHeld}, {"conditional write", t.CondLocks.MaxHeld}} {
		if f.held > 1 {
			v = append(v, fmt.Sprintf("Theorem 1 violated: one %s held %d locks at once", f.op, f.held))
		}
	}
	if c.stats.CompressorMaxLocks > 3 {
		v = append(v, fmt.Sprintf("Theorem 2 violated: compression held %d locks at once", c.stats.CompressorMaxLocks))
	}
	if c.protoErrors > 0 {
		v = append(v, fmt.Sprintf("the server counted %d protocol errors", c.protoErrors))
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowMetrics turns two counter readings into the per-layer window
// metrics. A metric whose underlying event count is zero is vacuous: the
// run says nothing about it.
func windowMetrics(a, b counters, ops uint64, seconds float64) []report.Metric {
	fOps := float64(ops)
	ta, tb := a.stats.Tree, b.stats.Tree
	var ms []report.Metric
	add := func(name string, v float64, events uint64) {
		ms = append(ms, report.Metric{Name: name, Value: v, Samples: events, Vacuous: events == 0})
	}
	// gauge is a reading, not a count of events: never vacuous.
	gauge := func(name string, v float64) {
		ms = append(ms, report.Metric{Name: name, Value: v, Samples: 1})
	}

	hops := tb.LinkHops + tb.OutlinkHops - ta.LinkHops - ta.OutlinkHops
	add("blink.link_hops_per_mop", 1e6*ratio(float64(hops), fOps), hops)
	restarts := tb.Restarts - ta.Restarts
	add("blink.restarts_per_mop", 1e6*ratio(float64(restarts), fOps), restarts)
	splits := tb.Splits - ta.Splits
	add("blink.splits_per_kop", 1e3*ratio(float64(splits), fOps), splits)
	updates := tb.InsertLocks.Ops + tb.DeleteLocks.Ops + tb.CondLocks.Ops
	add("blink.update_max_locks", float64(max(tb.InsertLocks.MaxHeld, tb.DeleteLocks.MaxHeld, tb.CondLocks.MaxHeld)), updates)
	gauge("blink.height", float64(b.stats.Occupancy.Height))

	merges := b.stats.Merges + b.stats.Redist - a.stats.Merges - a.stats.Redist
	add("compress.merges_per_kdel", 1e3*ratio(float64(merges), float64(tb.Deletes-ta.Deletes)), merges)
	gauge("compress.queue_depth_end", float64(b.stats.QueueDepth))
	gauge("compress.mean_fill_end", b.stats.Occupancy.MeanFill)
	gauge("compress.underfull_end", float64(b.stats.Occupancy.Underfull))
	add("compress.max_locks", float64(b.stats.CompressorMaxLocks), merges)
	freed := b.stats.Reclaim.Freed - a.stats.Reclaim.Freed
	add("reclaim.freed_pages", float64(freed), freed)
	gauge("reclaim.limbo_end", float64(b.stats.Reclaim.Limbo))

	var sum, most float64
	for i := range b.shards {
		n := float64(shardOps(b.shards[i]) - shardOps(a.shards[i]))
		sum += n
		most = max(most, n)
	}
	add("shard.balance_max_over_mean", ratio(most*float64(len(b.shards)), sum), uint64(sum))

	wa, wb := a.stats.WAL, b.stats.WAL
	recs, syncs := wb.Records-wa.Records, wb.Syncs-wa.Syncs
	add("wal.mean_group", ratio(float64(recs), float64(syncs)), syncs)
	add("wal.syncs_per_s", ratio(float64(syncs), seconds), syncs)
	add("wal.bytes_per_op", ratio(float64(wb.Bytes-wa.Bytes), fOps), wb.Bytes-wa.Bytes)
	add("wal.replay_rec_per_s", ratio(float64(b.recovery.records), b.recovery.seconds), b.recovery.records)

	var ckptMS float64
	if n := len(b.checkpoints); n > 0 {
		d := slices.Sorted(slices.Values(b.checkpoints))
		ckptMS = float64(d[n/2]) / 1e6
	}
	add("snap.checkpoint_ms", ckptMS, uint64(len(b.checkpoints)))
	add("snap.checkpoint_bytes_per_pair", ratio(float64(b.checkpointBytes), float64(b.checkpointPairs)), b.checkpointPairs)

	pa, pb := a.stats.Pool, b.stats.Pool
	lookups := pb.Hits + pb.Misses - pa.Hits - pa.Misses
	add("storage.hit_rate", ratio(float64(pb.Hits-pa.Hits), float64(lookups)), lookups)
	add("storage.evictions_per_kop", 1e3*ratio(float64(pb.Evictions-pa.Evictions), fOps), pb.Evictions-pa.Evictions)
	wbacks := pb.Writebacks - pa.Writebacks
	add("storage.writebacks_per_kop", 1e3*ratio(float64(wbacks), fOps), wbacks)
	add("storage.pinned_high_water", float64(pb.PinnedHighWater), lookups)
	disk := diskBytes(a, b)
	add("storage.disk_bytes_per_op", ratio(float64(disk), fOps), disk)

	polls := b.polls - a.polls
	add("server.reqs_per_poll", ratio(float64(b.requests-a.requests), float64(polls)), polls)
	add("server.poll_p50_us", float64(b.pollP50)/1e3, polls)
	add("server.poll_p99_us", float64(b.pollP99)/1e3, polls)
	add("server.bytes_in_per_op", ratio(float64(b.bytesIn-a.bytesIn), fOps), b.bytesIn-a.bytesIn)
	add("server.bytes_out_per_op", ratio(float64(b.bytesOut-a.bytesOut), fOps), b.bytesOut-a.bytesOut)
	ms = append(ms, report.Metric{Name: "server.proto_errors", Value: float64(b.protoErrors - a.protoErrors), Samples: polls, Vacuous: !b.served})
	return ms
}

// diskBytes is what the program wrote to storage between two readings:
// log bytes, checkpoint files and the pool's write-backs.
func diskBytes(a, b counters) uint64 {
	return b.stats.WAL.Bytes - a.stats.WAL.Bytes + b.checkpointBytes - a.checkpointBytes +
		(b.stats.Pool.Writebacks-a.stats.Pool.Writebacks)*storage.DefaultPageSize
}

func shardOps(s shard.ShardStat) uint64 {
	return s.Searches + s.Inserts + s.Deletes + s.Upserts + s.Updates + s.Cas + s.BatchOps
}
