// Package spec is the benchmark's contract in code: the workload names,
// the end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each should move. BENCHMARK.json at
// the repository root states the same names; a test keeps the two equal.
// Names are permanent: a later change cites a claim as (metric, workload).
package spec

// Workload names one set of inputs and says why it exists.
type Workload struct{ Name, Why string }

// Workloads lists the four workloads in run order.
var Workloads = []Workload{
	{"mem-balanced", "the paper's experiment on the paper's tree, in memory: blink, node, locks, compress and reclaim do the work and wal, wire, server and storage none, so tree changes show here and codec changes must not"},
	{"net-readmostly", "the default serving path over loopback, Zipf keys: client, wire, server and ApplyBatchInto do the work and the tree is a fifth of an op, so codec and poll-loop changes show here, not on mem-balanced"},
	{"durable-batch", "write-only 32-op batches with fsync on and checkpoints: WAL group commit, the stripe lock and snap are in charge, so a tree change that helps reads and costs writes shows here beside mem-balanced"},
	{"disk-read", "the one data set larger than the program's own cache (pool = 10 % of the page file), read-mostly through the paged store: storage and the page codec do the work, wal and wire do none"},
}

// E2E is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may get worse before a change is rejected;
// 0 means any rise is a regression. Local, when set, is the reason the
// metric is not in BENCHMARK.json nor in the result line, so that the
// driver does not gate it; result.json, the summary, -compare and
// -repeat carry and judge it like the others.
type E2E struct {
	Name, Unit, Better string
	Bound              float64
	Local              string
	What               string
}

// readsZero is why the driver cannot gate a metric: its bound is a share
// of the parent's median.
const readsZero = "reads 0 on a healthy run, and the driver's contract gates no metric that can"

// EndToEnd lists the metrics every untraced run reports. The bounds are
// BENCHMARK.json's: one per metric, so each is set by the workload on
// which the metric repeats worst, at three times the spread of ten runs
// there or more (BASELINE.md has the spreads). A bound nearer the spread
// would reject an unchanged program: the medians of two sets of ten runs
// differ by about half the spread on their own. The timed metrics sit at
// the contract's cap for that reason; the box's noise, not the ISSUE's
// 8 to 10 %, sets them.
var EndToEnd = []E2E{
	{"setup_s", "s", "lower", 0.25, "", "open + bulk load + server and client start; median of the run's set-ups"},
	{"ops_per_s", "ops/s", "higher", 0.25, "", "operations completed in a slice of the timed window / its length (batched ops count one each); median of the four slices"},
	{"lat_p50_us", "us", "lower", 0.25, "", "caller-observed latency of one call (durable-batch: one 32-op batch to its fsync ack); median of the slices' medians"},
	{"lat_p99_us", "us", "lower", 0.25,
		"on durable-batch, where it sits on the knee between the fsync tail and the checkpoint stalls, its spread over ten runs was 11, 12, 31 and 35 % in four sets (BASELINE.md): above the contract's cap of 25 % in two, and BENCHMARK.json cannot un-gate one workload",
		"99th percentile of the same samples; median of the slices' 99th percentiles"},
	{"failed_frac", "ratio", "lower", 0, readsZero, "operations and final checks that ended in an unexpected error or a wrong value / operations attempted"},
	{"allocs_per_op", "count", "lower", 0.02, "", "runtime.MemStats.Mallocs over the window / ops, whole process"},
	{"alloc_bytes_per_op", "B", "lower", 0.03, "", "TotalAlloc over the window / ops"},
	{"heap_mb", "MB", "lower", 0.10, "", "HeapInuse after the window, after DrainCompression, CollectGarbage and runtime.GC"},
	{"disk_bytes_per_op", "B", "lower", 0.15, readsZero + " (0 on mem-balanced and net-readmostly)",
		"(WAL bytes + checkpoint bytes + pool write-backs × page size) / ops. On durable-batch three fifths of it are the checkpoints, whose number and size are fixed, so it moves against ops_per_s: hence 15 %, not the ISSUE's 3 %"},
}

// Driver lists the end-to-end metrics BENCHMARK.json names and the
// result line carries.
func Driver() []E2E {
	var ms []E2E
	for _, m := range EndToEnd {
		if m.Local == "" {
			ms = append(ms, m)
		}
	}
	return ms
}

// Layer is one per-layer metric. Source says how it is measured from
// outside: "rung" (one exported function in a single-goroutine loop),
// "window" (a delta of public counters across the run) or "samples" (the
// workload's own latency samples). Moves names the end-to-end metric and
// workload it should move.
type Layer struct {
	Name, Unit, Better string
	Source, Moves      string
}

const (
	movesMem  = "ops_per_s, lat_p50_us, allocs_per_op on mem-balanced; nothing on net-readmostly"
	movesDisk = "ops_per_s, lat_p99_us on disk-read"
	movesNet  = "ops_per_s, lat_p99_us on net-readmostly"
	movesDur  = "ops_per_s, lat_p50_us on durable-batch; zero elsewhere"
	movesHeap = "heap_mb, lat_p99_us on mem-balanced and durable-batch"
	movesRef  = "reference only"
)

// PerLayer lists the metrics every traced run reports.
var PerLayer = []Layer{
	{"node.memstore_get_ns", "ns", "lower", "rung", movesMem},
	{"node.memstore_put_ns", "ns", "lower", "rung", movesMem},
	{"node.clone_ns", "ns", "lower", "rung", movesMem},
	{"node.clone_allocs", "count", "lower", "rung", movesMem},
	{"node.leaf_find_ns", "ns", "lower", "rung", movesMem},
	{"node.insert_pair_ns", "ns", "lower", "rung", movesMem},
	{"node.encode_ns", "ns", "lower", "rung", movesDisk},
	{"node.decode_ns", "ns", "lower", "rung", movesDisk},
	{"node.paged_get_hit_ns", "ns", "lower", "rung", movesDisk},
	{"locks.lock_unlock_ns", "ns", "lower", "rung", "ops_per_s on mem-balanced (one pair per update)"},
	{"blink.search_ns", "ns", "lower", "rung", movesMem},
	{"blink.insert_ns", "ns", "lower", "rung", movesMem},
	{"blink.delete_ns", "ns", "lower", "rung", movesMem},
	{"blink.upsert_ns", "ns", "lower", "rung", movesMem + "; ops_per_s on durable-batch only through CPU left for grouping"},
	{"blink.search_allocs", "count", "lower", "rung", "allocs_per_op on mem-balanced"},
	{"blink.upsert_allocs", "count", "lower", "rung", "allocs_per_op on mem-balanced and durable-batch"},
	{"blink.link_hops_per_mop", "count", "lower", "window", "lat_p99_us on mem-balanced"},
	{"blink.restarts_per_mop", "count", "lower", "window", "lat_p99_us on mem-balanced"},
	{"blink.splits_per_kop", "count", "lower", "window", "lat_p99_us, allocs_per_op on mem-balanced"},
	{"blink.update_max_locks", "count", "lower", "window", "must equal 1 (Theorem 1) or the run fails"},
	{"blink.height", "count", "lower", "window", "lat_p50_us everywhere (one node read per level)"},
	{"compress.merges_per_kdel", "count", "higher", "window", movesHeap},
	{"compress.queue_depth_end", "count", "lower", "window", movesHeap},
	{"compress.mean_fill_end", "ratio", "higher", "window", movesHeap},
	{"compress.underfull_end", "count", "lower", "window", movesHeap},
	{"compress.max_locks", "count", "lower", "window", "must be at most 3 (Theorem 2) or the run fails"},
	{"reclaim.freed_pages", "count", "higher", "window", movesHeap},
	{"reclaim.limbo_end", "count", "lower", "window", movesHeap},
	{"shard.engine_upsert_ns", "ns", "lower", "rung", "ops_per_s on net-readmostly and durable-batch"},
	{"shard.router_search_ns", "ns", "lower", "rung", "ops_per_s on net-readmostly"},
	{"shard.applybatch_ns_per_op", "ns", "lower", "rung", "ops_per_s on net-readmostly and durable-batch"},
	{"shard.applybatch_allocs_per_op", "count", "lower", "rung", "allocs_per_op on net-readmostly and durable-batch"},
	{"shard.durable_upsert_nosync_ns", "ns", "lower", "rung", "ops_per_s on durable-batch (the logging cost apart from the sync)"},
	{"shard.balance_max_over_mean", "ratio", "lower", "window", "ops_per_s on net-readmostly and durable-batch"},
	{"wal.append_nosync_ns", "ns", "lower", "rung", movesDur},
	{"wal.fsync_us", "us", "lower", "rung", movesDur},
	{"wal.mean_group", "count", "higher", "window", movesDur},
	{"wal.syncs_per_s", "1/s", "higher", "window", movesDur},
	{"wal.bytes_per_op", "B", "lower", "window", "disk_bytes_per_op on durable-batch; zero elsewhere"},
	{"wal.replay_rec_per_s", "1/s", "higher", "window", "recovery time after the crash step on durable-batch"},
	{"snap.checkpoint_ms", "ms", "lower", "window", "lat_p99_us on durable-batch"},
	{"snap.checkpoint_bytes_per_pair", "B", "lower", "window", "disk_bytes_per_op on durable-batch"},
	{"storage.hit_rate", "ratio", "higher", "window", movesDisk},
	{"storage.evictions_per_kop", "count", "lower", "window", movesDisk},
	{"storage.writebacks_per_kop", "count", "lower", "window", "disk_bytes_per_op on disk-read"},
	{"storage.pinned_high_water", "count", "lower", "window", "heap_mb on disk-read"},
	{"storage.pin_hit_ns", "ns", "lower", "rung", movesDisk},
	{"storage.pin_miss_us", "us", "lower", "rung", movesDisk},
	{"storage.disk_bytes_per_op", "B", "lower", "window", "(WAL + checkpoint + pool write-back bytes) / ops: durable-batch and disk-read; zero on the other two"},
	{"wire.append_frame_ns", "ns", "lower", "rung", "ops_per_s on net-readmostly"},
	{"wire.read_frame_ns", "ns", "lower", "rung", "ops_per_s on net-readmostly"},
	{"wire.codec_allocs", "count", "lower", "rung", "allocs_per_op on net-readmostly"},
	{"server.reqs_per_poll", "count", "higher", "window", movesNet},
	{"server.poll_p50_us", "us", "lower", "window", movesNet},
	{"server.poll_p99_us", "us", "lower", "window", movesNet},
	{"server.bytes_in_per_op", "B", "lower", "window", movesNet},
	{"server.bytes_out_per_op", "B", "lower", "window", movesNet},
	{"server.proto_errors", "count", "lower", "window", "must stay 0"},
	{"client.rtt_d1_us", "us", "lower", "rung", "lat_p50_us on net-readmostly (the unqueued floor under it)"},
	{"client.rtt_d1_p99_us", "us", "lower", "rung", "lat_p99_us on net-readmostly"},
	{"client.batch32_us", "us", "lower", "rung", "ops_per_s on net-readmostly"},
	{"blinktree.search_p50_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.search_p99_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.insert_p50_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.insert_p99_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.delete_p50_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.delete_p99_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.upsert_p50_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"blinktree.upsert_p99_ns", "ns", "lower", "samples", "splits the blended lat_* by kind"},
	{"baseline.coarse_ops_per_s", "ops/s", "higher", "rung", movesRef},
	{"baseline.lockcoupling_ops_per_s", "ops/s", "higher", "rung", movesRef},
	{"baseline.lehmanyao_ops_per_s", "ops/s", "higher", "rung", movesRef},
	{"baseline.sagiv_over_coarse", "ratio", "higher", "rung", "reference only: the ROADMAP target sagiv ≥ coarse is read here"},
	{"bench.loopback_echo_us", "us", "lower", "rung", "none: the kernel's and the scheduler's share of client.rtt_d1_us, a bare frame echoed over loopback"},
	{"bench.timer_pair_ns", "ns", "lower", "rung", "none: the cost of one timed sample"},
	{"bench.trace_overhead_frac", "ratio", "lower", "window", "none: 1 − traced ops_per_s / untraced ops_per_s of the same run"},
	{"bench.spans_written", "count", "higher", "window", "none"},
}
