package server

import (
	"fmt"
	"net"
	"net/http"
	"time"
)

// startHTTP binds the health/metrics listener and serves it in the
// background. Endpoints:
//
//	/healthz  200 {"status":"ok"} while serving, 503 while draining
//	/metrics  Prometheus text exposition of the server counters and
//	          the per-shard routing stats (cheap: no occupancy walk)
func (s *Server) startHTTP() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return err
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // ends when the listener closes
	return nil
}

// HTTPAddr returns the bound health/metrics address, or nil when
// Config.HTTPAddr was empty.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.drain.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := &s.Metrics
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP blinkserver_%s %s\n# TYPE blinkserver_%s counter\nblinkserver_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP blinkserver_%s %s\n# TYPE blinkserver_%s gauge\nblinkserver_%s %d\n",
			name, help, name, name, v)
	}
	counter("connections_accepted_total", "TCP connections accepted", m.Accepted.Load())
	gauge("connections_active", "TCP connections currently open", m.Active.Load())
	counter("polls_total", "gather-execute-respond cycles", m.Polls.Load())
	counter("requests_total", "requests served", m.Requests.Load())
	counter("batch_ops_total", "operations executed through ApplyBatch", m.BatchOps.Load())
	counter("scan_pages_total", "scan pages served", m.Scans.Load())
	counter("protocol_errors_total", "malformed frames and decode failures", m.Errors.Load())
	counter("conn_drops_total", "connections ended by error", m.ConnDrops.Load())
	counter("bytes_in_total", "request bytes read", m.BytesIn.Load())
	counter("bytes_out_total", "response bytes written", m.BytesOut.Load())
	fmt.Fprintf(w, "# HELP blinkserver_poll_latency_seconds execute+respond latency per poll\n")
	fmt.Fprintf(w, "# TYPE blinkserver_poll_latency_seconds summary\n")
	fmt.Fprintf(w, "blinkserver_poll_latency_seconds{quantile=\"0.5\"} %g\n", m.PollLat.Quantile(0.5).Seconds())
	fmt.Fprintf(w, "blinkserver_poll_latency_seconds{quantile=\"0.99\"} %g\n", m.PollLat.Quantile(0.99).Seconds())
	fmt.Fprintf(w, "blinkserver_poll_latency_seconds_count %d\n", m.PollLat.Count())

	// Per-shard routing balance, from the router's cheap stats.
	fmt.Fprintf(w, "# HELP blinkshard_pairs stored pairs per shard\n# TYPE blinkshard_pairs gauge\n")
	ss := s.r.ShardStats()
	for _, st := range ss {
		fmt.Fprintf(w, "blinkshard_pairs{shard=\"%d\"} %d\n", st.Shard, st.Len)
	}
	fmt.Fprintf(w, "# HELP blinkshard_routed_ops_total point+scan ops routed per shard\n# TYPE blinkshard_routed_ops_total counter\n")
	for _, st := range ss {
		routed := st.Searches + st.Inserts + st.Deletes + st.Upserts + st.Updates + st.Cas + st.Scans + st.BatchOps
		fmt.Fprintf(w, "blinkshard_routed_ops_total{shard=\"%d\"} %d\n", st.Shard, routed)
	}

	// Buffer pool behaviour per shard, when the index is disk-native
	// (or otherwise file-backed): demand hits/misses, eviction churn,
	// read-ahead, and the pin discipline's high-water.
	pooled := false
	for _, st := range ss {
		if st.Pooled {
			pooled = true
			break
		}
	}
	if pooled {
		poolCounter := func(name, help string, get func(shard int) uint64) {
			fmt.Fprintf(w, "# HELP blinkpool_%s %s\n# TYPE blinkpool_%s counter\n", name, help, name)
			for _, st := range ss {
				fmt.Fprintf(w, "blinkpool_%s{shard=\"%d\"} %d\n", name, st.Shard, get(st.Shard))
			}
		}
		poolGauge := func(name, help string, get func(shard int) int) {
			fmt.Fprintf(w, "# HELP blinkpool_%s %s\n# TYPE blinkpool_%s gauge\n", name, help, name)
			for _, st := range ss {
				fmt.Fprintf(w, "blinkpool_%s{shard=\"%d\"} %d\n", name, st.Shard, get(st.Shard))
			}
		}
		poolCounter("hits_total", "buffer pool demand hits", func(i int) uint64 { return ss[i].Pool.Hits })
		poolCounter("misses_total", "buffer pool demand misses", func(i int) uint64 { return ss[i].Pool.Misses })
		poolCounter("evictions_total", "frames evicted", func(i int) uint64 { return ss[i].Pool.Evictions })
		poolCounter("writebacks_total", "dirty frames written back", func(i int) uint64 { return ss[i].Pool.Writebacks })
		poolCounter("prefetches_total", "read-ahead hints issued", func(i int) uint64 { return ss[i].Pool.Prefetches })
		poolCounter("prefetch_loads_total", "pages faulted in by read-ahead", func(i int) uint64 { return ss[i].Pool.PrefetchLoads })
		poolGauge("resident_frames", "pages currently resident", func(i int) int { return ss[i].Pool.Resident })
		poolGauge("capacity_frames", "frame budget", func(i int) int { return ss[i].Pool.Capacity })
		poolGauge("pinned_frames", "frames currently pinned", func(i int) int { return ss[i].Pool.Pinned })
		poolGauge("pinned_high_water", "most frames the pool has seen pinned at once", func(i int) int { return ss[i].Pool.PinnedHighWater })
	}

	// Replication: this server's role plus one lag gauge per live
	// follower feed (records shipped but not yet acknowledged).
	ro := int64(0)
	if s.readOnly.Load() {
		ro = 1
	}
	gauge("read_only", "1 while this server is a read-only follower", ro)
	feeds := s.feeds.Snapshot()
	gauge("followers", "live follower feeds", int64(len(feeds)))
	fmt.Fprintf(w, "# HELP blinkrepl_shipped_records_total records shipped per follower\n# TYPE blinkrepl_shipped_records_total counter\n")
	for _, fs := range feeds {
		fmt.Fprintf(w, "blinkrepl_shipped_records_total{follower=%q} %d\n", fs.Remote, fs.Shipped)
	}
	fmt.Fprintf(w, "# HELP blinkrepl_lag_records records shipped but not yet acknowledged, per follower\n# TYPE blinkrepl_lag_records gauge\n")
	for _, fs := range feeds {
		fmt.Fprintf(w, "blinkrepl_lag_records{follower=%q} %d\n", fs.Remote, fs.Lag())
	}
	fmt.Fprintf(w, "# HELP blinkrepl_resets_total snapshot bootstraps served, per follower\n# TYPE blinkrepl_resets_total counter\n")
	for _, fs := range feeds {
		fmt.Fprintf(w, "blinkrepl_resets_total{follower=%q} %d\n", fs.Remote, fs.Resets)
	}

	// Integrity: whether state-root hashing is on, how much rehash
	// work the background hasher has done, and how many sealed roots
	// this primary has published per follower feed.
	verified := int64(0)
	if s.r.Verified() {
		verified = 1
	}
	fmt.Fprintf(w, "# HELP blinkverify_enabled 1 while the integrity layer (state root hashing) is on\n# TYPE blinkverify_enabled gauge\nblinkverify_enabled %d\n", verified)
	if verified == 1 {
		if rs, err := s.r.Stats(); err == nil {
			fmt.Fprintf(w, "# HELP blinkverify_rehashes_total dirty leaf buckets re-hashed\n# TYPE blinkverify_rehashes_total counter\nblinkverify_rehashes_total %d\n", rs.VerifyRehashes)
		}
		fmt.Fprintf(w, "# HELP blinkverify_roots_published_total sealed state roots published, per follower\n# TYPE blinkverify_roots_published_total counter\n")
		for _, fs := range feeds {
			fmt.Fprintf(w, "blinkverify_roots_published_total{follower=%q} %d\n", fs.Remote, fs.Roots)
		}
	}

	// Cluster: the ownership map and live-migration progress.
	if cs, ok := s.ClusterStats(); ok {
		cgauge := func(name, help string, v int64) {
			fmt.Fprintf(w, "# HELP blinkcluster_%s %s\n# TYPE blinkcluster_%s gauge\nblinkcluster_%s %d\n",
				name, help, name, name, v)
		}
		ccounter := func(name, help string, v uint64) {
			fmt.Fprintf(w, "# HELP blinkcluster_%s %s\n# TYPE blinkcluster_%s counter\nblinkcluster_%s %d\n",
				name, help, name, name, v)
		}
		cgauge("map_version", "cluster map version", int64(cs.Version))
		cgauge("ranges_owned", "ranges served by this member", int64(cs.Owned))
		cgauge("ranges_fenced", "ranges frozen mid-handoff", int64(cs.Fenced))
		cgauge("migration_shard", "range being migrated out (-1 idle)", cs.MigratingShard)
		cgauge("migration_phase", "0 idle, 1 snapshot, 2 chase, 3 fence", int64(cs.Phase))
		ccounter("migration_records_shipped_total", "records shipped to migration targets", cs.Shipped)
		ccounter("migration_records_ingested_total", "records applied from migration sources", cs.Ingested)
		ccounter("migrations_out_total", "completed outbound handoffs", cs.Migrations)
		ccounter("migrations_in_total", "completed inbound takeovers", cs.Takeovers)
		ccounter("redirects_total", "ops refused with StatusWrongShard", cs.Redirects)
		fmt.Fprintf(w, "# HELP blinkcluster_fence_seconds duration of the last write fence\n# TYPE blinkcluster_fence_seconds gauge\nblinkcluster_fence_seconds %g\n",
			cs.LastFence.Seconds())
		fmt.Fprintf(w, "# HELP blinkcluster_fence_seconds_total cumulative write-fence time\n# TYPE blinkcluster_fence_seconds_total counter\nblinkcluster_fence_seconds_total %g\n",
			cs.FenceTotal.Seconds())
	}
}
