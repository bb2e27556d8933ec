package suite

import (
	"bufio"
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"blinktree"
	"blinktree/bench/gen"
	"blinktree/bench/report"
	"blinktree/bench/spec"
	"blinktree/internal/base"
)

func smoke(t *testing.T, workload string, trace bool) *report.Cell {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // the disk-native page file
	var log bytes.Buffer
	cell, err := RunCell(Config{Workload: workload, Seed: 3, Seconds: 0.2, Trace: trace, OutDir: dir, Keys: 20000, Log: &log})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !cell.Correct || cell.Failed != 0 || cell.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d notes=%q\n%s", cell.Correct, cell.Failed, cell.Attempted, cell.Notes, log.String())
	}
	if trace {
		f, err := os.Open(filepath.Join(dir, "trace-"+workload+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		lines := 0
		for sc := bufio.NewScanner(f); sc.Scan(); {
			lines++
		}
		if v, _ := cell.Get("bench.spans_written"); lines == 0 || float64(lines) != v {
			t.Errorf("trace file has %d lines, bench.spans_written says %v", lines, v)
		}
	}
	return cell
}

// Every workload's untraced smoke runs its set-ups, its oracle-checked
// window and its final audit, and reports every end-to-end metric: zero
// only where the metric can be, and the disk bytes only where the
// workload writes to storage.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cell := smoke(t, w.Name, false)
			if len(cell.Metrics) != len(spec.EndToEnd) {
				t.Fatalf("%d metrics, want %d", len(cell.Metrics), len(spec.EndToEnd))
			}
			for i, m := range spec.EndToEnd {
				got := cell.Metrics[i]
				canBeZero := m.Name == "failed_frac" || m.Name == "disk_bytes_per_op"
				if got.Name != m.Name || got.Unit != m.Unit || got.Value < 0 || got.Value == 0 && !canBeZero {
					t.Errorf("metric %d is %+v, want a positive %s in %s", i, got, m.Name, m.Unit)
				}
			}
			disk, _ := cell.Get("disk_bytes_per_op")
			if writes := w.Name == "durable-batch" || w.Name == "disk-read"; writes != (disk > 0) {
				t.Errorf("disk_bytes_per_op is %v", disk)
			}
			if f, _ := cell.Get("failed_frac"); f != 0 {
				t.Errorf("failed_frac is %v on a run that counted no failure", f)
			}
		})
	}
}

// The traced durable-batch smoke covers what the others do not: the
// checkpointer's spans, the crash and re-open, the ladder and the ledger.
func TestSmokeTracedDurable(t *testing.T) {
	cell := smoke(t, "durable-batch", true)
	if len(cell.Metrics) != len(spec.PerLayer) {
		t.Fatalf("%d metrics, want %d", len(cell.Metrics), len(spec.PerLayer))
	}
	for _, want := range []struct {
		name    string
		vacuous bool
	}{
		{"wal.mean_group", false}, {"wal.replay_rec_per_s", false}, {"snap.checkpoint_ms", false},
		{"blink.update_max_locks", false}, {"node.memstore_get_ns", false}, {"client.rtt_d1_us", false},
		{"storage.hit_rate", true}, {"server.reqs_per_poll", true}, {"blinktree.search_p50_ns", true},
	} {
		for _, m := range cell.Metrics {
			if m.Name == want.name && (m.Vacuous != want.vacuous || !m.Vacuous && m.Value <= 0) {
				t.Errorf("%+v: want vacuous=%v", m, want.vacuous)
			}
		}
	}
	if v, _ := cell.Get("blink.update_max_locks"); v != 1 {
		t.Errorf("an update held %v locks", v)
	}
}

// The ladder's insert and delete rungs leave the tree as loaded whatever
// number of keys the insert rung reached, so the primitives that follow
// may take any loaded key plus one for absent.
func TestLadderLeavesTheTreeAsLoaded(t *testing.T) {
	cfg := Config{Seed: 5, Seconds: 0.1, Keys: 20000, OutDir: t.TempDir()}
	tr := &tracer{origin: time.Now()}
	for i := 0; i < 20; i++ {
		l := &ladder{cfg: cfg, tr: tr, ring: tr.ring(1, 256), rep: time.Duration(100+37*i) * time.Microsecond,
			rng: rand.New(rand.NewPCG(uint64(i), 1)), ns: map[string]float64{}, spanOf: map[string]uint64{},
			shard0: newPopulation(uint64(cfg.Keys), 1, 1, 1<<40)}
		if err := l.blinkAndNode(""); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

// The oracle is exact: a reply that differs from it, and a stored pair
// that differs from it, are both counted.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	pop := memPopulation(1000)
	tr, err := blinktree.Open(blinktree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.BulkLoad(pop.pairs(), 0.7); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if n := pop.audit(&log, "t", tr.Check, tr.Len(), tr.All()); n != 0 {
		t.Fatalf("a freshly loaded tree fails %d checks: %s", n, log.String())
	}
	if _, _, err := tr.Upsert(10, 999); err != nil { // a write the oracle never saw
		t.Fatal(err)
	}
	if err := tr.Delete(20); err != nil { // a loss
		t.Fatal(err)
	}
	if n := pop.audit(&log, "t", tr.Check, tr.Len(), tr.All()); n < 2 {
		t.Errorf("audit counted %d failures after a phantom value and a lost key", n)
	}

	s, err := gen.NewStream(1, 0, pop.perCaller(1), gen.Mix{gen.Search: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lie := func(gen.Kind, base.Key, base.Value) (base.Value, bool, error) { return 12345, false, nil }
	c := &pointCaller{pop: pop, stream: s, n: 1, do: lie}
	failed := uint64(0)
	for i := 0; i < 100; i++ {
		c.next()
		c.call()
		failed += c.check()
	}
	if failed != 100 {
		t.Errorf("%d of 100 wrong replies were caught", failed)
	}
}

// Callers own disjoint slots, every caller sees present and absent slots
// in the population's proportion, and the slots stay inside the space.
func TestOwnershipIsDisjointAndBalanced(t *testing.T) {
	pop := newPopulation(2400, 4, 3, 1)
	for _, n := range []int{1, 2, 3, 4} {
		seen := map[uint64]int{}
		for c := 0; c < n; c++ {
			present := 0
			for i := uint64(0); i < pop.perCaller(n); i++ {
				s := pop.slot(c, n, i)
				if s >= pop.slots {
					t.Fatalf("n=%d caller %d index %d → slot %d outside %d", n, c, i, s, pop.slots)
				}
				if prev, dup := seen[s]; dup {
					t.Fatalf("n=%d: slot %d owned by callers %d and %d", n, s, prev, c)
				}
				seen[s] = c
				if pop.oracle[s] != 0 {
					present++
				}
			}
			if got := float64(present) / float64(pop.perCaller(n)); got != 0.75 {
				t.Errorf("n=%d caller %d: %.3f of its slots start present, want 0.75", n, c, got)
			}
		}
	}
}
