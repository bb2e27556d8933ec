// Package suite runs the benchmark's cells. A cell is one workload, run
// once: set-up (several times, for a steady setup_s), an untimed warm-up,
// the timed window in four slices, the correctness checks, and — in a
// traced cell, whose even slices wrap every call in spans — the ladder.
//
// All load comes from this process, closed loop: every caller waits for
// its reply before it sends the next operation. The callers are either
// in-process workers or handlers sharing a pipelined client; a spin-paced
// open-loop generator would take one of two cores and measure the pacer.
package suite

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/bench/gen"
	"blinktree/bench/hist"
	"blinktree/bench/report"
	"blinktree/bench/span"
	"blinktree/bench/spec"
)

// Config selects and sizes one cell.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64 // length of the timed window
	Trace    bool
	OutDir   string // trace files, WAL and page files; created if missing
	// Keys is the size of the loaded data set. The benchmark runs at
	// DefaultKeys; the smoke tests shrink it.
	Keys int
	Log  io.Writer // progress and the human-readable tables
}

// DefaultKeys is the resident data set of every workload.
const DefaultKeys = 1_000_000

// Workers is W, the number of in-process load goroutines and the
// GOMAXPROCS the benchmark runs at.
func Workers() int { return min(runtime.NumCPU(), 4) }

const (
	batchSize   = 32   // ops per durable-batch call
	netCallers  = 32   // goroutines sharing the client on net-readmostly
	inProcEvery = 16   // in-process workloads time every 16th call
	warmupShare = 0.15 // warm-up length as a share of the window (3 s of 20 s)
	// An untraced cell sets up at least minSets times, and goes on, up to
	// maxSets, while the set-ups so far took under setupBudget: a 50 ms
	// set-up needs more samples than a 1.5 s one for a steady median.
	minSets, maxSets = 3, 21
	setupBudget      = 2500 * time.Millisecond
	ringSpans        = 1 << 18           // spans kept per traced cell, shared out among the callers
	classBatch       = int(gen.NumKinds) // latency class of a durable-batch call
	numClasses       = classBatch + 1
)

// A workload builds instances; an instance is one opened, loaded system.
type workload interface {
	// setup opens and loads the system: what setup_s times.
	setup() (instance, error)
}

type instance interface {
	callers() int
	sampleEvery() int
	// newCaller returns caller c's loop body. Callers own disjoint keys,
	// so each checks every reply against an exact oracle.
	newCaller(c int) (caller, error)
	// background runs beside the callers from the start of the timed
	// window until stop closes (durable-batch checkpoints); nil if none.
	background() func(stop <-chan struct{}, tr *tracer)
	counters() (counters, error)
	// quiesce settles background work so that heap_mb is memory per
	// resident data set.
	quiesce() error
	// verify checks the final state against the oracle and returns how
	// many checks failed and, if it crashed and recovered the system, what
	// recovery replayed.
	verify(log io.Writer) (failed uint64, rec recovery, err error)
	close() error
}

// caller is one closed-loop client: next generates the operation, call
// makes the one call into the system (the interval lat_* times), check
// compares the reply with the oracle and returns how many operations
// failed. ops is the operations one call carries.
type caller interface {
	next() (class int)
	call()
	check() (failed uint64)
	ops() uint64
	spanKind() uint16
}

// The window is cut into slices of equal length. The rate and latency
// metrics are medians over the slices, so a stall that falls in one slice
// (another tenant on the box, a long collection) does not move them; a
// box that is slower for a whole run still does (BASELINE.md). A traced
// cell traces the even slices: whatever drifts over the window (a
// cache warming, a log growing) then lands in both halves of the overhead
// figure. Phase 0 is the warm-up, phase p the p-th slice.
const (
	numSlices       = 4
	phWarm    int32 = 0
	phStop    int32 = numSlices + 1
	numPhases       = numSlices + 1
)

// tracedPhase reports whether a traced cell records spans in phase p.
func tracedPhase(p int32) bool { return p != phWarm && p%2 == 0 }

// callerState is what one caller goroutine accumulates; the controller
// reads it after the goroutine has stopped.
type callerState struct {
	ops, failed [numPhases]uint64
	lat         [numPhases][numClasses]hist.H
	ring        *span.Ring
	_           [64]byte // keep neighbouring callers off one cache line
}

// tracer hands out rings and the run's clock.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	rings  []*span.Ring
	kinds  []span.Kind // spanKinds, then one per ladder rung
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) ring(worker, capacity int) *span.Ring {
	r := span.NewRing(worker, capacity)
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// The span kinds the benchmark records; the index is Span.Kind.
var spanKinds = []span.Kind{
	kindOp:         {Name: "bench.op", Layer: "bench"},
	kindTree:       {Name: "blinktree.call", Layer: "blinktree"},
	kindClient:     {Name: "client.call", Layer: "client"},
	kindBatch:      {Name: "shard.applybatch", Layer: "shard"},
	kindCheckpoint: {Name: "snap.checkpoint", Layer: "snap"},
}

const (
	kindOp uint16 = iota
	kindTree
	kindClient
	kindBatch
	kindCheckpoint
)

func runCaller(c caller, st *callerState, ph *atomic.Int32, every int, trace bool, tr *tracer) {
	var i int
	for {
		p := ph.Load()
		if p == phStop {
			return
		}
		if trace && tracedPhase(p) {
			// bench.op ⊃ the call: the op span's self time is what the
			// harness itself costs per operation (generator and oracle).
			t0 := tr.now()
			class := c.next()
			t1 := tr.now()
			c.call()
			t2 := tr.now()
			st.failed[p] += c.check()
			t3 := tr.now()
			opID := st.ring.Added() + 1
			op := st.ring.Add(kindOp, 0, opID, t0, t3, 1)
			st.ring.Add(c.spanKind(), op, opID, t1, t2, 1)
			st.lat[p][class].Record(t2 - t1)
			st.ops[p] += c.ops()
			continue
		}
		class := c.next()
		if i%every == 0 {
			t0 := time.Now()
			c.call()
			st.lat[p][class].Record(int64(time.Since(t0)))
		} else {
			c.call()
		}
		i++
		st.failed[p] += c.check()
		st.ops[p] += c.ops()
	}
}

// newWorkload builds the workload's population once: set-up is then the
// program's work alone, and only the instance that is measured writes to
// the oracle.
func newWorkload(cfg Config) (workload, error) {
	n := uint64(cfg.Keys)
	switch cfg.Workload {
	case "mem-balanced":
		return &memWorkload{cfg: cfg, pop: memPopulation(n)}, nil
	case "net-readmostly":
		return &netWorkload{cfg: cfg, pop: newPopulation(n, 1, 1, stretch(n))}, nil
	case "durable-batch":
		return &durableWorkload{cfg: cfg, pop: newPopulation(2*n, 4, 3, stretch(2*n))}, nil
	case "disk-read":
		return &diskWorkload{cfg: cfg, pop: newPopulation(n, 1, 1, 2)}, nil
	}
	return nil, fmt.Errorf("suite: unknown workload %q", cfg.Workload)
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// RunCell runs one cell and returns its metrics. An error means the cell
// could not be measured; a run that measured wrong answers returns a cell
// with Correct false.
func RunCell(cfg Config) (*report.Cell, error) {
	if cfg.Keys == 0 {
		cfg.Keys = DefaultKeys
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("suite: the window needs a positive length")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	inst, setupS, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close() // error path only; the success path checks close below
		}
	}()
	fmt.Fprintf(cfg.Log, "%s: set-ups %.4f s\n", cfg.Workload, setupS)

	tr := &tracer{origin: time.Now(), kinds: slices.Clone(spanKinds)}
	before, err := inst.counters()
	if err != nil {
		return nil, err
	}
	run, err := drive(cfg, inst, tr)
	if err != nil {
		return nil, err
	}
	// The window's counters are read before anything settles, so that the
	// _end gauges are the window's end and the deltas the window's work.
	after, err := inst.counters()
	if err != nil {
		return nil, err
	}
	if err := inst.quiesce(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	runtime.GC()
	var mEnd runtime.MemStats
	runtime.ReadMemStats(&mEnd)
	// The lock footprints are judged on this later reading: draining the
	// compression queue is compression too.
	settled, err := inst.counters()
	if err != nil {
		return nil, err
	}
	vfailed, rec, err := inst.verify(cfg.Log)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	after.recovery = rec
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	cell := &report.Cell{Workload: cfg.Workload, Trace: cfg.Trace, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Attempted: total(&run.ops, anyPhase), Failed: vfailed + total(&run.failed, anyPhase)}
	if cfg.Trace {
		cell.Metrics, err = perLayer(cfg, tr, run, before, after)
		if err != nil {
			return nil, err
		}
	} else {
		cell.Metrics = endToEnd(cfg, run, setupS, float64(mEnd.HeapInuse)/(1<<20), before, after, cell.Attempted, cell.Failed)
	}
	cell.Notes = settled.violations()
	cell.Correct = len(cell.Notes) == 0 && cell.Failed == 0
	return cell, nil
}

// setUp opens and loads the system, several times on an untraced cell:
// the last instance is the one measured, the earlier ones only time the
// set-up. It returns the set-up times in ascending order.
func setUp(cfg Config, w workload) (inst instance, seconds []float64, err error) {
	var spent time.Duration
	for i := 0; i == 0 || !cfg.Trace && (i < minSets || i < maxSets && spent < setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			runtime.GC()
		}
		t0 := time.Now()
		if inst, err = w.setup(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		seconds = append(seconds, d.Seconds())
	}
	slices.Sort(seconds)
	return inst, seconds, nil
}

// driven is what the callers of one cell did, summed per phase.
type driven struct {
	ops, failed [numPhases]uint64
	lat         [numPhases][numClasses]hist.H
	dur         [numPhases]time.Duration
	m0, m1      runtime.MemStats // at the window's start and end (untraced cells)
}

// total sums a per-phase count over the phases keep selects.
func total(v *[numPhases]uint64, keep func(p int32) bool) (n uint64) {
	for p := range v {
		if keep(int32(p)) {
			n += v[p]
		}
	}
	return n
}

func (run *driven) seconds(keep func(p int32) bool) (s float64) {
	for p, d := range run.dur {
		if keep(int32(p)) {
			s += d.Seconds()
		}
	}
	return s
}

func anyPhase(int32) bool        { return true }
func windowPhase(p int32) bool   { return p != phWarm }
func untracedSlice(p int32) bool { return p != phWarm && !tracedPhase(p) }

// drive runs the callers through warm-up and window and waits for them.
func drive(cfg Config, inst instance, tr *tracer) (*driven, error) {
	n := inst.callers()
	callers := make([]caller, n)
	states := make([]callerState, n)
	for c := range callers {
		var err error
		if callers[c], err = inst.newCaller(c); err != nil {
			return nil, err
		}
		if cfg.Trace {
			states[c].ring = tr.ring(c, ringSpans/n)
		}
	}
	var ph atomic.Int32
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runCaller(callers[c], &states[c], &ph, inst.sampleEvery(), cfg.Trace, tr)
		}()
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	run := &driven{}
	run.dur[phWarm] = time.Duration(warmupShare * float64(window))
	time.Sleep(run.dur[phWarm])

	stopBg := make(chan struct{})
	var bgDone sync.WaitGroup
	if bg := inst.background(); bg != nil {
		bgDone.Add(1)
		go func() { defer bgDone.Done(); bg(stopBg, tr) }()
	}
	if !cfg.Trace {
		runtime.ReadMemStats(&run.m0)
	}
	t0 := time.Now()
	last := t0
	for p := int32(1); p <= numSlices; p++ {
		ph.Store(p)
		sleepUntil(t0.Add(window * time.Duration(p) / numSlices))
		if p == numSlices && !cfg.Trace {
			runtime.ReadMemStats(&run.m1) // stops the world: before the clock is read, so inside the last slice
		}
		now := time.Now()
		run.dur[p], last = now.Sub(last), now
	}
	ph.Store(phStop)
	wg.Wait()
	close(stopBg)
	bgDone.Wait()

	for c := range states {
		for p := 0; p < numPhases; p++ {
			run.ops[p] += states[c].ops[p]
			run.failed[p] += states[c].failed[p]
			for k := range run.lat[p] {
				run.lat[p][k].Merge(&states[c].lat[p][k])
			}
		}
	}
	if total(&run.ops, windowPhase) == 0 {
		return nil, errors.New("suite: no operation completed in the window")
	}
	return run, nil
}

// median of a few values; the mean of the middle two when they are even.
func median(v []float64) float64 {
	d := slices.Sorted(slices.Values(v))
	return (d[(len(d)-1)/2] + d[len(d)/2]) / 2
}

// endToEnd computes an untraced cell's metrics, in spec order. The rate
// and the latency quantiles are medians over the window's slices.
func endToEnd(cfg Config, run *driven, setupS []float64, heapMB float64, before, after counters, attempted, failed uint64) []report.Metric {
	var rate, p50, p99 []float64
	var samples, beyond uint64
	for p := 1; p <= numSlices; p++ {
		var all hist.H
		for k := range run.lat[p] {
			all.Merge(&run.lat[p][k])
		}
		rate = append(rate, float64(run.ops[p])/run.dur[p].Seconds())
		p50 = append(p50, all.Quantile(0.5)/1e3)
		p99 = append(p99, all.Quantile(0.99)/1e3)
		samples += all.Count()
		beyond += all.Above(all.Quantile(0.99))
	}
	ops := total(&run.ops, windowPhase)
	fmt.Fprintf(cfg.Log, "%s: %d ops in %.2f s, %d latency samples (%d beyond the slices' p99); slices %.0f ops/s, p50 %.4g us, p99 %.4g us\n",
		cfg.Workload, ops, run.seconds(windowPhase), samples, beyond, rate, p50, p99)
	values := map[string]report.Metric{
		"setup_s":            {Value: setupS[len(setupS)/2], Samples: uint64(len(setupS))},
		"ops_per_s":          {Value: median(rate), Samples: ops},
		"lat_p50_us":         {Value: median(p50), Samples: samples},
		"lat_p99_us":         {Value: median(p99), Samples: beyond},
		"failed_frac":        {Value: float64(failed) / float64(attempted), Samples: attempted},
		"allocs_per_op":      {Value: float64(run.m1.Mallocs-run.m0.Mallocs) / float64(ops), Samples: ops},
		"alloc_bytes_per_op": {Value: float64(run.m1.TotalAlloc-run.m0.TotalAlloc) / float64(ops), Samples: ops},
		"heap_mb":            {Value: heapMB, Samples: 1},
		"disk_bytes_per_op":  {Value: ratio(float64(diskBytes(before, after)), float64(attempted)), Samples: attempted},
	}
	ms := make([]report.Metric, 0, len(spec.EndToEnd))
	for _, e := range spec.EndToEnd {
		m := values[e.Name]
		m.Name, m.Unit = e.Name, e.Unit
		ms = append(ms, m)
	}
	return ms
}

// perLayer computes a traced cell's metrics: the window counters, the
// per-kind samples, the tracing overhead, then the ladder; it writes the
// trace file and prints the ledgers.
func perLayer(cfg Config, tr *tracer, run *driven, before, after counters) ([]report.Metric, error) {
	ms := windowMetrics(before, after, total(&run.ops, anyPhase), run.seconds(anyPhase))
	var ref [numClasses]hist.H
	for p := int32(1); p <= numSlices; p++ {
		if untracedSlice(p) {
			for k := range ref {
				ref[k].Merge(&run.lat[p][k])
			}
		}
	}
	ms = append(ms, kindMetrics(&ref)...)
	refRate := float64(total(&run.ops, untracedSlice)) / run.seconds(untracedSlice)
	tracedOps := total(&run.ops, tracedPhase)
	tracedRate := float64(tracedOps) / run.seconds(tracedPhase)
	ms = append(ms, report.Metric{Name: "bench.trace_overhead_frac", Value: 1 - tracedRate/refRate, Samples: tracedOps})
	fmt.Fprintf(cfg.Log, "%s: untraced %.0f ops/s, traced %.0f ops/s\n", cfg.Workload, refRate, tracedRate)

	lad, err := runLadder(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	ms = append(ms, lad.metrics...)
	written, err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".jsonl"), tr, cfg.Log)
	if err != nil {
		return nil, err
	}
	ms = append(ms, report.Metric{Name: "bench.spans_written", Value: float64(written), Samples: uint64(written)})
	lad.printLedgers(cfg.Log)
	return orderPerLayer(ms)
}

// orderPerLayer arranges ms in spec order, fills in units, and insists
// that every per-layer metric is present exactly once.
func orderPerLayer(ms []report.Metric) ([]report.Metric, error) {
	byName := make(map[string]report.Metric, len(ms))
	for _, m := range ms {
		if _, dup := byName[m.Name]; dup {
			return nil, fmt.Errorf("suite: metric %s measured twice", m.Name)
		}
		byName[m.Name] = m
	}
	out := make([]report.Metric, 0, len(spec.PerLayer))
	for _, l := range spec.PerLayer {
		m, ok := byName[l.Name]
		if !ok {
			return nil, fmt.Errorf("suite: metric %s was not measured", l.Name)
		}
		m.Unit = l.Unit
		out = append(out, m)
		delete(byName, l.Name)
	}
	for name := range byName {
		return nil, fmt.Errorf("suite: metric %s is not in the spec", name)
	}
	return out, nil
}

// kindMetrics splits the window's latency samples by operation kind.
func kindMetrics(lat *[numClasses]hist.H) []report.Metric {
	var ms []report.Metric
	for k := gen.Kind(0); k < gen.NumKinds; k++ {
		h := &lat[k]
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			ms = append(ms, report.Metric{
				Name:    fmt.Sprintf("blinktree.%s_%s_ns", k, q.name),
				Value:   h.Quantile(q.q),
				Samples: h.Count(),
				Vacuous: h.Count() == 0,
			})
		}
	}
	return ms
}

// writeTrace writes every kept span, prints the per-layer self times
// computed from them, and returns the number of spans written.
func writeTrace(path string, tr *tracer, log io.Writer) (int, error) {
	var spans []span.Span
	var added uint64
	for _, r := range tr.rings {
		spans = append(spans, r.Spans()...)
		added += r.Added()
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := span.WriteJSONL(f, tr.kinds, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, fmt.Errorf("write %s: %w", path, err)
	}
	self := span.SelfTimes(spans)
	type agg struct {
		n    int
		self int64
	}
	byLayer := map[string]*agg{}
	for i, s := range spans {
		if int(s.Kind) >= len(spanKinds) {
			continue // a ladder rung: its cost is in the ledger
		}
		a := byLayer[spanKinds[s.Kind].Layer]
		if a == nil {
			a = &agg{}
			byLayer[spanKinds[s.Kind].Layer] = a
		}
		a.n++
		a.self += self[i]
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	fmt.Fprintf(log, "trace: %d spans recorded, the last %d kept and written to %s\n", added, n, path)
	for _, l := range layers {
		a := byLayer[l]
		fmt.Fprintf(log, "  layer %-10s %8d spans  self time %10.0f ns/span\n", l, a.n, float64(a.self)/float64(a.n))
	}
	return n, nil
}
