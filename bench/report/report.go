// Package report holds what a benchmark run writes down — one Cell per
// (workload, traced or not) with every metric's name, unit, value, sample
// count and vacuous flag — and the arithmetic over several runs: medians
// and quartiles, the regression bounds of package spec, and the
// same-host rule for comparing two result files.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"

	"blinktree/bench/spec"
)

// Metric is one measured number. Samples is how many observations stand
// behind it (latency samples, loop calls, counted events). Vacuous marks
// a counter metric whose event count was zero in the run: the number is
// printed, never read as a pass.
type Metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples uint64  `json:"samples"`
	Vacuous bool    `json:"vacuous"`
}

// Cell is one run of one workload, traced or not.
type Cell struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

// Get returns the named metric's value and whether the cell has it.
func (c *Cell) Get(name string) (float64, bool) {
	for _, m := range c.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Line is the contract's result line: the last line of a run's standard
// output. It carries the metrics BENCHMARK.json names, so not the
// end-to-end metrics that are local to the benchmark's own files.
func (c *Cell) Line() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	local := map[string]bool{}
	for _, e := range spec.EndToEnd {
		local[e.Name] = e.Local != ""
	}
	ms := make(map[string]mv, len(c.Metrics))
	for _, m := range c.Metrics {
		if !local[m.Name] {
			ms[m.Name] = mv{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{c.Correct, c.Attempted, c.Failed, ms})
}

// Fingerprint identifies the class of host a result was measured on.
// Results of different fingerprints are not compared: a difference
// between them says nothing about the code.
type Fingerprint struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Host fingerprints the running process.
func Host() Fingerprint {
	return Fingerprint{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// Result is the content of result.json: every cell of one invocation.
// With -repeat, a (workload, untraced) pair has one cell per repetition.
type Result struct {
	Seed  uint64      `json:"seed"`
	Host  Fingerprint `json:"host"`
	Cells []Cell      `json:"cells"`
}

// Load reads a result file.
func Load(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Save writes a result file.
func (r *Result) Save(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over the
// untraced cells.
func (r *Result) values(workload, metric string) []float64 {
	var vs []float64
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Workload == workload && !c.Trace {
			if v, ok := c.Get(metric); ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// Quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so the spreads printed here are the ones the
// driver computes. One value is its own quartiles.
func Quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(values []float64) float64 {
	q1, med, q3 := Quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// worse is by what share of a the value b is worse than a. Worse than a
// zero is worse without measure.
func worse(better string, a, b float64) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	switch {
	case a != 0:
		return d / a
	case d > 0:
		return math.Inf(1)
	}
	return 0
}

// Verdict of one (workload, metric) comparison.
const (
	OK         = "ok"
	Regressed  = "regressed"
	Unresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// minSpreadRuns is the fewest runs whose spread counts as evidence: the
// quartiles of two or three values are extrapolations.
const minSpreadRuns = 4

// Row is one (workload, metric) pair of a comparison.
type Row struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64
	Worse, Bound           float64
	Verdict                string
}

// Compare applies the bounds table to two results: for every workload
// and end-to-end metric, b's median may be worse than a's by at most the
// bound. Where either side's spread, over at least four runs, exceeds the
// bound, the pair is unresolved, not ok. It refuses results of different
// host fingerprints.
func Compare(a, b *Result) ([]Row, error) {
	if a.Host != b.Host {
		return nil, fmt.Errorf("report: host fingerprints differ (%+v against %+v): compare runs of the same goos, goarch, cpus, GOMAXPROCS and go version", a.Host, b.Host)
	}
	var rows []Row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return nil, fmt.Errorf("report: no untraced %s on %s in one of the results", m.Name, w.Name)
			}
			_, ma, _ := Quartiles(va)
			_, mb, _ := Quartiles(vb)
			row := Row{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, A: ma, B: mb,
				SpreadA: Spread(va), SpreadB: Spread(vb),
				Worse: worse(m.Better, ma, mb), Bound: m.Bound, Verdict: OK,
			}
			switch {
			case row.Worse > m.Bound:
				row.Verdict = Regressed
			case len(va) >= minSpreadRuns && row.SpreadA > m.Bound || len(vb) >= minSpreadRuns && row.SpreadB > m.Bound:
				row.Verdict = Unresolved
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintRows renders a comparison and reports whether any row regressed.
func PrintRows(w io.Writer, rows []Row) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median)\tb (median)\tworse by\tbound\tspread a\tspread b\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
			r.Workload, r.Metric, r.Unit, r.A, r.B, 100*r.Worse, 100*r.Bound, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		regressed = regressed || r.Verdict == Regressed
	}
	tw.Flush()
	return regressed
}

// Split deals a repeated result's untraced cells into two sets, odd and
// even repetitions, so that drift over the session lands in both.
func (r *Result) Split() (a, b *Result) {
	a, b = &Result{Seed: r.Seed, Host: r.Host}, &Result{Seed: r.Seed, Host: r.Host}
	seen := map[string]int{}
	for _, c := range r.Cells {
		if c.Trace {
			continue
		}
		if seen[c.Workload]%2 == 0 {
			a.Cells = append(a.Cells, c)
		} else {
			b.Cells = append(b.Cells, c)
		}
		seen[c.Workload]++
	}
	return a, b
}

// PrintSummary renders, per workload and end-to-end metric, the median,
// quartiles and spread over the result's untraced cells, then the
// per-layer metrics of its traced cells. It returns the pairs that are
// unsteady: measured at least four times with a spread wider than the
// bound, so that no comparison of such sets can tell a regression.
func (r *Result) PrintSummary(w io.Writer) (unsteady []string) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tq1\tmedian\tq3\tspread\tbound\t")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vs := r.values(wl.Name, m.Name)
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := Quartiles(vs)
			note := ""
			if len(vs) >= minSpreadRuns && Spread(vs) > m.Bound {
				note = " unsteady"
				unsteady = append(unsteady, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%%s\t\n",
				wl.Name, m.Name, m.Unit, len(vs), q1, med, q3, 100*Spread(vs), 100*m.Bound, note)
		}
	}
	tw.Flush()
	var traced []*Cell
	for i := range r.Cells {
		if r.Cells[i].Trace {
			traced = append(traced, &r.Cells[i])
		}
	}
	if len(traced) == 0 {
		return unsteady
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "per-layer metric\tunit\t")
	for _, c := range traced {
		fmt.Fprintf(tw, "%s\t", c.Workload)
	}
	fmt.Fprintln(tw)
	for _, l := range spec.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t", l.Name, l.Unit)
		for _, c := range traced {
			cell := "-"
			for _, m := range c.Metrics {
				if m.Name == l.Name {
					cell = fmt.Sprintf("%.6g", m.Value)
					if m.Vacuous {
						cell += " (vacuous)"
					}
				}
			}
			fmt.Fprintf(tw, "%s\t", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return unsteady
}
