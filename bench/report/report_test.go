package report

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blinktree/bench/spec"
)

// Python: statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
// and statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread %v, want 1", s)
	}
}

// result builds a result whose every end-to-end metric reads base·f(metric).
func result(runs int, f func(workload, metric string, run int) float64) *Result {
	r := &Result{Seed: 1, Host: Host()}
	for i := 0; i < runs; i++ {
		for _, w := range spec.Workloads {
			c := Cell{Workload: w.Name, Correct: true, Attempted: 1000}
			for _, m := range spec.EndToEnd {
				c.Metrics = append(c.Metrics, Metric{Name: m.Name, Unit: m.Unit, Value: f(w.Name, m.Name, i), Samples: 1})
			}
			r.Cells = append(r.Cells, c)
		}
	}
	return r
}

func verdicts(t *testing.T, a, b *Result) map[string]string {
	t.Helper()
	rows, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]string{}
	for _, r := range rows {
		v[r.Workload+"/"+r.Metric] = r.Verdict
	}
	return v
}

func TestCompareAppliesBoundsInTheRightDirection(t *testing.T) {
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	flat := func(string, string, int) float64 { return 100 }
	a := result(3, flat)
	b := result(3, func(w, m string, _ int) float64 {
		switch {
		case w == "mem-balanced" && m == "ops_per_s":
			return 100 * (1 - bound["ops_per_s"] - 0.01) // fewer ops/s, beyond the bound
		case w == "net-readmostly" && m == "ops_per_s":
			return 120 // more ops/s is better
		case w == "disk-read" && m == "lat_p50_us":
			return 100 * (1 + bound["lat_p50_us"] + 0.01) // slower, beyond the bound
		case w == "disk-read" && m == "heap_mb":
			return 100 * (1 + bound["heap_mb"] - 0.01) // inside the bound
		case w == "durable-batch" && m == "failed_frac":
			return 100.001 // bound 0: any rise
		}
		return 100
	})
	v := verdicts(t, a, b)
	for k, want := range map[string]string{
		"mem-balanced/ops_per_s": Regressed, "net-readmostly/ops_per_s": OK,
		"disk-read/lat_p50_us": Regressed, "disk-read/heap_mb": OK, "durable-batch/heap_mb": OK,
		"durable-batch/failed_frac": Regressed, "disk-read/failed_frac": OK,
	} {
		if v[k] != want {
			t.Errorf("%s: %s, want %s", k, v[k], want)
		}
	}
	var out bytes.Buffer
	rows, _ := Compare(a, b)
	if !PrintRows(&out, rows) || !strings.Contains(out.String(), "regressed") {
		t.Errorf("PrintRows did not report the regression:\n%s", out.String())
	}
}

func TestCompareMarksWideSpreadUnresolved(t *testing.T) {
	flat := result(4, func(string, string, int) float64 { return 100 })
	wide := func(runs int) *Result {
		return result(runs, func(w, m string, run int) float64 {
			if w == "mem-balanced" && m == "ops_per_s" {
				return []float64{70, 130, 100, 100}[run] // same median, quartiles far apart
			}
			return 100
		})
	}
	if v := verdicts(t, flat, wide(4)); v["mem-balanced/ops_per_s"] != Unresolved || v["mem-balanced/heap_mb"] != OK {
		t.Errorf("verdicts %v", v)
	}
	// The quartiles of two runs are extrapolations: no evidence of spread.
	if v := verdicts(t, flat, wide(2)); v["mem-balanced/ops_per_s"] != OK {
		t.Errorf("two runs: %v", v["mem-balanced/ops_per_s"])
	}
	var out bytes.Buffer
	if unsteady := wide(4).PrintSummary(&out); !slices.Equal(unsteady, []string{"mem-balanced/ops_per_s"}) {
		t.Errorf("unsteady pairs %q\n%s", unsteady, out.String())
	}
}

// A metric that reads 0 at the parent has no share to get worse by: any
// rise from 0 is a regression, 0 to 0 is not.
func TestCompareFromZero(t *testing.T) {
	zero := result(1, func(_, m string, _ int) float64 {
		if m == "disk_bytes_per_op" || m == "failed_frac" {
			return 0
		}
		return 100
	})
	risen := result(1, func(w, m string, _ int) float64 {
		switch {
		case w == "mem-balanced" && m == "disk_bytes_per_op":
			return 8
		case m == "disk_bytes_per_op" || m == "failed_frac":
			return 0
		}
		return 100
	})
	v := verdicts(t, zero, risen)
	if v["mem-balanced/disk_bytes_per_op"] != Regressed || v["net-readmostly/disk_bytes_per_op"] != OK || v["mem-balanced/failed_frac"] != OK {
		t.Errorf("verdicts %v", v)
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	a := result(1, func(string, string, int) float64 { return 1 })
	b := result(1, func(string, string, int) float64 { return 1 })
	b.Host.CPUs++
	if _, err := Compare(a, b); err == nil {
		t.Error("results of different fingerprints were compared")
	}
}

func TestSaveLoadSplitAndLine(t *testing.T) {
	r := result(5, func(_, _ string, run int) float64 { return float64(run + 1) })
	path := filepath.Join(t.TempDir(), "result.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil || len(back.Cells) != len(r.Cells) || back.Host != r.Host {
		t.Fatalf("round trip: %v", err)
	}
	a, b := back.Split()
	if got, want := a.values("disk-read", "ops_per_s"), []float64{1, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("odd set %v", got)
	}
	if got, want := b.values("disk-read", "ops_per_s"), []float64{2, 4}; !slices.Equal(got, want) {
		t.Errorf("even set %v", got)
	}
	line, err := r.Cells[0].Line()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   *bool
		Attempted *uint64
		Failed    *uint64
		Metrics   map[string]struct {
			Value *float64
			Unit  *string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(spec.Driver()) {
		t.Errorf("result line %s", line)
	}
	var sum bytes.Buffer
	back.PrintSummary(&sum)
	if !strings.Contains(sum.String(), "lat_p99_us") {
		t.Errorf("summary:\n%s", sum.String())
	}
}
