package spec

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and this package state the same contract, inside the
// limits the driver enforces.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %q run_seconds %d", b.Paths, b.RunSeconds)
	}
	// The driver makes 4 + 22 runs per workload inside 3420 s, two builds
	// included. A traced cell, the longest, was measured at 17 s of
	// set-up, warm-up, verification and ladder on top of its window.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)+17) > 3420-240 {
		t.Errorf("%d runs of a %d s window do not fit the driver's budget", runs, b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, spec has %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		name(w.Name)
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: %+v, spec %+v", i, got, w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(Driver()) {
		t.Fatalf("%d end-to-end metrics, spec has %d that are not local", len(b.EndToEnd), len(Driver()))
	}
	setup := false
	for i, m := range Driver() {
		name(m.Name)
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v, spec %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q bound %v better %q", m.Name, m.Unit, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range EndToEnd {
		if m.Local != "" {
			name(m.Name)
		}
	}
	if len(b.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, spec has %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range PerLayer {
		name(m.Name)
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v, spec %+v", i, got, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("%s: unit %q better %q moves %q", m.Name, m.Unit, m.Better, m.Moves)
		}
		if m.Source != "rung" && m.Source != "window" && m.Source != "samples" {
			t.Errorf("%s: source %q", m.Name, m.Source)
		}
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command %q", b.Command)
	}
	for _, arg := range b.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || len(arg) > 200 {
			t.Errorf("command argument %q", arg)
		}
	}
}
