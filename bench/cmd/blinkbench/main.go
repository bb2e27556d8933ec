// Command blinkbench is the repository's one gated benchmark.
//
//	blinkbench -seed 1 -out bench/out          the whole suite: four workloads untraced, then traced
//	blinkbench -repeat 5 -seed 1               the untraced suite five times, medians and quartiles
//	blinkbench -compare a.json b.json          apply the regression bounds to two result files
//	blinkbench -workload W -seed N -seconds S -trace 0|1
//	                                           one cell; the last line of output is the result line
//
// The suite runs every cell in a process of its own — this binary,
// re-executed with -workload — so a number in result.json was measured
// exactly as the one-cell form measures it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"blinktree/bench/report"
	"blinktree/bench/spec"
	"blinktree/bench/suite"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one cell of this workload and print its result line")
		seed     = flag.Uint64("seed", 1, "seed of every key and operation stream")
		seconds  = flag.Float64("seconds", 15, "length of the timed window of each cell")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced cell (per-layer metrics), 0 the untraced one (end-to-end metrics)")
		out      = flag.String("out", "bench/out", "directory for result.json, trace files, WAL and page files")
		repeat   = flag.Int("repeat", 1, "run the untraced suite this many times; exit 1 if its two halves disagree beyond the bounds or a gated spread exceeds its bound")
		compare  = flag.Bool("compare", false, "compare the two result files given as arguments")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *out, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "blinkbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace bool, out string, repeat int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	out, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	// A disk-native tree puts its page file in the temporary directory:
	// keep that, like everything else the benchmark writes, under -out.
	if err := os.Setenv("TMPDIR", out); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(out, "blinktree-pages-*")) // the pattern is well formed
	for _, f := range stale {
		os.Remove(f) // a page file a killed run left; failing to remove it costs only disk
	}
	runtime.GOMAXPROCS(suite.Workers())
	if workload != "" {
		return runCell(suite.Config{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, OutDir: out, Log: os.Stdout})
	}
	return runSuite(seed, seconds, out, repeat)
}

// runCell runs one cell in this process. The result line goes last on
// standard output; the full cell, with sample counts and vacuous flags,
// goes to a file the suite collects.
func runCell(cfg suite.Config) error {
	cell, err := suite.RunCell(cfg)
	if err != nil {
		return err
	}
	fmt.Println(metricsHeader)
	for _, m := range cell.Metrics {
		vac := ""
		if m.Vacuous {
			vac = "  (vacuous: no such event in this run)"
		}
		fmt.Printf("%-34s %16.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, vac)
	}
	for _, n := range cell.Notes {
		fmt.Println("FAILED:", n)
	}
	b, err := json.Marshal(cell)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.OutDir, cellFile(cfg.Workload, cfg.Trace)), b, 0o644); err != nil {
		return err
	}
	line, err := cell.Line()
	if err != nil {
		return err
	}
	// A cell that measured wrong answers still ends with its result line
	// and exit code 0: "correct": false is the verdict. The suite, which
	// reads the cell file, is what fails.
	fmt.Printf("%s\n", line)
	return nil
}

// metricsHeader separates a cell's progress lines (set-ups, self times,
// ledgers) from its metric table; the suite prints only the former, since
// its summary holds every metric.
const metricsHeader = "--- metrics"

func cellFile(workload string, trace bool) string {
	if trace {
		return "cell-" + workload + "-traced.json"
	}
	return "cell-" + workload + ".json"
}

// runSuite runs every workload untraced, repeat times over, then every
// workload traced once, each cell in a child process.
func runSuite(seed uint64, seconds float64, out string, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := &report.Result{Seed: seed, Host: report.Host()}
	child := func(workload string, trace bool) error {
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", out)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		if err != nil {
			os.Stdout.Write(stdout.Bytes())
			return fmt.Errorf("%s (trace %s): %w", workload, t, err)
		}
		progress, _, _ := bytes.Cut(stdout.Bytes(), []byte(metricsHeader))
		os.Stdout.Write(progress)
		b, err := os.ReadFile(filepath.Join(out, cellFile(workload, trace)))
		if err != nil {
			return err
		}
		var cell report.Cell
		if err := json.Unmarshal(b, &cell); err != nil {
			return err
		}
		res.Cells = append(res.Cells, cell)
		fmt.Printf("# %s trace=%s: %.1f s wall\n", workload, t, time.Since(t0).Seconds())
		if !cell.Correct {
			os.Stdout.Write(stdout.Bytes())
			return fmt.Errorf("%s (trace %s): %d of %d operations or checks failed %q", workload, t, cell.Failed, cell.Attempted, cell.Notes)
		}
		return nil
	}
	for i := 0; i < repeat; i++ {
		for _, w := range spec.Workloads {
			if err := child(w.Name, false); err != nil {
				return err
			}
		}
	}
	for _, w := range spec.Workloads {
		if err := child(w.Name, true); err != nil {
			return err
		}
	}
	path := filepath.Join(out, "result.json")
	if err := res.Save(path); err != nil {
		return err
	}
	fmt.Printf("\nseed %d, %d untraced repetition(s), host %+v\n\n", seed, repeat, res.Host)
	unsteady := res.PrintSummary(os.Stdout)
	fmt.Printf("\nwrote %s\n", path)
	if repeat < 2 {
		return nil
	}
	a, b := res.Split()
	rows, err := report.Compare(a, b)
	if err != nil {
		return err
	}
	fmt.Printf("\nodd repetitions (a) against even repetitions (b) of the same commit:\n")
	if report.PrintRows(os.Stdout, rows) {
		return fmt.Errorf("two sets of runs of one commit disagree beyond the bounds")
	}
	if len(unsteady) > 0 {
		return fmt.Errorf("the spread of %d runs is wider than the bound on %q: the benchmark cannot gate these pairs", repeat, unsteady)
	}
	return nil
}

func compareFiles(pa, pb string) error {
	a, err := report.Load(pa)
	if err != nil {
		return err
	}
	b, err := report.Load(pb)
	if err != nil {
		return err
	}
	rows, err := report.Compare(a, b)
	if err != nil {
		return err
	}
	if report.PrintRows(os.Stdout, rows) {
		return fmt.Errorf("%s regressed against %s", pb, pa)
	}
	return nil
}
