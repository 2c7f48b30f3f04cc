// Command recflex-bench reproduces the paper's evaluation: every table and
// figure of §VI (Tables I-II, Figures 2-3, 9-13) plus the scalability,
// MLPerf-parity and overhead studies.
//
// Usage:
//
//	recflex-bench -exp all -scale 10 -eval 8
//	recflex-bench -exp fig9,fig11 -scale 25 -eval 4
//	recflex-bench -exp all -paper          # full paper scale (hours)
//
// With -perf it instead measures the hot-path benchmark suite
// (internal/perf) and emits a BENCH_*.json perf-trajectory point:
//
//	recflex-bench -perf BENCH_9.json -perf-baseline BENCH_7.json
//
// When a baseline is given, its measurements are embedded in the emitted
// file (so each file carries its own before/after pair) and the run fails
// if any benchmark regressed by more than -perf-regress — this is the CI
// perf gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/perf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recflex-bench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, experiment
// report out, every failure — including invalid flag values — surfaces as an
// error and a non-zero exit.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("recflex-bench", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		exp     = fs.String("exp", "all", "experiments: table1,fig2,fig3,fig9,fig10,table2,fig11,fig12,fig13,scale,mlperf,overhead,ext,eq2,drift,fleet,cache,elastic or all")
		scale   = fs.Int("scale", 10, "feature-count divisor (1 = full paper scale)")
		tuneB   = fs.Int("tune", 2, "tuning batches")
		evalB   = fs.Int("eval", 8, "evaluation batches (paper: 128)")
		workers = fs.Int("workers", 0, "tuning parallelism (0 = GOMAXPROCS)")
		paper   = fs.Bool("paper", false, "use the full paper-scale configuration (overrides scale/tune/eval)")
		csvDir  = fs.String("csv", "", "also export figure data as CSV files into this directory")

		perfOut     = fs.String("perf", "", "measure the hot-path benchmark suite and write a BENCH_*.json file (skips experiments)")
		perfBase    = fs.String("perf-baseline", "", "BENCH_*.json to embed as the baseline and gate regressions against")
		perfCount   = fs.Int("perf-count", 3, "benchmark repetitions per case; the fastest run is kept")
		perfRegress = fs.Float64("perf-regress", 0.25, "maximum tolerated ns/op regression vs the baseline (0.25 = +25%)")
		perfNote    = fs.String("perf-note", "", "free-form note recorded in the emitted BENCH file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", *scale)
	}
	if *tuneB <= 0 {
		return fmt.Errorf("-tune must be positive, got %d", *tuneB)
	}
	if *evalB <= 0 {
		return fmt.Errorf("-eval must be positive, got %d", *evalB)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *perfCount <= 0 {
		return fmt.Errorf("-perf-count must be positive, got %d", *perfCount)
	}
	if *perfRegress < 0 {
		return fmt.Errorf("-perf-regress must be >= 0, got %g", *perfRegress)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := rejectDeadFlags(set, *perfOut != "", *paper); err != nil {
		return err
	}

	if *perfOut != "" {
		return runPerf(*perfOut, *perfBase, *perfNote, *perfCount, *perfRegress)
	}

	cfg := experiments.Config{
		Scale:       *scale,
		TuneBatches: *tuneB,
		EvalBatches: *evalB,
		BatchCap:    512,
		Occupancies: []int{1, 2, 3, 4, 6, 8},
		Parallelism: *workers,
	}
	if *paper {
		cfg = experiments.PaperConfig()
		cfg.Parallelism = *workers
	}
	s := experiments.NewSuite(cfg)

	runners := map[string]func() error{
		"table1":   func() error { return experiments.PrintTable1(w) },
		"fig2":     func() error { return s.PrintFig2(w) },
		"fig3":     func() error { return experiments.PrintFig3(w) },
		"fig9":     func() error { return s.PrintFig9(w) },
		"fig10":    func() error { return s.PrintFig10(w) },
		"table2":   func() error { return s.PrintTable2(w) },
		"fig11":    func() error { return s.PrintFig11(w) },
		"fig12":    func() error { return s.PrintFig12(w) },
		"fig13":    func() error { return s.PrintFig13(w) },
		"scale":    func() error { return s.PrintScalability(w) },
		"mlperf":   func() error { return s.PrintMLPerf(w) },
		"overhead": func() error { return s.PrintOverhead(w) },
		"ext":      func() error { return s.PrintExtensions(w) },
		"eq2":      func() error { return s.PrintEq2Fidelity(w) },
		"drift":    func() error { return s.PrintDriftStudy(w) },
		"fleet":    func() error { return s.PrintFleetStudy(w) },
		"cache":    func() error { return s.PrintCacheStudy(w) },
		"elastic":  func() error { return s.PrintElasticStudy(w) },
	}
	order := []string{"table1", "fig2", "fig3", "fig9", "fig10", "table2", "fig11", "fig12", "fig13", "scale", "mlperf", "overhead", "ext", "eq2", "drift", "fleet", "cache", "elastic"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		selected = strings.Split(*exp, ",")
	}
	start := time.Now()
	for _, name := range selected {
		runExp, ok := runners[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(order, ","))
		}
		t0 := time.Now()
		if err := runExp(); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		fmt.Fprintf(w, "[%s finished in %v]\n", name, time.Since(t0).Round(time.Millisecond))
	}
	if *csvDir != "" {
		if err := s.ExportCSV(*csvDir); err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		fmt.Fprintf(w, "figure data exported to %s\n", *csvDir)
	}
	fmt.Fprintf(w, "\nall experiments done in %v (scale=%d, eval batches=%d)\n",
		time.Since(start).Round(time.Millisecond), s.Cfg.Scale, s.Cfg.EvalBatches)
	return nil
}

// rejectDeadFlags rejects flags the run would silently ignore — dead
// configuration that reads like it took effect. perf and paper report
// whether -perf and -paper are on.
func rejectDeadFlags(set map[string]bool, perf, paper bool) error {
	if perf {
		for _, f := range []string{"exp", "scale", "tune", "eval", "workers", "paper", "csv"} {
			if set[f] {
				return fmt.Errorf("-%s shapes the paper experiments, which -perf skips; drop -%s or -perf", f, f)
			}
		}
	} else {
		for _, f := range []string{"perf-baseline", "perf-count", "perf-regress", "perf-note"} {
			if set[f] {
				return fmt.Errorf("-%s shapes the hot-path suite that -perf runs; pass -perf", f)
			}
		}
	}
	if paper {
		for _, f := range []string{"scale", "tune", "eval"} {
			if set[f] {
				return fmt.Errorf("-paper sets the full paper-scale configuration, which overrides -%s; drop one of them", f)
			}
		}
	}
	if set["perf-regress"] && !set["perf-baseline"] {
		return fmt.Errorf("-perf-regress gates against the baseline that -perf-baseline loads; pass -perf-baseline")
	}
	return nil
}

// runPerf measures the hot-path suite, writes the BENCH_*.json trajectory
// point and, when a baseline file is given, embeds it and gates ns/op
// regressions against it.
func runPerf(out, basePath, note string, count int, maxRegress float64) error {
	var baseline *perf.File
	if basePath != "" {
		f, err := perf.ReadFile(basePath)
		if err != nil {
			return fmt.Errorf("perf baseline: %w", err)
		}
		baseline = f
	}

	start := time.Now()
	log.Printf("measuring %d hot-path benchmarks (count=%d)...", len(perf.Cases()), count)
	entries := perf.Measure(count)
	if baseline != nil {
		perf.AttachBaseline(entries, baseline)
	}
	f := perf.NewFile(note, entries)
	if err := f.WriteFile(out); err != nil {
		return err
	}
	for _, e := range entries {
		line := fmt.Sprintf("%-28s %12.0f ns/op %8d B/op %6d allocs/op",
			e.Name, e.Current.NsPerOp, e.Current.BytesPerOp, e.Current.AllocsPerOp)
		if e.Current.ReqPerSec > 0 {
			line += fmt.Sprintf(" %12.0f req/s", e.Current.ReqPerSec)
		}
		if e.Speedup > 0 {
			line += fmt.Sprintf("   %.2fx vs baseline", e.Speedup)
		}
		log.Print(line)
	}
	log.Printf("wrote %s in %v", out, time.Since(start).Round(time.Millisecond))

	if baseline != nil {
		if bad := perf.Compare(baseline, entries, maxRegress); len(bad) > 0 {
			return fmt.Errorf("perf gate failed against %s:\n  %s", basePath, strings.Join(bad, "\n  "))
		}
		log.Printf("perf gate passed against %s (limit +%.0f%% ns/op)", basePath, maxRegress*100)
	}
	return nil
}
