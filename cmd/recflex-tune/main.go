// Command recflex-tune runs RecFlex's interference-aware two-stage schedule
// tuner on one of the evaluation models and reports the selected schedules,
// occupancy and expected fused-kernel latency.
//
// Usage:
//
//	recflex-tune -model A -device V100 -scale 10 -batches 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/tuner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recflex-tune: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, report out,
// every failure — including invalid flag values — surfaces as an error and a
// non-zero exit.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("recflex-tune", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		model    = fs.String("model", "A", "model: A,B,C,D,E,scale10k,mlperf")
		device   = fs.String("device", "V100", "device: V100 or A100")
		scale    = fs.Int("scale", 10, "feature-count divisor (1 = full paper scale)")
		batches  = fs.Int("batches", 4, "historical batches sampled for tuning")
		batchCap = fs.Int("batch-cap", 512, "maximum request batch size")
		workers  = fs.Int("workers", 0, "tuning parallelism (0 = GOMAXPROCS)")
		sepAblat = fs.Bool("separate", false, "also run the separate-combine straw-man tuner")
		outFile  = fs.String("o", "", "save the tuned schedules as JSON (loadable by core.LoadTuned)")
		warmFile = fs.String("warm-start", "", "warm-start the search from a previously saved tuning result (a -o file)")
		serial   = fs.Bool("serial", false, "force the serial reference engine (ignores -warm-start)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", *scale)
	}
	if *batches <= 0 {
		return fmt.Errorf("-batches must be positive, got %d", *batches)
	}
	if *batchCap <= 0 {
		return fmt.Errorf("-batch-cap must be positive, got %d", *batchCap)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	configs := map[string]*datasynth.ModelConfig{
		"A": datasynth.ModelA(), "B": datasynth.ModelB(), "C": datasynth.ModelC(),
		"D": datasynth.ModelD(), "E": datasynth.ModelE(),
		"scale10k": datasynth.Scalability10k(), "mlperf": datasynth.MLPerfLike(),
	}
	cfg, ok := configs[*model]
	if !ok {
		return fmt.Errorf("unknown model %q", *model)
	}
	cfg = datasynth.Scaled(cfg, *scale)
	var dev *gpusim.Device
	switch *device {
	case "V100":
		dev = gpusim.V100()
	case "A100":
		dev = gpusim.A100()
	default:
		return fmt.Errorf("unknown device %q", *device)
	}

	sizes := datasynth.RequestSizes(*batches, *batchCap, cfg.Seed^0xBA7C4)
	ds, err := datasynth.GenerateDataset(cfg, *batches, sizes)
	if err != nil {
		return err
	}
	features := experiments.Features(cfg)
	m := tuner.DefaultModel(features)

	topts := tuner.Options{Parallelism: *workers, Serial: *serial}
	if *warmFile != "" {
		incumbent := core.New(dev, features)
		if err := incumbent.LoadTuned(*warmFile); err != nil {
			return fmt.Errorf("-warm-start: %w", err)
		}
		topts.Warm = tuner.WarmFrom(incumbent.Tuned())
	}

	start := time.Now()
	rf := core.New(dev, features)
	if err := rf.Tune(ds.Batches, topts); err != nil {
		return err
	}
	res := rf.Tuned()
	wall := time.Since(start)

	fmt.Fprintf(w, "model %s on %s: %d features, %d tuning batches, tuned in %v\n",
		cfg.Name, dev.Name, len(features), len(ds.Batches), wall.Round(time.Millisecond))
	fmt.Fprintf(w, "selected occupancy: %d blocks/SM; fused latency over tuning data: %s\n",
		res.Occupancy, report.FmtUS(res.Latency))
	for _, po := range res.PerOccupancy {
		fmt.Fprintf(w, "  occupancy %2d blocks/SM -> %s\n", po.BlocksPerSM, report.FmtUS(po.Latency))
	}

	counts := map[string]int{}
	for _, c := range res.Choices {
		counts[c.Name()]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return counts[names[i]] > counts[names[j]] })
	fmt.Fprintln(w, "schedule distribution:")
	for _, n := range names {
		fmt.Fprintf(w, "  %4d x %s\n", counts[n], n)
	}

	if *outFile != "" {
		if err := rf.SaveTuned(*outFile); err != nil {
			return err
		}
		fmt.Fprintf(w, "tuned schedules saved to %s\n", *outFile)
	}

	if *sepAblat {
		sep, err := tuner.SeparateCombine(dev, m, ds.Batches, tuner.Options{Parallelism: *workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "separate-combine straw man: fused latency %s (two-stage improvement %s)\n",
			report.FmtUS(sep.Latency), report.FmtRatio(sep.Latency/res.Latency))
	}
	return nil
}
