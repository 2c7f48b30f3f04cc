// Continuous: the online serving loop of §IV-A3 end-to-end. A Poisson
// request trace drifts mid-stream (pooling factors scale 4x), and the
// supervisor watches a sliding window of admitted requests, detects the
// shift with the drift statistic, re-tunes the schedules in the background
// on one of the two simulated GPUs — admission never pauses — and hot-swaps
// the fresh schedule set atomically: requests in flight finish on the
// generation they arrived under, later admissions are served by the new one.
// The same trace replayed with the schedules frozen gives the stale
// baseline the post-swap latency split is measured against.
//
// A second act shows the guarded promotion: a deliberately poisoned re-tune
// (3x slower than the live schedules) goes live behind a canary window, the
// supervisor measures it worse than the pre-swap baseline over matched size
// quartiles, and rolls the promotion back to the old schedules — under a
// fresh, strictly higher generation id.
//
//	go run ./examples/continuous
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/trace"
	"repro/internal/tuner"
)

func main() {
	log.SetFlags(0)
	dev := gpusim.V100()
	cfg := datasynth.Scaled(datasynth.ModelC(), 25) // 32 multi-hot features
	features := experiments.Features(cfg)

	// Compile-time: tune on steady-state history.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var historical []*embedding.Batch
	for _, n := range []int{256, 384} {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			log.Fatal(err)
		}
		historical = append(historical, b)
	}
	rf := core.New(dev, features)
	if err := rf.Tune(historical, tuner.Options{Occupancies: []int{1, 2, 4, 8}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned %d features, occupancy %d blocks/SM\n", len(features), rf.Tuned().Occupancy)

	// A Poisson trace whose pooling factors scale 4x a third of the way in.
	reqs, err := trace.Generate(128, trace.GeneratorConfig{
		QPS: 40, MaxBatch: 512, Seed: cfg.Seed ^ 0xD21F7,
	})
	if err != nil {
		log.Fatal(err)
	}
	drift := datasynth.StepDrift(reqs[len(reqs)/3].Arrival, 4)
	src := func(t float64, size int) (*embedding.Batch, error) {
		return drift.BatchForSize(cfg, t, size)
	}
	fmt.Printf("replaying %d requests on 2 GPUs; pooling factors x4 from t=%.1fms\n\n",
		len(reqs), drift.Steps[0].At*1e3)

	opts := core.ContinuousOptions{
		Supervisor: trace.SupervisorConfig{
			Server:     trace.ServerConfig{Workers: 2},
			Window:     16,
			CheckEvery: 8,
			MaxRetunes: 1,
		},
		Quantum: 64,
		PhaseOf: drift.PhaseStart,
		Tune:    tuner.Options{Occupancies: []int{1, 2, 4, 8}},
	}

	// The continuous loop: detect, background-tune, hot-swap.
	live := rf.Clone()
	rep, err := live.ServeContinuous(reqs, src, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range rep.Metrics.Swaps {
		fmt.Printf("generation %d: drift detected t=%.1fms -> background tune on gpu%d (%.0fms busy) -> hot-swap t=%.1fms\n",
			s.Generation, s.Detected*1e3, s.Worker, s.TuneDuration*1e3, s.Swapped*1e3)
	}
	if len(rep.Metrics.Swaps) == 0 {
		fmt.Println("no drift detected; serving stayed on generation 0")
		return
	}

	// The counterfactual: the same trace with the schedules frozen.
	stale, err := rf.ServeFrozen(reqs, src, opts)
	if err != nil {
		log.Fatal(err)
	}
	freshMean, staleMean, n := core.PostSwapSplit(rep, stale)
	if n == 0 {
		fmt.Println("swap landed after the last request; nothing to compare")
		return
	}
	fmt.Printf("\npost-swap latency over %d requests: stale %.2fus vs swapped %.2fus (%.3fx recovery)\n",
		n, staleMean*1e6, freshMean*1e6, staleMean/freshMean)

	// Per-request generation stamps: who served what.
	gen0, gen1 := 0, 0
	for _, g := range rep.Generations {
		if g == 0 {
			gen0++
		} else {
			gen1++
		}
	}
	fmt.Printf("generation stamps: %d requests on generation 0, %d on generation 1\n", gen0, gen1)
	fmt.Printf("tune occupied a worker for %.0fms of the %.0fms makespan (serving utilization %.1f%%)\n",
		rep.Metrics.TuneBusy*1e3, rep.Metrics.Makespan*1e3, rep.Utilization*100)
	fmt.Printf("counters: %s\n", rep.Metrics)

	// Act two: the guarded promotion. The same trace, but this re-tune is
	// deliberately poisoned — it installs a service 3x slower than the live
	// schedules, the failure mode of a tune that overfit a noisy drift
	// window. With a canary window configured, the swap still goes live, but
	// provisionally: the supervisor compares the new generation's served
	// sojourns against the outgoing generation's recent completions over
	// matched size quartiles, measures the degradation, and rolls the
	// promotion back — a forward swap to a fresh generation reusing the old
	// schedules.
	fmt.Println("\n-- guarded promotion: a poisoned re-tune --")
	base := rf.TimedService(src, opts.Quantum, opts.PhaseOf)
	driftAt := drift.Steps[0].At
	detect := func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= driftAt, nil
	}
	poisoned := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return func(t float64, size int) (float64, error) {
			s, err := base(t, size)
			return s * 3, err
		}, nil
	}
	gcfg := opts.Supervisor
	gcfg.CanaryWindow = 8
	gcfg.RollbackMargin = 0.25
	guard, err := trace.NewSupervisor(gcfg, base, detect, poisoned)
	if err != nil {
		log.Fatal(err)
	}
	grep, err := fleet.ServeSingle(gcfg.Server, fleet.Model{Name: "guard", Supervisor: guard}, reqs)
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range grep.Metrics.Swaps {
		if s.Rollback {
			promo := grep.Metrics.Swaps[i-1]
			fmt.Printf("generation %d: canary %.2fus vs baseline %.2fus (%.2fx worse) -> rolled back to generation %d schedules at t=%.1fms\n",
				promo.Generation, promo.CanaryMean*1e6, promo.BaselineMean*1e6,
				promo.CanaryMean/promo.BaselineMean, s.Reinstated, s.Swapped*1e3)
			continue
		}
		fmt.Printf("generation %d: poisoned tune hot-swapped at t=%.1fms (canary open)\n",
			s.Generation, s.Swapped*1e3)
	}
	if grep.Metrics.Rollbacks == 0 {
		fmt.Println("canary did not catch the poisoned tune (unexpected)")
		return
	}
	// Latency per generation shows the full arc: healthy, poisoned, reverted.
	sums := map[int]float64{}
	counts := map[int]int{}
	for i, g := range grep.Generations {
		sums[g] += grep.Sojourn[i]
		counts[g]++
	}
	for g := 0; g <= grep.Metrics.Generation; g++ {
		if counts[g] == 0 {
			continue
		}
		note := ""
		switch g {
		case 1:
			note = "  <- poisoned"
		case 2:
			note = "  <- rolled back to generation 0 schedules"
		}
		fmt.Printf("generation %d: %3d requests, mean sojourn %8.2fus%s\n",
			g, counts[g], sums[g]/float64(counts[g])*1e6, note)
	}
}
