// Fleet: multi-model, multi-tenant serving over one shared pool of
// simulated GPUs — the serving-layer sequel to the paper's heterogeneity
// argument. Feature heterogeneity made one schedule per model insufficient;
// a production fleet adds one more axis: several independently tuned models
// and traffic classes with different latency needs contending for the same
// accelerators.
//
// Act one is the noisy neighbor: a latency-critical interactive tenant
// shares two GPUs with a bursty bulk tenant. Under FIFO admission the bursts
// queue ahead of interactive traffic and blow up its p99; under
// priority-EDF with a bulk queue quota and load-aware early shedding the
// interactive tail stays within the non-preemptive-blocking bound (alone-p99
// plus one in-flight bulk request per worker).
//
// Act two is weighted fairness: an interactive class that overloads the pool
// on its own would starve a batch class forever under strict priority
// dispatch. WeightedFair's deficit round-robin instead guarantees the batch
// class its configured share of dispatches at a bounded p99.
//
// Act three is independent drift: two supervised models share the pool, their
// workloads drift at different times, and each detects, re-tunes in the
// background on shared capacity and hot-swaps its own schedule set — the
// neighbor's generation untouched.
//
//	go run ./examples/fleet
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

	// Compile-time: tune once on steady-state history; every act starts from it.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var historical []*embedding.Batch
	for _, n := range []int{256, 384} {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			log.Fatal(err)
		}
		historical = append(historical, b)
	}
	tune := tuner.Options{Occupancies: []int{1, 2, 4, 8}}
	rf := core.New(dev, features)
	if err := rf.Tune(historical, tune); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned %d features, occupancy %d blocks/SM\n\n", len(features), rf.Tuned().Occupancy)

	noisyNeighbor(rf, cfg)
	weightedFair(rf, cfg)
	independentDrift(rf, cfg, tune)
}

// weightedFair contrasts strict priority-EDF dispatch with deficit
// round-robin under sustained overload: the interactive class alone offers
// ~111% of the two workers' capacity, so whatever the batch class gets, it
// gets only from the dispatcher's fairness guarantee.
func weightedFair(rf *core.RecFlex, cfg *datasynth.ModelConfig) {
	src := func(_ float64, size int) (*embedding.Batch, error) {
		return datasynth.BatchForSize(cfg, size)
	}
	svc := rf.TimedService(src, 64, nil)
	sv, err := svc(0, 256)
	if err != nil {
		log.Fatal(err)
	}

	var interactive, batch []trace.Request
	for i := 0; i < 240; i++ {
		interactive = append(interactive, trace.Request{Arrival: float64(i) * 0.45 * sv, Size: 256})
	}
	for i := 0; i < 144; i++ {
		batch = append(batch, trace.Request{Arrival: float64(i) * 0.75 * sv, Size: 256})
	}
	merged := fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: interactive},
		fleet.Stream{Model: 0, Tenant: 1, Reqs: batch},
	)
	tenants := []fleet.TenantSpec{
		{Name: "interactive", Priority: 1},
		{Name: "batch", Priority: 0, Quota: 8},
	}
	models := []fleet.Model{{Name: "rank", Service: svc}}
	run := func(admission fleet.AdmissionPolicy) *fleet.Metrics {
		pool, err := fleet.NewPool(fleet.Config{
			Queue:     trace.QueuePolicy{Workers: 2, QueueDepth: 16},
			Admission: admission,
		}, models, tenants)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pool.Serve(merged)
		if err != nil {
			log.Fatal(err)
		}
		return rep.Metrics
	}

	wf, err := fleet.NewWeightedFair(tenants, fleet.WeightedFairConfig{
		Weights: map[int]float64{1: 3, 0: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	prio := run(nil) // nil = strict priority-EDF
	fair := run(wf)
	fmt.Printf("-- act two: weighted fairness under sustained overload (weights 3:1, batch share %.0f%%) --\n",
		100*wf.WeightShare(0))
	fmt.Printf("batch under priority-edf:  served %d/%d (p99 %.0fus) -- drain-phase leftovers only\n",
		prio.Tenants[1].Served, len(batch), prio.Tenants[1].P99*1e6)
	fmt.Printf("batch under weighted-fair: served %d/%d (p99 %.0fus), %.0f%% of all dispatches\n\n",
		fair.Tenants[1].Served, len(batch), fair.Tenants[1].P99*1e6,
		100*float64(fair.Tenants[1].Served)/float64(fair.Served))
}

// noisyNeighbor (act one) contrasts FIFO and priority-EDF admission for an
// interactive tenant sharing the pool with a bursty bulk tenant. Traffic is
// built from probed service times so the pressure regime is scale-independent.
func noisyNeighbor(rf *core.RecFlex, cfg *datasynth.ModelConfig) {
	src := func(_ float64, size int) (*embedding.Batch, error) {
		return datasynth.BatchForSize(cfg, size)
	}
	svc := rf.TimedService(src, 64, nil)
	const iaSize, bulkSize = 256, 1024
	iaSvc, err := svc(0, iaSize)
	if err != nil {
		log.Fatal(err)
	}
	bulkSvc, err := svc(0, bulkSize)
	if err != nil {
		log.Fatal(err)
	}

	// Interactive requests every 4 service times; every 40 service times the
	// bulk tenant dumps a 12-request burst of 4x-sized batches.
	var streams []fleet.Stream
	var interactive []trace.Request
	for i := 0; i < 160; i++ {
		interactive = append(interactive, trace.Request{Arrival: float64(i) * 4 * iaSvc, Size: iaSize})
	}
	var bulk []trace.Request
	for b := 1; b <= 15; b++ {
		start := float64(b) * 40 * iaSvc
		for i := 0; i < 12; i++ {
			bulk = append(bulk, trace.Request{Arrival: start + float64(i)*iaSvc*0.01, Size: bulkSize})
		}
	}
	streams = []fleet.Stream{
		{Model: 0, Tenant: 0, Reqs: interactive},
		{Model: 1, Tenant: 1, Reqs: bulk},
	}
	merged := fleet.Merge(streams...)

	tenants := []fleet.TenantSpec{
		{Name: "interactive", Priority: 1},
		{Name: "bulk", Priority: 0, Quota: 8},
	}
	models := []fleet.Model{
		{Name: "rank", Service: svc},
		{Name: "score", Service: svc},
	}
	run := func(admission fleet.AdmissionPolicy, shed float64) *fleet.Metrics {
		pool, err := fleet.NewPool(fleet.Config{
			Queue:        trace.QueuePolicy{Workers: 2, QueueDepth: 16},
			Placement:    fleet.PlacementSpread,
			Admission:    admission,
			ShedFraction: shed,
		}, models, tenants)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pool.Serve(merged)
		if err != nil {
			log.Fatal(err)
		}
		return rep.Metrics
	}

	fmt.Printf("-- act one: noisy neighbor (interactive %.0fus/req vs bulk %.0fus bursts) --\n", iaSvc*1e6, bulkSvc*1e6)
	fifo := run(fleet.FIFO{}, 0)
	prio := run(nil, 0.5) // nil = priority-EDF over the tenants

	// The alone baseline: the interactive stream with the neighbor absent.
	alonePool, err := fleet.NewPool(fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2, QueueDepth: 16},
		Placement: fleet.PlacementSpread,
	}, models, tenants)
	if err != nil {
		log.Fatal(err)
	}
	aloneRep, err := alonePool.Serve(fleet.Merge(fleet.Stream{Model: 0, Tenant: 0, Reqs: interactive}))
	if err != nil {
		log.Fatal(err)
	}
	// One bulk request can be in flight per worker when an interactive
	// request arrives and cannot be preempted: the blocking bound.
	bound := aloneRep.Metrics.Tenants[0].P99 + 2*bulkSvc

	fmt.Printf("interactive p99: alone %.0fus | fifo %.0fus | priority-edf %.0fus (bound %.0fus)\n",
		aloneRep.Metrics.Tenants[0].P99*1e6, fifo.Tenants[0].P99*1e6, prio.Tenants[0].P99*1e6, bound*1e6)
	fmt.Printf("bulk tenant under priority-edf: %s\n", prio.Tenants[1].String())
	fmt.Printf("bulk tenant under fifo:         %s\n\n", fifo.Tenants[1].String())
}

// independentDrift serves two supervised clones on the shared pool; each
// drifts at its own time and factor and must recover on its own.
func independentDrift(rf *core.RecFlex, cfg *datasynth.ModelConfig, tune tuner.Options) {
	const n = 96
	gen := func(seed int64) []trace.Request {
		reqs, err := trace.Generate(n, trace.GeneratorConfig{QPS: 40, MaxBatch: 512, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		return reqs
	}
	reqsA, reqsB := gen(cfg.Seed^0x51EE7), gen(cfg.Seed^0xF00D5)
	specs := []struct {
		name    string
		factor  float64
		driftAt float64
	}{
		{"early", 4, reqsA[n/3].Arrival},
		{"late", 6, reqsB[3*n/5].Arrival},
	}

	models := make([]core.FleetModel, len(specs))
	for i, sp := range specs {
		drift := datasynth.StepDrift(sp.driftAt, sp.factor)
		src := func(t float64, size int) (*embedding.Batch, error) {
			return drift.BatchForSize(cfg, t, size)
		}
		models[i] = core.FleetModel{
			Name:   sp.name,
			Rec:    rf.Clone(),
			Source: src,
			Opts: core.ContinuousOptions{
				Supervisor: trace.SupervisorConfig{Window: 16, CheckEvery: 8, MaxRetunes: 1},
				Quantum:    64,
				PhaseOf:    drift.PhaseStart,
				Tune:       tune,
			},
		}
	}
	tenants := []fleet.TenantSpec{{Name: "online"}}
	stream := fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: reqsA},
		fleet.Stream{Model: 1, Tenant: 0, Reqs: reqsB},
	)

	fmt.Println("-- act three: two models drift and re-tune independently on the shared pool --")
	res, err := core.ServeFleet(fleet.Config{Queue: trace.QueuePolicy{Workers: 2}}, models, tenants, stream)
	if err != nil {
		log.Fatal(err)
	}
	for m, sp := range specs {
		mm := res.Report.ModelReports[m].Metrics
		if len(mm.Swaps) == 0 {
			fmt.Printf("model %s (x%.0f at t=%.1fms): drift not detected\n", sp.name, sp.factor, sp.driftAt*1e3)
			continue
		}
		s := mm.Swaps[0]
		fmt.Printf("model %s (x%.0f at t=%.1fms): detected t=%.1fms -> background tune on gpu%d (%.0fms busy) -> hot-swap t=%.1fms (generation %d, interference %.2fx)\n",
			sp.name, sp.factor, sp.driftAt*1e3, s.Detected*1e3, s.Worker, s.TuneDuration*1e3, s.Swapped*1e3,
			mm.Generation, res.Interference[m])
	}
	fmt.Printf("pool: %s\n", res.Report.Metrics)
}
