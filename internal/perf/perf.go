// Package perf defines the hot-path benchmark suite and the BENCH_*.json
// perf-trajectory format of ROADMAP item 2. The same benchmark bodies back
// the go-test benchmarks (bench_test.go, the fleet package) and the
// recflex-bench -perf emitter, so the committed trajectory and the test
// suite can never drift apart and measure different code.
package perf

import (
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/trace"
)

// Case is one hot-path benchmark: a name as it appears in BENCH_*.json and
// CI output, the standard testing.B body, and the request count that scales
// ns/op into simulated requests replayed per wall-clock second (0 for
// kernel-simulation benchmarks, which have no request stream).
type Case struct {
	Name        string
	ReqsPerIter int
	Bench       func(*testing.B)
}

const (
	replayRequests      = 4096
	fleetRequests       = 512
	elasticLongRequests = 4096
)

// Cases returns the hot-path suite the perf gate tracks: the two simulator
// regimes (wide launch, saturated retire/backfill), the three replay engines
// (single-model server, multi-tenant fleet pool, elastic heterogeneous pool
// with preemption and autoscaling), the embedding-cache tier's per-dispatch
// path, and the tuner engines (serial reference, the default cold engine on
// a fixture whose occupancies all come close and on one where most lose,
// warm-started re-tune).
func Cases() []Case {
	return []Case{
		{Name: "SimulateKernel640Blocks", Bench: SimulateKernel640Blocks},
		{Name: "SimulateSaturated", Bench: SimulateSaturated},
		{Name: "ReplayHotPath", ReqsPerIter: replayRequests, Bench: ReplayHotPath},
		{Name: "FleetServe", ReqsPerIter: fleetRequests, Bench: FleetServe},
		{Name: "ElasticServe", ReqsPerIter: fleetRequests, Bench: ElasticServe},
		{Name: "ElasticLongServe", ReqsPerIter: elasticLongRequests, Bench: ElasticLongServe},
		{Name: "CacheDispatch", ReqsPerIter: 1, Bench: CacheDispatch},
		{Name: "TuneSerial", Bench: TuneSerial},
		{Name: "TuneCold", Bench: TuneCold},
		{Name: "TuneLosing", Bench: TuneLosing},
		{Name: "RetuneWarm", Bench: RetuneWarm},
	}
}

// SimulateKernel640Blocks measures the simulator's wide-launch regime: 640
// homogeneous blocks over 640 parallel slots, so the whole grid dispatches
// at t=0 and the event loop never backfills.
func SimulateKernel640Blocks(b *testing.B) {
	dev := gpusim.V100()
	blocks := make([]gpusim.BlockWork, 640)
	for i := range blocks {
		blocks[i] = gpusim.BlockWork{
			CompCycles: 20000, DRAMBytes: 64 << 10, L2Bytes: 16 << 10,
			MemRequests: 640, Warps: 8, ActiveFrac: 1, Tag: -1,
		}
	}
	k := &gpusim.Kernel{Name: "bench", Resources: gpusim.KernelResources{ThreadsPerBlock: 256}, Blocks: blocks}
	sim := gpusim.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(dev, k); err != nil {
			b.Fatal(err)
		}
	}
}

// SimulateSaturated drives the retire/backfill path hard: one block per SM
// (80 slots) against a 640-block grid with heterogeneous work, so the event
// loop spends the whole run in the saturated len(active)==cap regime where
// every retirement backfills a fresh block.
func SimulateSaturated(b *testing.B) {
	dev := gpusim.V100()
	blocks := make([]gpusim.BlockWork, 640)
	for i := range blocks {
		blocks[i] = gpusim.BlockWork{
			CompCycles: 10000 + float64(i%7)*3000, DRAMBytes: float64(32<<10) + float64(i%5)*8192,
			L2Bytes: 8 << 10, MemRequests: 320, Warps: 8, ActiveFrac: 1, Tag: i % 16,
		}
	}
	k := &gpusim.Kernel{
		Name:      "bench-saturated",
		Resources: gpusim.KernelResources{ThreadsPerBlock: 256, SharedMemPerBlock: 96 * 1024},
		Blocks:    blocks,
	}
	sim := gpusim.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(dev, k); err != nil {
			b.Fatal(err)
		}
	}
}

// ReplayHotPath measures the virtual-clock replay engine end to end on a
// reused server: bounded queue, deadlines, split-at-cap tails and four
// workers, with a cheap deterministic service so the numbers isolate the
// replay bookkeeping (queueing, dispatch, percentile aggregation) rather
// than kernel simulation.
func ReplayHotPath(b *testing.B) {
	reqs, err := trace.Generate(replayRequests, trace.GeneratorConfig{
		QPS: 4000, MaxBatch: 512, TailProb: 0.05, TailSize: 2560, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 4, QueueDepth: 64, Deadline: 0.05, SplitCap: 512,
	}, func(size int) (float64, error) { return float64(size) * 2e-6, nil })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// FleetServe measures the multi-model, multi-tenant pool: two models, two
// tenants with priorities and a per-tenant deadline, load-aware shedding and
// a bounded shared queue.
func FleetServe(b *testing.B) {
	mk := func(seed int64) []trace.Request {
		reqs, err := trace.Generate(fleetRequests/2, trace.GeneratorConfig{QPS: 800, MaxBatch: 256, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return reqs
	}
	reqs := fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: mk(1)},
		fleet.Stream{Model: 1, Tenant: 1, Reqs: mk(2)},
	)
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1, Deadline: 0.05},
	}
	sizeSvc := func(per float64) trace.TimedServiceFunc {
		return func(_ float64, size int) (float64, error) { return float64(size) * per, nil }
	}
	models := []fleet.Model{
		{Name: "a", Service: sizeSvc(4e-6)},
		{Name: "b", Service: sizeSvc(2e-6)},
	}
	p, err := fleet.NewPool(fleet.Config{
		Queue:        trace.QueuePolicy{Workers: 2, QueueDepth: 128},
		ShedFraction: 0.9,
	}, models, tenants)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// ElasticServe measures the elastic heterogeneous pool's extra machinery on
// top of FleetServe's replay loop: chunk-boundary preemption over split-tail
// chunk trains, the autoscaler's windowed backlog polling with scale-out lag
// and drain-before-remove, and per-class service scaling on a mixed
// V100/A100 pool.
func ElasticServe(b *testing.B) {
	mk := func(seed int64, tail float64) []trace.Request {
		reqs, err := trace.Generate(fleetRequests/2, trace.GeneratorConfig{
			QPS: 4000, MaxBatch: 256, TailProb: tail, TailSize: 2560, Seed: seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return reqs
	}
	reqs := fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: mk(1, 0)},
		fleet.Stream{Model: 1, Tenant: 1, Reqs: mk(2, 0.1)},
	)
	tenants := []fleet.TenantSpec{
		{Name: "hi", Priority: 1, Deadline: 0.05},
		{Name: "lo", Priority: 0},
	}
	sizeSvc := func(per float64) trace.TimedServiceFunc {
		return func(_ float64, size int) (float64, error) { return float64(size) * per, nil }
	}
	classScale := []float64{1, 0.5}
	models := []fleet.Model{
		{Name: "a", Service: sizeSvc(4e-6), ClassScale: classScale},
		{Name: "b", Service: sizeSvc(2e-6), ClassScale: classScale},
	}
	p, err := fleet.NewPool(fleet.Config{
		Queue: trace.QueuePolicy{
			Workers: 2, QueueDepth: 128, Deadline: 0.01,
			Policy: trace.DegradeSplitTail, SplitCap: 256,
		},
		Preempt:       true,
		WorkerClasses: []int{0, 0},
		ClassNames:    []string{"V100", "A100"},
		Autoscale: &fleet.AutoscaleConfig{
			Every: 0.005, Max: 4, ScaleOutLag: 0.002, Class: 1,
		},
	}, models, tenants)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// ElasticLongServe measures the elastic pool over a long autoscaling
// history: 4096 requests in bursts far above the pool's capacity separated
// by quiet stretches far below it, so the autoscaler grows the pool from two
// workers toward eight and drains it back every cycle — hundreds of scale
// events per run. Worker ids are never reused, so the session ends with
// hundreds of mostly retired slots; this case pins that the engine's
// per-event cost does not grow with them.
func ElasticLongServe(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	reqs := make([]fleet.Request, elasticLongRequests)
	at := 0.0
	for i := range reqs {
		if i%128 < 96 {
			at += rng.ExpFloat64() / 12000 // burst: ~3x two workers' capacity
		} else {
			at += rng.ExpFloat64() / 300 // quiet: the pool drains back to Min
		}
		r := fleet.Request{Arrival: at, Size: 32 + rng.Intn(224)}
		if rng.Float64() < 0.4 {
			r.Model, r.Tenant = 1, 1
			if rng.Float64() < 0.15 {
				r.Size = 1024
			}
		}
		reqs[i] = r
	}
	tenants := []fleet.TenantSpec{
		{Name: "hi", Priority: 1, Deadline: 0.004},
		{Name: "lo", Priority: 0, Deadline: 0.002},
	}
	sizeSvc := func(per float64) trace.TimedServiceFunc {
		return func(_ float64, size int) (float64, error) { return float64(size) * per, nil }
	}
	classScale := []float64{1, 0.5}
	models := []fleet.Model{
		{Name: "a", Service: sizeSvc(4e-6), ClassScale: classScale},
		{Name: "b", Service: sizeSvc(2e-6), ClassScale: classScale},
	}
	p, err := fleet.NewPool(fleet.Config{
		Queue: trace.QueuePolicy{
			Workers: 2, QueueDepth: 96,
			Policy: trace.DegradeSplitTail, SplitCap: 256,
		},
		Preempt:       true,
		WorkerClasses: []int{0, 0},
		ClassNames:    []string{"V100", "A100"},
		Autoscale: &fleet.AutoscaleConfig{
			Every: 0.002, Max: 8, ScaleOutLag: 0.001, Class: 1,
		},
	}, models, tenants)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *fleet.Report
	for i := 0; i < b.N; i++ {
		if rep, err = p.Serve(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(len(rep.Metrics.ScaleEvents)), "scale-events")
}
