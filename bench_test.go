package recflex_test

// One benchmark per table and figure of the paper's evaluation (§VI), driving
// the same harness as cmd/recflex-bench at a reduced scale, plus
// micro-benchmarks of the core primitives. Regenerate the full evaluation
// with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/recflex-bench -exp all -scale 10 -eval 8   # bigger
//	go run ./cmd/recflex-bench -exp all -paper              # full paper scale

import (
	"math/rand"
	"sync"
	"testing"

	recflex "repro"
	"repro/internal/datasynth"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/perf"
	"repro/internal/sched"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite shares one tuned suite across benchmarks so per-benchmark time
// measures the experiment, not repeated tuning.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Config{
			Scale:       50, // models A-E at 16-24 features: benchmark scale
			TuneBatches: 1,
			EvalBatches: 2,
			BatchCap:    512,
			Occupancies: []int{2, 4, 8},
			Parallelism: 4,
		})
	})
	return suite
}

func BenchmarkTable1_Datagen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFigure2_Heterogeneity(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_Microbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_KernelComparison(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("figure 9 incomplete")
		}
	}
}

func BenchmarkFigure10_EndToEnd(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_KernelCounters(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11_TuningAblation(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12_ScheduleSweep(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13_ThreadMapping(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalability10k(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scalability(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPerfParity(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.MLPerf(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead_HostMapping(b *testing.B) {
	// The §VI-E claim: host-side workload analysis + task-map construction
	// per batch is lightweight. This measures it directly in real time.
	cfg := datasynth.Scaled(datasynth.ModelA(), 10)
	rng := rand.New(rand.NewSource(1))
	batch, err := datasynth.GenerateBatch(cfg, 256, rng)
	if err != nil {
		b.Fatal(err)
	}
	features := experiments.Features(cfg)
	choices := make([]sched.Schedule, len(features))
	for f := range choices {
		choices[f] = sched.SubWarp{Threads: 256, Lanes: 32, Vec: 1, UnrollRows: 1}
	}
	dev := gpusim.V100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fusion.Compile(dev, features, choices, batch, fusion.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensions_Discussion(b *testing.B) {
	// The §VII extension studies: multi-GPU placement, UVM cache sweep,
	// preprocess fusion, intra-feature heterogeneity.
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Extensions(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core primitives ---
//
// The hot-path bodies live in internal/perf, shared with the recflex-bench
// -perf emitter so the committed BENCH_*.json trajectory and the go-test
// benchmarks always measure the same code.

func BenchmarkSimulateKernel640Blocks(b *testing.B) { perf.SimulateKernel640Blocks(b) }

func BenchmarkSimulateSaturated(b *testing.B) { perf.SimulateSaturated(b) }

func BenchmarkReplayHotPath(b *testing.B) { perf.ReplayHotPath(b) }

func BenchmarkElasticLongServe(b *testing.B) { perf.ElasticLongServe(b) }

func BenchmarkCacheDispatch(b *testing.B) { perf.CacheDispatch(b) }

func BenchmarkTuneSerial(b *testing.B) { perf.TuneSerial(b) }

func BenchmarkTuneCold(b *testing.B) { perf.TuneCold(b) }

func BenchmarkTuneLosing(b *testing.B) { perf.TuneLosing(b) }

func BenchmarkRetuneWarm(b *testing.B) { perf.RetuneWarm(b) }

func BenchmarkPoolingReference(b *testing.B) {
	features, tables, makeBatch := buildToyModel(b)
	batch := makeBatch(256)
	_ = features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := range tables {
			if _, err := recflex.PoolReference(tables[f], &batch.Features[f], features[f].Pool); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSchedulePlanning(b *testing.B) {
	dev := gpusim.V100()
	pf := make([]int, 512)
	for i := range pf {
		pf[i] = 30 + i%50
	}
	w := sched.Workload{Dim: 32, BatchSize: 512, PF: pf, TotalRows: sumInts(pf), UniqueRows: sumInts(pf), TableRows: 1 << 16}
	l2 := sched.L2Context{CacheBytes: 6 << 20, WorkingSetBytes: 64 << 20}
	s := sched.SubWarp{Threads: 256, Lanes: 8, Vec: 4, UnrollRows: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(&w, dev, l2); err != nil {
			b.Fatal(err)
		}
	}
}

func sumInts(s []int) int {
	n := 0
	for _, v := range s {
		n += v
	}
	return n
}
