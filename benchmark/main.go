// Command benchmark is the end-to-end benchmark of the RecFlex serving stack.
// It drives four workloads through the repository's public APIs — an
// open-loop HTTP load against the time-warped gateway with a warm and a cold
// kernel memo, an offline replay of an elastic multi-tenant trace, and cold
// tuning of the five Table-I models — checks every output, and prints each
// metric by name with its unit. The last line of output is one JSON object.
//
//	bash benchmark/run.sh --workload serve-warm --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload all --seed 1                # every workload
//	bash benchmark/run.sh --workload replay-elastic --trace 1     # per-layer metrics
//
// See README.md in this directory for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/tuner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config sizes every workload. defaultConfig is the benchmark; tests shrink it.
type config struct {
	seed    int64
	budget  time.Duration // measured time per run (--seconds)
	setups  int           // set-ups per untraced run; setup_s is their median
	conns   int           // HTTP connections of the load generator
	workDir string        // session logs and span files

	serveScale   int     // feature-count divisor of the served models A and C
	warmRate     float64 // serve-warm fixed offered rate, req/s
	estimateReqs int     // serve-warm closed-loop burst that sizes the capacity run
	coldRate     float64 // serve-coldstart offered rate, req/s
	coldRequests int     // requests per cold-start episode
	replayScale  int     // feature-count divisor of the replayed models A and C
	replayReqs   int     // replay-elastic trace length
	tuneScale    int     // feature-count divisor of the tuned models A-E
	evalBatches  int     // tune-models evaluation batches per model
	rerunBatches int     // traced run: batches re-timed through datasynth/fusion/gpusim
}

func defaultConfig() config {
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	return config{
		seed:         1,
		budget:       12 * time.Second,
		setups:       3,
		conns:        conns,
		workDir:      ".bench_build",
		serveScale:   100,
		warmRate:     4000,
		estimateReqs: 2000,
		coldRate:     400,
		coldRequests: 100,
		replayScale:  200,
		replayReqs:   100000,
		tuneScale:    100,
		evalBatches:  8,
		rerunBatches: 16,
	}
}

// env is one workload run: its configuration, the tracer of a traced run
// (nil otherwise) and the human-readable output.
type env struct {
	cfg config
	tr  *tracer
	out io.Writer

	// Tuner memo counters, summed over the traced run's tunes.
	tunes              int
	memoHits, memoMiss int64

	traceStart runtime.MemStats
	nextID     int64 // next open-loop request id; ids are unique within a run

	// sessionFilter, when set, rewrites each recorded session log before it
	// is checked; tests use it to tamper with a log.
	sessionFilter func([]byte) []byte
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// result is one workload's printed outcome.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []error // failed output checks
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Errorf(format, args...))
	}
}

type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"serve-warm", runServeWarm},
	{"serve-coldstart", runServeCold},
	{"replay-elastic", runReplayElastic},
	{"tune-models", runTuneModels},
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-warm, serve-coldstart, replay-elastic, tune-models or all")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", cfg.budget.Seconds(), "measured seconds per workload")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", cfg.workDir, "directory for session logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds > 0, --trace 0 or 1 and no positional arguments")
		return 2
	}
	cfg.budget = time.Duration(*seconds * float64(time.Second))
	return runWorkloads(cfg, *name, *traced == 1, stdout, stderr)
}

// runWorkloads runs the named workload (or all of them) and prints each
// result. It returns 2 when a workload could not run, 1 when an output check
// failed and 0 otherwise.
func runWorkloads(cfg config, name string, traced bool, stdout, stderr io.Writer) int {
	var todo []workload
	for _, w := range workloads {
		if name == w.name || name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range todo {
		e := &env{cfg: cfg, out: stdout}
		if traced {
			e.tr = newTracer()
			e.tr.on.Store(true) // set-up is traced too: it is where serving workloads tune
		}
		fmt.Fprintf(stdout, "== %s (seed %d, %.3gs measured, traced %v, %d connections, GOMAXPROCS %d)\n",
			w.name, cfg.seed, cfg.budget.Seconds(), traced, cfg.conns, runtime.GOMAXPROCS(0))
		res, err := w.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		defs := endToEnd
		if traced {
			defs = perLayer
			path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
			if err := e.tr.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
		if err := printResult(stdout, w.name, res, defs); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		for _, err := range res.errs {
			fmt.Fprintf(stderr, "benchmark: %s: output check failed: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints every metric of defs by name with its unit, then the
// result as one JSON line. A metric the workload did not produce is a bug.
func printResult(w io.Writer, name string, res *result, defs []metricDef) error {
	out := jsonResult{
		Correct:   len(res.errs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", name, d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	fmt.Fprintf(w, "%-16s attempted %d, failed %d, correct %v\n", name, out.Attempted, out.Failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setups builds a workload's set-up cfg.setups times (once when traced) and
// returns the last one with the median wall time.
func setups[T any](e *env, build func() (T, error)) (T, float64, error) {
	n := e.cfg.setups
	if e.tr != nil || n < 1 {
		n = 1
	}
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// tune runs one cold RecFlex.Tune. A traced run gives it a fresh simulation
// memo, whose counters are the tuner's per-layer metrics.
func (e *env) tune(rf *core.RecFlex, batches []*embedding.Batch, id int64, model int) error {
	var opts tuner.Options
	if e.tr.active() {
		opts.Memo = tuner.NewMemo()
	}
	err := e.tr.timed(spanTune, id, model, func() error { return rf.Tune(batches, opts) })
	if opts.Memo != nil {
		h, m := opts.Memo.Stats()
		e.tunes++
		e.memoHits += h
		e.memoMiss += m
	}
	return err
}

// traceHalf switches tracing on for the traced half of a traced run and
// returns the index of its first span.
func (e *env) traceHalf() int {
	runtime.GC()
	runtime.ReadMemStats(&e.traceStart)
	e.tr.on.Store(true)
	return e.tr.mark()
}

// endTraceHalf switches tracing off and records the Go runtime's metrics
// over the traced half.
func (e *env) endTraceHalf(res *result) {
	e.tr.on.Store(false)
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.metrics["runtime.gc_cycles"] = float64(now.NumGC - e.traceStart.NumGC)
	res.metrics["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-e.traceStart.PauseTotalNs) / 1e6
	res.metrics["runtime.heap_inuse_mb"] = float64(now.HeapInuse) / mib
}

// finishLayers adds the per-layer metrics every workload measures (the
// tuner's, the kernel path re-timed on the run's distinct batches, the span
// count) and sets those of the layers the workload bypasses to 0.
func (e *env) finishLayers(res *result, kernels []kernelKey, k *kernelSet) error {
	var tuneNS float64
	tunes := 0
	e.tr.each(0, spanTune, func(s *span) { tuneNS += float64(s.dur()); tunes++ })
	res.metrics["tuner.ms_per_tune"] = ratio(tuneNS/1e6, float64(tunes))
	res.metrics["tuner.sims_per_tune"] = ratio(float64(e.memoMiss), float64(e.tunes))
	res.metrics["tuner.memo_hit_ratio"] = ratio(float64(e.memoHits), float64(e.memoHits+e.memoMiss))
	res.metrics["bench.spans"] = float64(e.tr.mark())

	if len(kernels) == 0 {
		return errors.New("traced run resolved no kernels to re-time")
	}
	ds, comp, sim, err := k.retime(kernels, e.cfg.rerunBatches)
	if err != nil {
		return err
	}
	res.metrics["datasynth.us_per_batch"] = ds
	res.metrics["fusion.us_per_compile"] = comp
	res.metrics["gpusim.us_per_simulate"] = sim
	e.logf("layers: tuner %.1f ms/tune over %d tunes; datasynth %.1f us, fusion %.1f us, gpusim %.1f us per batch",
		res.metrics["tuner.ms_per_tune"], tunes, ds, comp, sim)
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			res.metrics[d.name] = 0
		}
	}
	return nil
}
