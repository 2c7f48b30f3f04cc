// Command recflex-serve replays an online-serving request trace (Poisson
// arrivals, serving-sized batches, optional unsplit long-tail requests)
// through every embedding system and reports end-to-end latency — the
// served-workload view of the paper's §VI-D discussion, now driven by the
// concurrent serving engine: k simulated GPUs behind a bounded admission
// queue, per-request deadlines with shed/timeout accounting, split-at-cap
// degradation of long-tail requests, and a latency histogram plus
// per-worker utilization for the tuned system.
//
// Fairness: every system is measured on the identical batch for a given
// request size. Batches are pre-generated once per quantized size, seeded
// from (model seed, size) alone, so no system's measurement order can
// perturb another's inputs.
//
// With -models the command switches to fleet mode: each listed model is
// tuned independently and the merged multi-tenant trace is replayed over one
// shared simulated GPU pool (internal/fleet), with -tenants, -policy and
// -placement shaping admission and placement. -policy weighted-fair with
// -weights gives each priority class a guaranteed dispatch share
// (deficit-round-robin) instead of strict starvation-prone priority;
// -rebalance re-partitions workers from recorded load history; -degrade
// split-tail arms the pool's split-at-cap fallback for long-tail requests.
// The report splits latency, shed counts and interference per model and per
// tenant.
//
// The fleet pool is elastic and heterogeneous on request: -preempt lets a
// queued split chunk yield its dispatch slot to a strictly higher-priority
// whole request at a chunk boundary; -reserve pins per-model exclusive worker
// floors (background re-tunes land on the reserved spares); -worker-classes
// mixes simulated V100- and A100-class workers, with every model tuned on the
// first class and speed-probed on the rest; -autoscale-max lets the pool grow
// toward demand (with -autoscale-lag boot cost, -autoscale-class device
// class) and drain idle workers back. All of it is built from flags alone, so
// recorded gateway sessions still replay bit-identically.
//
// -cache-budget arms the shared embedding-cache tier (internal/emcache) under
// the pool: every dispatched batch's cold rows are charged to its service
// time through the PCIe fault model, fills warm the tier, and -cache-policy
// (static, lru, clock) with -cache-retier shapes how residency follows the
// traffic. The tier is built from the model configs and flags alone, so
// recorded gateway sessions keep replaying bit-identically — cache state and
// counters included — in -replay-session runs.
//
// Usage:
//
//	recflex-serve -model A -scale 25 -requests 200 -qps 2000 -tail 0.02 \
//	    -gpus 2 -deadline 1.5 -queue 64
//	recflex-serve -models A,C -tenants "interactive:1,bulk:0:8" \
//	    -policy priority-edf -placement spread -gpus 2 -queue 32
//	recflex-serve -models A,C -tenants "interactive:1,bulk:0" \
//	    -policy weighted-fair -weights "1:3,0:1" -rebalance 0.05 -gpus 2 -queue 32
//	recflex-serve -models A,C -tenants "interactive:1,bulk:0" -gpus 2 \
//	    -worker-classes V100,V100 -autoscale-max 4 -autoscale-class A100 \
//	    -preempt -degrade split-tail -deadline 1.5
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/emcache"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fusion"
	"repro/internal/gateway"
	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// sizeQuantum is the measurement grid: request sizes round up to this
// multiple so the per-size batch table and service memo stay small.
const sizeQuantum = 32

// splitCap is the serving split threshold (512 in the paper): requests
// above it are unsplit long-tail batches eligible for the split-at-cap
// degradation fallback.
const splitCap = 512

// quantize rounds a request size up to the measurement grid.
func quantize(size int) int {
	return (size + sizeQuantum - 1) / sizeQuantum * sizeQuantum
}

// options is the parsed flag set of one invocation.
type options struct {
	model, device     string
	scale, requests   int
	qps, tailProb     float64
	gpus, queue       int
	deadline          float64
	drift, driftAt    float64
	canary            int
	margin            float64
	degrade           string
	models, tenants   string
	policy, placement string
	shedFraction      float64
	weights           string
	rebalance         float64

	cacheBudget float64
	cachePolicy string
	cacheRetier float64

	preempt       bool
	reserve       string
	workerClasses string
	autoMax       int
	autoEvery     float64
	autoLag       float64
	autoClass     string

	listen        string
	warp          float64
	serveDur      float64
	session       string
	replaySession string

	// queuePolicy is the engine queue policy built from -gpus, -queue,
	// -deadline and -degrade and validated by parseFlags.
	queuePolicy trace.QueuePolicy
}

// generator builds the request-stream generator config from the flags.
func (o *options) generator(seed int64) trace.GeneratorConfig {
	return trace.GeneratorConfig{
		QPS: o.qps, MaxBatch: splitCap, TailProb: o.tailProb,
		TailSize: datasynth.LongTailRequest, Seed: seed,
	}
}

// buildQueuePolicy builds the engine queue policy from the flags. The
// single-model engine defaults to split-tail and always carries the split
// cap. The fleet pool serves admitted requests to completion by default
// (-degrade shed switches to dispatch-time deadline shedding) and arms the
// split-at-cap fallback only under -degrade split-tail.
func (o *options) buildQueuePolicy() (trace.QueuePolicy, error) {
	q := trace.QueuePolicy{
		Workers:    o.gpus,
		QueueDepth: o.queue,
		Deadline:   o.deadline * 1e-3,
		Policy:     trace.DegradeSplitTail,
		SplitCap:   splitCap,
	}
	if o.models != "" {
		q.Policy = trace.DegradeServe
	}
	if o.degrade != "" {
		p, err := trace.ParseDegradePolicy(o.degrade)
		if err != nil {
			return q, err
		}
		q.Policy = p
	}
	if o.models != "" && q.Policy != trace.DegradeSplitTail {
		q.SplitCap = 0
	}
	return q, q.Validate()
}

// supervisor builds the continuous serving loop's supervisor config.
func (o *options) supervisor() trace.SupervisorConfig {
	return trace.SupervisorConfig{
		Server: o.queuePolicy, Window: 32, CheckEvery: 16,
		CanaryWindow: o.canary, RollbackMargin: o.margin,
	}
}

// parseFlags binds the flag set to an options struct. Usage and parse errors
// go to w, so tests never write to the process stderr.
func parseFlags(args []string, w io.Writer) (*options, error) {
	var o options
	fs := flag.NewFlagSet("recflex-serve", flag.ContinueOnError)
	fs.SetOutput(w)
	fs.StringVar(&o.model, "model", "A", "model: A,B,C,D,E,mlperf")
	fs.StringVar(&o.device, "device", "V100", "device: V100 or A100")
	fs.IntVar(&o.scale, "scale", 25, "feature-count divisor")
	fs.IntVar(&o.requests, "requests", 200, "requests in the trace (per model in fleet mode)")
	fs.Float64Var(&o.qps, "qps", 2000, "mean arrival rate (per model in fleet mode)")
	fs.Float64Var(&o.tailProb, "tail", 0.02, "probability of an unsplit 2560-sample request")
	fs.IntVar(&o.gpus, "gpus", 1, "simulated GPU workers")
	fs.IntVar(&o.queue, "queue", 0, "admission queue bound (0 = unbounded)")
	fs.Float64Var(&o.deadline, "deadline", 0, "per-request deadline in milliseconds (0 = none)")
	fs.Float64Var(&o.drift, "drift", 0, "mid-trace pooling-factor scale (0 = steady workload); switches to the continuous serving loop with online re-tuning")
	fs.Float64Var(&o.driftAt, "drift-at", 0.33, "fraction of the trace after which the drift lands")
	fs.IntVar(&o.canary, "canary", 0, "guard each hot-swap with a canary window of this many completions (0 = unguarded)")
	fs.Float64Var(&o.margin, "rollback-margin", 0.1, "fractional degradation the canary tolerates before rolling a swap back")
	fs.StringVar(&o.degrade, "degrade", "", "degradation policy: split-tail, serve-all or shed (default split-tail; fleet mode serve-all)")
	fs.StringVar(&o.models, "models", "", "comma-separated model list (e.g. A,C) — switches to fleet mode over a shared GPU pool")
	fs.StringVar(&o.tenants, "tenants", "", "fleet tenants, comma-separated name:priority[:quota[:deadline_ms]] entries")
	fs.StringVar(&o.policy, "policy", "priority-edf", "fleet admission policy: priority-edf, weighted-fair or fifo")
	fs.StringVar(&o.placement, "placement", "packed", "fleet placement: packed, spread or dedicated")
	fs.Float64Var(&o.shedFraction, "shed-fraction", 0, "fleet load shedding: shed sub-top-priority arrivals once the queue is this full (0 disables)")
	fs.StringVar(&o.weights, "weights", "", "weighted-fair dispatch weights, comma-separated priority:weight pairs (e.g. 1:3,0:1); unlisted classes weigh 1")
	fs.Float64Var(&o.rebalance, "rebalance", 0, "fleet: re-partition workers from load history at most every this many seconds (0 disables)")
	fs.Float64Var(&o.cacheBudget, "cache-budget", 0, "fleet: shared embedding-cache tier budget in MiB (0 disables the tier)")
	fs.StringVar(&o.cachePolicy, "cache-policy", "static", "fleet cache eviction policy: static, lru or clock")
	fs.Float64Var(&o.cacheRetier, "cache-retier", 0, "fleet cache: re-allocate the budget from windowed heat at most every this many simulated seconds (0 disables)")
	fs.BoolVar(&o.preempt, "preempt", false, "fleet: chunk-boundary preemption — a queued split chunk yields its dispatch slot to a strictly higher-priority whole request")
	fs.StringVar(&o.reserve, "reserve", "", "fleet: per-model exclusive worker floors, comma-separated counts aligned with -models (e.g. 1,0)")
	fs.StringVar(&o.workerClasses, "worker-classes", "", "fleet: per-worker device classes, comma-separated names aligned with -gpus (e.g. V100,A100); models tune on the first class and are speed-probed on the others")
	fs.IntVar(&o.autoMax, "autoscale-max", 0, "fleet: let the pool grow to this many workers and shrink back on demand (0 disables autoscaling)")
	fs.Float64Var(&o.autoEvery, "autoscale-every", 0.005, "fleet autoscale: decision pacing in simulated seconds")
	fs.Float64Var(&o.autoLag, "autoscale-lag", 0, "fleet autoscale: simulated boot lag before a scaled-out worker's first dispatch, in seconds")
	fs.StringVar(&o.autoClass, "autoscale-class", "", "fleet autoscale: device class of scaled-out workers (needs -worker-classes; default the first class)")
	fs.StringVar(&o.listen, "listen", "", "serve live inference over HTTP on this address (gateway mode; needs -models)")
	fs.Float64Var(&o.warp, "warp", 1000, "gateway time-warp factor: simulated seconds per wall-clock second")
	fs.Float64Var(&o.serveDur, "serve-duration", 0, "gateway: stop after this many wall seconds (0 = run until interrupted)")
	fs.StringVar(&o.session, "session", "", "gateway: record the admitted request stream and outcomes to this session log")
	fs.StringVar(&o.replaySession, "replay-session", "", "replay a recorded session log through an identically built pool and verify it bit-identically")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Reject nonsense at the flag boundary: a zero-worker pool or a negative
	// queue bound would otherwise surface as a confusing engine error (or,
	// worse, an all-shed table that reads like a result).
	if o.gpus <= 0 {
		return nil, fmt.Errorf("-gpus must be positive, got %d", o.gpus)
	}
	if o.requests <= 0 {
		return nil, fmt.Errorf("-requests must be positive, got %d", o.requests)
	}
	if o.scale <= 0 {
		return nil, fmt.Errorf("-scale must be positive, got %d", o.scale)
	}
	if !(o.warp > 0) || math.IsInf(o.warp, 0) {
		return nil, fmt.Errorf("-warp must be positive and finite, got %g", o.warp)
	}
	if o.serveDur < 0 {
		return nil, fmt.Errorf("-serve-duration must be >= 0, got %g", o.serveDur)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// Build the engine configs the run will use and let their own Validate
	// methods judge them, so a bad value fails here, before any model is
	// tuned, by the same rule the engine applies.
	gen := o.generator(0)
	if err := gen.Validate(); err != nil {
		return nil, fmt.Errorf("-qps/-tail: %w", err)
	}
	var err error
	if o.queuePolicy, err = o.buildQueuePolicy(); err != nil {
		return nil, fmt.Errorf("-queue/-deadline/-degrade: %w", err)
	}
	switch {
	case !(o.drift >= 0) || math.IsInf(o.drift, 0):
		return nil, fmt.Errorf("-drift must be finite and >= 0 (0 = steady workload), got %g", o.drift)
	case o.drift > 0 && o.models != "":
		return nil, fmt.Errorf("-drift drives the single-model continuous serving loop; fleet and gateway modes serve fixed schedule sets (for drift and hot-swaps on a shared pool use recflex-bench -exp fleet or examples/fleet)")
	case o.drift > 0:
		if !(o.driftAt >= 0 && o.driftAt < 1) {
			return nil, fmt.Errorf("-drift-at %g outside [0,1)", o.driftAt)
		}
		sup := o.supervisor()
		if err := sup.Validate(); err != nil {
			return nil, fmt.Errorf("-canary/-rollback-margin: %w", err)
		}
	default:
		for _, f := range []string{"drift-at", "canary", "rollback-margin"} {
			if set[f] {
				return nil, fmt.Errorf("-%s shapes the drift loop that -drift never starts; set -drift > 0", f)
			}
		}
	}
	// Cache-tier flags: every rejection happens here at the flag boundary, not
	// after minutes of model tuning inside buildFleetSetup.
	if set["cache-budget"] && (!(o.cacheBudget > 0) || math.IsInf(o.cacheBudget, 0)) {
		return nil, fmt.Errorf("-cache-budget must be positive and finite MiB, got %g", o.cacheBudget)
	}
	if _, err := emcache.ParsePolicy(o.cachePolicy); err != nil {
		return nil, fmt.Errorf("-cache-policy: %v", err)
	}
	if o.cacheRetier < 0 {
		return nil, fmt.Errorf("-cache-retier must be >= 0, got %g", o.cacheRetier)
	}
	if (set["cache-budget"] || set["cache-policy"] || set["cache-retier"]) && o.models == "" {
		return nil, fmt.Errorf("the embedding-cache tier is a shared-pool feature; -cache-budget/-cache-policy/-cache-retier need fleet mode (-models)")
	}
	if (set["cache-policy"] || set["cache-retier"]) && !(o.cacheBudget > 0) {
		return nil, fmt.Errorf("-cache-policy/-cache-retier shape a tier that -cache-budget never creates; set -cache-budget > 0")
	}
	// Pool-shaping flags are fleet-only: outside fleet mode they would be
	// silently dead configuration that reads like it took effect. Same bar as
	// the cache flags — reject at the flag boundary, before any tuning.
	if o.models == "" {
		for _, f := range []string{
			"tenants", "policy", "placement", "shed-fraction", "weights", "rebalance",
			"preempt", "reserve", "worker-classes",
			"autoscale-max", "autoscale-every", "autoscale-lag", "autoscale-class",
		} {
			if set[f] {
				return nil, fmt.Errorf("-%s shapes the shared fleet pool; it needs fleet mode (-models)", f)
			}
		}
	}
	nModels := 0
	if o.models != "" {
		nModels = len(strings.Split(o.models, ","))
	}
	if set["weights"] && o.policy != "weighted-fair" {
		return nil, fmt.Errorf("-weights only shapes weighted-fair dispatch (got -policy %s); pass -policy weighted-fair", o.policy)
	}
	if o.rebalance < 0 {
		return nil, fmt.Errorf("-rebalance must be >= 0, got %g", o.rebalance)
	}
	if o.rebalance > 0 && o.gpus < nModels {
		return nil, fmt.Errorf("-rebalance needs at least one worker per model to repartition (%d gpus, %d models)", o.gpus, nModels)
	}
	// Elastic-pool flags interlock: reservations and autoscaling both pin the
	// pool's shape, which the load rebalancer would fight over.
	if set["reserve"] {
		if o.placement == "dedicated" {
			return nil, fmt.Errorf("-reserve needs packed or spread placement (dedicated already partitions the pool)")
		}
		if set["rebalance"] {
			return nil, fmt.Errorf("-reserve and -rebalance are mutually exclusive: the load rebalancer does not honor reservation floors")
		}
		res, err := parseReserve(o.reserve, nModels)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, r := range res {
			total += r
		}
		if total > o.gpus {
			return nil, fmt.Errorf("-reserve pins %d workers but the pool has only %d", total, o.gpus)
		}
		if total == o.gpus {
			for i, r := range res {
				if r == 0 {
					return nil, fmt.Errorf("-reserve leaves no shared workers and model %d reserves none; it could never dispatch", i)
				}
			}
		}
	}
	if o.autoMax < 0 {
		return nil, fmt.Errorf("-autoscale-max must be >= 0 (0 disables autoscaling), got %d", o.autoMax)
	}
	if (set["autoscale-every"] || set["autoscale-lag"] || set["autoscale-class"]) && o.autoMax == 0 {
		return nil, fmt.Errorf("-autoscale-every/-autoscale-lag/-autoscale-class shape an autoscaler that -autoscale-max never creates; set -autoscale-max > 0")
	}
	if o.autoMax > 0 {
		if o.autoMax < o.gpus {
			return nil, fmt.Errorf("-autoscale-max %d below the initial -gpus %d", o.autoMax, o.gpus)
		}
		if set["rebalance"] {
			return nil, fmt.Errorf("-autoscale-max and -rebalance are mutually exclusive: the autoscaler owns the pool's shape")
		}
		if o.placement == "dedicated" {
			return nil, fmt.Errorf("-autoscale-max needs packed or spread placement (a dedicated partition has no shared workers to grow)")
		}
		if !(o.autoEvery > 0) || math.IsInf(o.autoEvery, 0) {
			return nil, fmt.Errorf("-autoscale-every must be positive and finite seconds, got %g", o.autoEvery)
		}
		if o.autoLag < 0 || math.IsNaN(o.autoLag) || math.IsInf(o.autoLag, 0) {
			return nil, fmt.Errorf("-autoscale-lag must be finite and >= 0, got %g", o.autoLag)
		}
	}
	if set["worker-classes"] {
		if set["device"] {
			return nil, fmt.Errorf("-worker-classes assigns each worker's device; drop the explicit -device")
		}
		classes, _, err := parseWorkerClasses(o.workerClasses)
		if err != nil {
			return nil, err
		}
		if len(classes) != o.gpus {
			return nil, fmt.Errorf("-worker-classes lists %d classes for %d gpus (one per worker)", len(classes), o.gpus)
		}
	}
	if set["autoscale-class"] {
		if !set["worker-classes"] {
			return nil, fmt.Errorf("-autoscale-class selects a device class for a heterogeneous pool; pass -worker-classes too")
		}
		if _, err := classDevice(o.autoClass); err != nil {
			return nil, fmt.Errorf("-autoscale-class: %v", err)
		}
	}
	return &o, nil
}

// classDevice resolves one -worker-classes entry to its simulated device.
func classDevice(name string) (*gpusim.Device, error) {
	switch name {
	case "V100":
		return gpusim.V100(), nil
	case "A100":
		return gpusim.A100(), nil
	}
	return nil, fmt.Errorf("unknown device class %q (want V100 or A100)", name)
}

// parseWorkerClasses decodes the -worker-classes flag: one device-class name
// per worker. Distinct names index the pool's class list in first-appearance
// order, so "V100,V100,A100" yields classes [0,0,1] and names [V100,A100].
func parseWorkerClasses(s string) ([]int, []string, error) {
	var classes []int
	var names []string
	idx := make(map[string]int)
	for _, entry := range strings.Split(s, ",") {
		name := strings.TrimSpace(entry)
		if _, err := classDevice(name); err != nil {
			return nil, nil, fmt.Errorf("-worker-classes: %v", err)
		}
		c, ok := idx[name]
		if !ok {
			c = len(names)
			idx[name] = c
			names = append(names, name)
		}
		classes = append(classes, c)
	}
	return classes, names, nil
}

// parseReserve decodes the -reserve flag: one exclusive-worker count per
// -models entry, in order.
func parseReserve(s string, models int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != models {
		return nil, fmt.Errorf("-reserve lists %d counts for %d models (one comma-separated count per -models entry)", len(parts), models)
	}
	out := make([]int, models)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-reserve: bad count %q (want an integer >= 0)", strings.TrimSpace(p))
		}
		out[i] = n
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("recflex-serve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, report out,
// every failure — including a trace that admits zero requests — surfaces as
// an error (and a non-zero exit) instead of a table of zero-value metrics.
func run(args []string, w io.Writer) error {
	o, err := parseFlags(args, w)
	if err != nil {
		return err
	}
	if o.replaySession != "" {
		return runReplaySession(o, w)
	}
	if o.listen != "" {
		return runGateway(o, w)
	}
	if o.models != "" {
		return runFleet(o, w)
	}

	cfg, dev, err := modelDevice(o.model, o.device, o.scale)
	if err != nil {
		return err
	}
	features := experiments.Features(cfg)
	rf, err := tuneModel(cfg, dev, features)
	if err != nil {
		return err
	}

	reqs, err := trace.Generate(o.requests, o.generator(cfg.Seed^0x5E17E))
	if err != nil {
		return err
	}
	if o.drift > 0 {
		fmt.Fprintf(w, "continuous serving: %d requests at %.0f qps on %dx %s/%s (%d features, %.1f%% long tail)\n",
			len(reqs), o.qps, o.gpus, dev.Name, cfg.Name, len(features), o.tailProb*100)
		return runDrift(w, rf, cfg, reqs, o.supervisor(), o.drift, o.driftAt)
	}
	batches, err := prebuildBatches(cfg, reqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serving %d requests at %.0f qps on %dx %s/%s (%d features, %.1f%% long tail, %d shared batches)\n\n",
		len(reqs), o.qps, o.gpus, dev.Name, cfg.Name, len(features), o.tailProb*100, len(batches))
	systems := append(baselines.All(), rf)
	tbl := &report.Table{
		Title:  "end-to-end request latency",
		Header: []string{"System", "p50", "p95", "p99", "GPU util", "shed", "timeout"},
	}
	var rfMetrics *trace.Metrics
	for _, sys := range systems {
		if sys.Supports(features) != nil {
			continue
		}
		srv, err := trace.NewServer(o.queuePolicy, serviceFor(sys, dev, features, batches))
		if err != nil {
			return err
		}
		rep, err := srv.Serve(reqs)
		if err != nil {
			return fmt.Errorf("%s: %v", sys.Name(), err)
		}
		m := rep.Metrics
		if err := errIfNoneAdmitted(m.Served, len(reqs)); err != nil {
			return fmt.Errorf("%s: %w", sys.Name(), err)
		}
		tbl.AddRow(sys.Name(), report.FmtUS(rep.P50), report.FmtUS(rep.P95),
			report.FmtUS(rep.P99), fmt.Sprintf("%.1f%%", rep.Utilization*100),
			fmt.Sprintf("%d", m.Shed()), fmt.Sprintf("%d", m.Timeouts))
		if sys == baselines.Baseline(rf) {
			rfMetrics = srv.Metrics()
		}
	}
	if err := tbl.Write(w); err != nil {
		return err
	}

	if rfMetrics != nil {
		fmt.Fprintf(w, "\nRecFlex serving detail: %s\n", rfMetrics)
		fmt.Fprintf(w, "\nlatency histogram (served requests):\n%s", rfMetrics.Latency.Render(40))
		fmt.Fprintf(w, "\nper-worker utilization over a %.2fms makespan:\n", rfMetrics.Makespan*1e3)
		for g, wk := range rfMetrics.Workers {
			fmt.Fprintf(w, "  gpu%-2d %6d reqs  busy %8s  util %5.1f%%\n",
				g, wk.Served, report.FmtUS(wk.Busy), wk.Utilization*100)
		}
		maxDepth, sum := 0, 0
		for _, s := range rfMetrics.QueueDepth {
			if s.Depth > maxDepth {
				maxDepth = s.Depth
			}
			sum += s.Depth
		}
		if n := len(rfMetrics.QueueDepth); n > 0 {
			fmt.Fprintf(w, "\nadmission queue: peak depth %d, mean depth %.1f over %d samples\n",
				maxDepth, float64(sum)/float64(n), n)
		}
	}
	return nil
}

// errIfNoneAdmitted turns an all-shed replay into a hard failure: a serving
// run whose every request was dropped before dispatch reports nothing but
// zero-value metrics, which reads like success in a pipeline. Surface it.
func errIfNoneAdmitted(served, total int) error {
	if served > 0 {
		return nil
	}
	return fmt.Errorf("zero of %d requests were admitted and served — every request was shed before dispatch; relax -queue, -deadline, -degrade or the tenant quotas", total)
}

// modelDevice resolves the -model/-device/-scale flags.
func modelDevice(model, device string, scale int) (*datasynth.ModelConfig, *gpusim.Device, error) {
	configs := map[string]*datasynth.ModelConfig{
		"A": datasynth.ModelA(), "B": datasynth.ModelB(), "C": datasynth.ModelC(),
		"D": datasynth.ModelD(), "E": datasynth.ModelE(), "mlperf": datasynth.MLPerfLike(),
	}
	cfg, ok := configs[model]
	if !ok {
		return nil, nil, fmt.Errorf("unknown model %q", model)
	}
	dev, err := classDevice(device)
	if err != nil {
		return nil, nil, fmt.Errorf("unknown device %q", device)
	}
	return datasynth.Scaled(cfg, scale), dev, nil
}

// tuneModel tunes a fresh RecFlex instance on two historical batches, the
// compile-time step shared by the single-model and fleet paths.
func tuneModel(cfg *datasynth.ModelConfig, dev *gpusim.Device, features []fusion.FeatureInfo) (*core.RecFlex, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var historical []*embedding.Batch
	for _, n := range []int{256, 384} {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			return nil, err
		}
		historical = append(historical, b)
	}
	rf := core.New(dev, features)
	if err := rf.Tune(historical, tuner.Options{}); err != nil {
		return nil, err
	}
	return rf, nil
}

// prebuildBatches generates the canonical batch for every quantized size the
// trace — or its split-at-cap fallback — can ask a system to measure. Every
// system shares this table, which is what makes the head-to-head latency
// columns comparable.
func prebuildBatches(cfg *datasynth.ModelConfig, reqs []trace.Request) (map[int]*embedding.Batch, error) {
	sizes := make(map[int]bool)
	for _, r := range reqs {
		sizes[quantize(r.Size)] = true
		if r.Size > splitCap {
			// Split fallback dispatches capped chunks plus a remainder.
			sizes[quantize(splitCap)] = true
			if rem := r.Size % splitCap; rem > 0 {
				sizes[quantize(rem)] = true
			}
		}
	}
	batches := make(map[int]*embedding.Batch, len(sizes))
	for size := range sizes {
		b, err := datasynth.BatchForSize(cfg, size)
		if err != nil {
			return nil, err
		}
		batches[size] = b
	}
	return batches, nil
}

// serviceFor adapts one system's Measure to the serving engine over the
// shared per-size batch table, memoized and safe for the engine's worker
// pool.
func serviceFor(sys baselines.Baseline, dev *gpusim.Device, features []fusion.FeatureInfo, batches map[int]*embedding.Batch) trace.ServiceFunc {
	return trace.MemoService(func(size int) (float64, error) {
		b, ok := batches[quantize(size)]
		if !ok {
			return 0, fmt.Errorf("no pre-generated batch for size %d (quantized %d)", size, quantize(size))
		}
		return sys.Measure(dev, features, b)
	})
}

// runDrift replays a drifting trace through the continuous serving loop:
// pooling factors scale by factor a fraction frac (in [0,1), checked by
// parseFlags) into the trace, the supervisor detects the shift online, re-tunes in the background on one of
// the simulated-GPU worker slots and hot-swaps the fresh schedule set —
// admission never pauses. The same trace replayed with the schedules frozen
// gives the stale baseline the post-swap latency split is measured against.
func runDrift(w io.Writer, rf *core.RecFlex, cfg *datasynth.ModelConfig, reqs []trace.Request, sup trace.SupervisorConfig, factor, frac float64) error {
	// trace.Generate emits requests in arrival order, so the drift step lands
	// at the chosen fraction of the stream.
	at := reqs[int(frac*float64(len(reqs)))].Arrival
	sched := datasynth.StepDrift(at, factor)
	src := func(t float64, size int) (*embedding.Batch, error) {
		return sched.BatchForSize(cfg, t, size)
	}
	opts := core.ContinuousOptions{
		Supervisor: sup,
		Quantum:    sizeQuantum,
		PhaseOf:    sched.PhaseStart,
	}
	fmt.Fprintf(w, "drift: pooling factors x%g from t=%s\n", factor, report.FmtUS(at))
	if sup.CanaryWindow > 0 {
		fmt.Fprintf(w, "guarded promotion: canary window %d completions, rollback margin %.0f%%\n", sup.CanaryWindow, sup.RollbackMargin*100)
	}
	fmt.Fprintln(w)

	live := rf.Clone()
	rep, err := live.ServeContinuous(reqs, src, opts)
	if err != nil {
		return err
	}
	stale, err := rf.ServeFrozen(reqs, src, opts)
	if err != nil {
		return err
	}

	m := rep.Metrics
	if err := errIfNoneAdmitted(m.Served, len(reqs)); err != nil {
		return err
	}
	if len(m.Swaps) == 0 {
		fmt.Fprintln(w, "no drift detected; serving stayed on generation 0")
		return nil
	}
	for i, s := range m.Swaps {
		if s.Rollback {
			// The verdict lives on the promotion this event reverted — the
			// immediately preceding swap (no tune can launch mid-canary).
			promo := m.Swaps[i-1]
			fmt.Fprintf(w, "generation %d: canary measured %s vs baseline %s -> ROLLED BACK to generation %d schedules at t=%s\n",
				s.Generation, report.FmtUS(promo.CanaryMean), report.FmtUS(promo.BaselineMean),
				s.Reinstated, report.FmtUS(s.Swapped))
			continue
		}
		fmt.Fprintf(w, "generation %d: drift detected t=%s -> background tune on gpu%d (%s busy) -> hot-swap t=%s\n",
			s.Generation, report.FmtUS(s.Detected), s.Worker, report.FmtUS(s.TuneDuration), report.FmtUS(s.Swapped))
	}
	if m.Rollbacks > 0 {
		fmt.Fprintf(w, "canary rollbacks: %d of %d promotions reverted\n", m.Rollbacks, len(m.Swaps)-m.Rollbacks)
	}
	freshMean, staleMean, n := core.PostSwapSplit(rep, stale)
	if n == 0 {
		fmt.Fprintln(w, "swap landed after the last request; no post-swap latency to split")
		return nil
	}
	fmt.Fprintf(w, "\npost-swap latency over %d requests: stale %s vs swapped %s -> %s recovery\n",
		n, report.FmtUS(staleMean), report.FmtUS(freshMean), report.FmtRatio(staleMean/freshMean))
	fmt.Fprintf(w, "continuous p50 %s p99 %s | frozen p50 %s p99 %s\n",
		report.FmtUS(rep.P50), report.FmtUS(rep.P99), report.FmtUS(stale.P50), report.FmtUS(stale.P99))
	fmt.Fprintf(w, "serving detail: %s\n", m)
	return nil
}

// parseTenants decodes the -tenants flag: comma-separated
// name:priority[:quota[:deadline_ms]] entries. An empty flag yields one
// unlimited tenant per model so fleet mode works out of the box.
func parseTenants(s string, models int) ([]fleet.TenantSpec, error) {
	if s == "" {
		out := make([]fleet.TenantSpec, models)
		for i := range out {
			out[i] = fleet.TenantSpec{Name: fmt.Sprintf("tenant%d", i)}
		}
		return out, nil
	}
	var out []fleet.TenantSpec
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant %q (want name:priority[:quota[:deadline_ms]])", entry)
		}
		t := fleet.TenantSpec{Name: parts[0]}
		var err error
		if t.Priority, err = strconv.Atoi(parts[1]); err != nil {
			return nil, fmt.Errorf("tenant %s: bad priority %q", t.Name, parts[1])
		}
		if len(parts) > 2 {
			if t.Quota, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("tenant %s: bad quota %q", t.Name, parts[2])
			}
		}
		if len(parts) > 3 {
			ms, err := strconv.ParseFloat(parts[3], 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %s: bad deadline %q", t.Name, parts[3])
			}
			t.Deadline = ms * 1e-3
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// parseWeights decodes the -weights flag: comma-separated priority:weight
// pairs for the weighted-fair policy. An empty flag yields nil (every class
// weighs 1).
func parseWeights(s string) (map[int]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]float64)
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad weight %q (want priority:weight)", entry)
		}
		prio, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad weight priority %q", parts[0])
		}
		w, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight value %q", parts[1])
		}
		if _, dup := out[prio]; dup {
			return nil, fmt.Errorf("duplicate weight for priority %d", prio)
		}
		out[prio] = w
	}
	return out, nil
}

// fleetSetup is everything a shared-pool serving mode needs: the tuned
// models, tenants, per-model request streams and the pool configuration —
// built identically for the batch replay (runFleet), the live gateway
// (runGateway) and the offline session verifier (runReplaySession). Building
// it from the same flags is what lets a recorded gateway session replay
// bit-identically in a separate process.
type fleetSetup struct {
	dev      *gpusim.Device
	models   []core.FleetModel
	tenants  []fleet.TenantSpec
	streams  []fleet.Stream
	cfg      fleet.Config
	strategy fleet.Strategy
	// classes and workerClass mirror cfg.ClassNames/cfg.WorkerClasses for the
	// report (empty for a homogeneous pool).
	classes     []string
	workerClass []int
}

// buildFleetSetup resolves the fleet flags: tenants, placement, admission
// policy, one independently tuned frozen model per -models entry (each with a
// deterministic per-model trace seed) and the shared pool configuration.
func buildFleetSetup(o *options) (*fleetSetup, error) {
	names := strings.Split(o.models, ",")
	tenants, err := parseTenants(o.tenants, len(names))
	if err != nil {
		return nil, err
	}
	strategy, err := fleet.ParseStrategy(o.placement)
	if err != nil {
		return nil, err
	}
	weights, err := parseWeights(o.weights)
	if err != nil {
		return nil, err
	}
	admission, err := fleet.ParsePolicy(o.policy, tenants, o.shedFraction, weights)
	if err != nil {
		return nil, err
	}
	s := &fleetSetup{tenants: tenants, strategy: strategy}
	var reserves []int
	if o.reserve != "" {
		if reserves, err = parseReserve(o.reserve, len(names)); err != nil {
			return nil, err
		}
	}
	// A heterogeneous pool tunes every model on the first listed class and
	// speed-probes the tuned schedules on each other class's device; the
	// probed service ratio becomes the model's per-class ClassScale. Built
	// from flags alone, so a recorded session replays bit-identically.
	baseDev := o.device
	if o.workerClasses != "" {
		if s.workerClass, s.classes, err = parseWorkerClasses(o.workerClasses); err != nil {
			return nil, err
		}
		baseDev = s.classes[0]
		if o.autoClass != "" && indexOf(s.classes, o.autoClass) < 0 {
			s.classes = append(s.classes, o.autoClass)
		}
	}
	var heats []emcache.ModelProfile
	for i, name := range names {
		name = strings.TrimSpace(name)
		cfg, d, err := modelDevice(name, baseDev, o.scale)
		if err != nil {
			return nil, err
		}
		heats = append(heats, emcache.Steady(experiments.CacheHeat(cfg)))
		s.dev = d
		features := experiments.Features(cfg)
		rf, err := tuneModel(cfg, d, features)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", name, err)
		}
		var classScale []float64
		if len(s.classes) > 1 {
			if classScale, err = probeClassScales(cfg, features, rf, s.classes); err != nil {
				return nil, fmt.Errorf("model %s: %w", name, err)
			}
		}
		reqs, err := trace.Generate(o.requests, o.generator(cfg.Seed^0x5E17E^int64(i+1)<<20))
		if err != nil {
			return nil, err
		}
		label := name
		if len(names) > 1 {
			label = fmt.Sprintf("%s/%d", name, i)
		}
		c := cfg
		fm := core.FleetModel{
			Name: label,
			Rec:  rf,
			Source: func(_ float64, size int) (*embedding.Batch, error) {
				return datasynth.BatchForSize(c, size)
			},
			Opts:       core.ContinuousOptions{Quantum: sizeQuantum},
			Frozen:     true,
			ClassScale: classScale,
		}
		if reserves != nil {
			fm.Reserve = reserves[i]
		}
		s.models = append(s.models, fm)
		s.streams = append(s.streams, fleet.Stream{Model: i, Tenant: i % len(tenants), Reqs: reqs})
	}
	s.cfg = fleet.Config{
		Queue:         o.queuePolicy,
		Placement:     strategy,
		Admission:     admission,
		ShedFraction:  o.shedFraction,
		Preempt:       o.preempt,
		WorkerClasses: s.workerClass,
		ClassNames:    s.classes,
	}
	if o.rebalance > 0 {
		s.cfg.RebalanceEvery = o.rebalance
		s.cfg.Rebalance = fleet.NewRebalanceByLoad(fleet.RebalanceByLoadConfig{})
	}
	if o.autoMax > 0 {
		as := &fleet.AutoscaleConfig{Every: o.autoEvery, Max: o.autoMax, ScaleOutLag: o.autoLag}
		if o.autoClass != "" {
			as.Class = indexOf(s.classes, o.autoClass)
		}
		s.cfg.Autoscale = as
	}
	if o.cacheBudget > 0 {
		// The tier's heat profiles come from the same model configs the batch
		// generator uses, so the analytic hit accounting matches the traffic.
		// Building the tier from flags alone (never from runtime state) is what
		// lets -replay-session reconstruct the identical tier in a fresh
		// process.
		cachePolicy, err := emcache.ParsePolicy(o.cachePolicy)
		if err != nil {
			return nil, err
		}
		tier, err := emcache.New(emcache.Config{
			BudgetBytes: int64(o.cacheBudget * (1 << 20)),
			Policy:      cachePolicy,
			RetierEvery: o.cacheRetier,
			Models:      heats,
			Tenants:     len(tenants),
		})
		if err != nil {
			return nil, err
		}
		s.cfg.Cache = tier
	}
	return s, nil
}

// indexOf returns the index of name in names, -1 when absent.
func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// classProbeSize is the batch size the per-class speed probe measures — a
// mid-size serving batch in the same region as the tuner's historical ones.
const classProbeSize = 256

// probeClassScales measures one model's service-time multiplier for every
// worker class. The base class (classes[0], the one base tuned on) is 1 by
// definition; every other class tunes its own instance on that class's device
// and the probe-batch service ratio against the base becomes the scale — a
// schedule deployed on an A100-class worker runs at the A100-tuned speed. The
// ratios are pure functions of the model config and class list, so a session
// replay rebuilds identical scales.
func probeClassScales(cfg *datasynth.ModelConfig, features []fusion.FeatureInfo, base *core.RecFlex, classes []string) ([]float64, error) {
	src := func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
	ref, err := base.TimedService(src, sizeQuantum, nil)(0, classProbeSize)
	if err != nil {
		return nil, err
	}
	if !(ref > 0) {
		return nil, fmt.Errorf("class probe: base service time %g is not positive", ref)
	}
	scales := make([]float64, len(classes))
	scales[0] = 1
	for ci := 1; ci < len(classes); ci++ {
		dev, err := classDevice(classes[ci])
		if err != nil {
			return nil, err
		}
		rf, err := tuneModel(cfg, dev, features)
		if err != nil {
			return nil, fmt.Errorf("class %s tune: %w", classes[ci], err)
		}
		sv, err := rf.TimedService(src, sizeQuantum, nil)(0, classProbeSize)
		if err != nil {
			return nil, err
		}
		scales[ci] = sv / ref
	}
	return scales, nil
}

// printElastic renders the elastic-pool accounting — preemptions and applied
// scale decisions — shared by the batch fleet replay and the session verifier.
func printElastic(w io.Writer, m *fleet.Metrics) {
	if m.Preemptions > 0 {
		fmt.Fprintf(w, "preemptions: %d split chunks yielded to higher-priority arrivals\n", m.Preemptions)
	}
	if len(m.ScaleEvents) == 0 {
		return
	}
	outs, ins := 0, 0
	for _, e := range m.ScaleEvents {
		if e.Delta > 0 {
			outs++
		} else {
			ins++
		}
	}
	fmt.Fprintf(w, "autoscale: %d scale-outs, %d drains over %d worker lifetimes\n", outs, ins, len(m.WorkerLives))
	for _, e := range m.ScaleEvents {
		verb := "added"
		if e.Delta < 0 {
			verb = "drained"
		}
		fmt.Fprintf(w, "  t=%-10s %s gpu%d -> %d active\n", report.FmtUS(e.Time), verb, e.Worker, e.Workers)
	}
}

// printCacheTier renders the embedding-cache tier's accounting, shared by the
// batch fleet replay, the gateway shutdown summary and the session verifier.
func printCacheTier(w io.Writer, m *fleet.Metrics) {
	if m == nil || m.Cache == nil {
		return
	}
	fmt.Fprintf(w, "\nembedding-cache tier: %s\n", m.Cache)
	for _, g := range m.Cache.Models {
		fmt.Fprintf(w, "  model %-12s hit %5.1f%%  cold %10.0f rows  penalty %9.3fms  resident %s\n",
			g.Name, 100*g.HitRate, g.Misses, g.Penalty*1e3, fmtMiB(g.OccupiedBytes))
	}
	for _, g := range m.Cache.Tenants {
		fmt.Fprintf(w, "  tenant %-11s hit %5.1f%%  cold %10.0f rows  penalty %9.3fms\n",
			g.Name, 100*g.HitRate, g.Misses, g.Penalty*1e3)
	}
}

// fmtMiB renders a byte count in MiB for the cache report.
func fmtMiB(b int64) string { return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20)) }

// runFleet serves several independently tuned models over one shared
// simulated GPU pool. Each model gets its own Poisson trace (same -requests
// and -qps, a model-distinct seed) and is mapped round-robin onto the tenant
// list; the merged stream replays under the configured admission policy and
// placement strategy with per-model and per-tenant accounting.
func runFleet(o *options, w io.Writer) error {
	s, err := buildFleetSetup(o)
	if err != nil {
		return err
	}
	dev, models, tenants := s.dev, s.models, s.tenants
	merged := fleet.Merge(s.streams...)

	devName := dev.Name
	if len(s.classes) > 1 {
		devName = strings.Join(s.classes, "+")
	}
	fmt.Fprintf(w, "fleet serving: %d models x %d requests at %.0f qps each on a shared %dx %s pool (%s placement, %s admission)\n\n",
		len(models), o.requests, o.qps, o.gpus, devName, s.strategy, o.policy)
	res, err := core.ServeFleet(s.cfg, models, tenants, merged)
	if err != nil {
		return err
	}
	m := res.Report.Metrics
	if err := errIfNoneAdmitted(m.Served, len(merged)); err != nil {
		return err
	}

	tbl := &report.Table{
		Title:  "per-model latency on the shared pool",
		Header: []string{"Model", "tenant", "p50", "p95", "p99", "served", "shed", "interference"},
	}
	for i, g := range m.Models {
		interf := "n/a"
		if !math.IsNaN(res.Interference[i]) {
			interf = report.FmtRatio(res.Interference[i])
		}
		tbl.AddRow(g.Name, tenants[i%len(tenants)].Name,
			report.FmtUS(g.P50), report.FmtUS(g.P95), report.FmtUS(g.P99),
			fmt.Sprintf("%d", g.Served), fmt.Sprintf("%d", g.Shed()), interf)
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nper-tenant accounting:\n")
	for _, g := range m.Tenants {
		fmt.Fprintf(w, "  %s\n", g.String())
	}
	fmt.Fprintf(w, "\npool: %s\n", m)
	printCacheTier(w, m)
	if m.Rebalances > 0 {
		fmt.Fprintf(w, "rebalances applied: %d (from %d load snapshots)\n", m.Rebalances, len(m.LoadHistory))
	}
	printElastic(w, m)
	fmt.Fprintf(w, "per-worker utilization over a %.2fms makespan:\n", m.Makespan*1e3)
	for g, wk := range m.Workers {
		fmt.Fprintf(w, "  gpu%-2d%s %6d reqs  busy %8s  util %5.1f%%\n",
			g, s.workerLabel(g, m), wk.Served, report.FmtUS(wk.Busy), wk.Utilization*100)
	}
	return nil
}

// workerLabel names worker g's device class for the utilization lines, e.g.
// " [A100]"; empty for a homogeneous pool. Autoscaled runs record every
// worker's class in WorkerLives; static heterogeneous pools read the flag's
// per-worker classes.
func (s *fleetSetup) workerLabel(g int, m *fleet.Metrics) string {
	if len(s.classes) == 0 {
		return ""
	}
	c := 0
	switch {
	case g < len(m.WorkerLives):
		c = m.WorkerLives[g].Class
	case g < len(s.workerClass):
		c = s.workerClass[g]
	}
	return fmt.Sprintf(" [%s]", s.classes[c])
}

// runGateway is the real-time front door: it builds the same shared pool the
// batch fleet mode serves, opens a time-warped gateway session over it, and
// accepts live inference requests over HTTP until the wall duration elapses
// or an interrupt arrives. With -session the admitted stream and outcomes are
// recorded, and the log is immediately re-read and replayed offline through
// the pool as a self-check — the same bit-identical verification
// -replay-session runs in a separate process.
func runGateway(o *options, w io.Writer) error {
	if o.models == "" {
		return fmt.Errorf("-listen serves a shared fleet pool; pass -models (e.g. -models A,C)")
	}
	s, err := buildFleetSetup(o)
	if err != nil {
		return err
	}
	pool, _, err := core.BuildFleetPool(s.cfg, s.models, s.tenants)
	if err != nil {
		return err
	}

	var sessFile *os.File
	gcfg := gateway.Config{Pool: pool, Warp: o.warp}
	if o.session != "" {
		if sessFile, err = os.Create(o.session); err != nil {
			return err
		}
		gcfg.Session = sessFile
	}
	g, err := gateway.New(gcfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g.Handler()}
	go srv.Serve(ln)
	gwDev := s.dev.Name
	if len(s.classes) > 1 {
		gwDev = strings.Join(s.classes, "+")
	}
	fmt.Fprintf(w, "gateway: %d models, %d tenants on a shared %dx %s pool (%s placement, %s admission)\n",
		len(s.models), len(s.tenants), o.gpus, gwDev, s.strategy, o.policy)
	fmt.Fprintf(w, "listening on http://%s (time-warp %gx: 1 wall second = %g simulated seconds)\n",
		ln.Addr(), o.warp, o.warp)
	fmt.Fprintf(w, "endpoints: POST /v1/infer, GET /v1/metrics, GET /healthz\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if o.serveDur > 0 {
		select {
		case <-time.After(time.Duration(o.serveDur * float64(time.Second))):
		case <-sig:
		}
	} else {
		<-sig
	}
	srv.Close()
	ln.Close()

	rep, closeErr := g.Close()
	st := g.Stats()
	fmt.Fprintf(w, "\ngateway session: %d admitted, %d served, %d shed, %d lost (sim clock reached %.3fs)\n",
		st.Admitted, st.Served, st.Shed, st.Lost, st.SimNow)
	if closeErr != nil {
		return closeErr
	}
	if rep != nil {
		fmt.Fprintf(w, "served-sojourn percentiles: p50 %s p95 %s p99 %s (simulated)\n",
			report.FmtUS(st.P50), report.FmtUS(st.P95), report.FmtUS(st.P99))
		fmt.Fprintf(w, "pool: %s\n", rep.Metrics)
		printElastic(w, rep.Metrics)
		printCacheTier(w, rep.Metrics)
	}
	if sessFile == nil {
		return nil
	}
	if err := sessFile.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "session log recorded to %s (verify later with -replay-session %s and the same pool flags)\n",
		o.session, o.session)
	if st.Admitted == 0 {
		return nil
	}
	f, err := os.Open(o.session)
	if err != nil {
		return err
	}
	sess, err := gateway.ReadSession(f)
	f.Close()
	if err != nil {
		return err
	}
	rrep, err := sess.Replay(pool)
	if err != nil {
		return fmt.Errorf("session self-check failed: %w", err)
	}
	// The per-request comparison inside Replay already proves the sojourns
	// (and therefore the cache-inflated service times) reproduce; with a tier
	// armed, also hold the aggregate hit/miss accounting to the same bar.
	if rep != nil && rrep != nil && !reflect.DeepEqual(rep.Metrics.Cache, rrep.Metrics.Cache) {
		return fmt.Errorf("session self-check failed: cache tier counters diverged between live session and replay:\nlive:   %+v\nreplay: %+v",
			rep.Metrics.Cache, rrep.Metrics.Cache)
	}
	fmt.Fprintf(w, "session self-check: %d recorded requests replayed bit-identically\n", len(sess.Requests))
	return nil
}

// runReplaySession rebuilds the pool from the same flags as the recording run
// and replays a recorded gateway session through it offline, verifying every
// outcome, sojourn, worker and generation bit for bit.
func runReplaySession(o *options, w io.Writer) error {
	if o.models == "" {
		return fmt.Errorf("-replay-session rebuilds the recording run's pool; pass the same -models (and pool flags) as the gateway run")
	}
	s, err := buildFleetSetup(o)
	if err != nil {
		return err
	}
	pool, _, err := core.BuildFleetPool(s.cfg, s.models, s.tenants)
	if err != nil {
		return err
	}
	f, err := os.Open(o.replaySession)
	if err != nil {
		return err
	}
	sess, err := gateway.ReadSession(f)
	f.Close()
	if err != nil {
		return err
	}
	rep, err := sess.Replay(pool)
	if err != nil {
		return fmt.Errorf("session %s diverged from the live run: %w", o.replaySession, err)
	}
	m := rep.Metrics
	fmt.Fprintf(w, "replayed %d recorded requests bit-identically: %d served, %d shed over a %.3fs sim makespan\n",
		len(sess.Requests), m.Served, m.Shed(), m.Makespan)
	fmt.Fprintf(w, "pool: %s\n", m)
	printElastic(w, m)
	printCacheTier(w, m)
	return nil
}
