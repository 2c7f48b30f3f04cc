package core

import (
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/gpusim"
	"repro/internal/trace"
	"repro/internal/tuner"
)

// continuousFixture builds the shared drifting-trace scenario: a tuned
// instance, a Poisson trace whose pooling factors scale 4x a third of the
// way in, and the continuous-serving options used across these tests.
func continuousFixture(t *testing.T) (*RecFlex, []trace.Request, TimedBatchSource, ContinuousOptions) {
	t.Helper()
	rf, cfg := tunedInstance(t)
	reqs, err := trace.Generate(96, trace.GeneratorConfig{
		QPS: 40, MaxBatch: 512, Seed: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	drift := datasynth.StepDrift(reqs[len(reqs)/3].Arrival, 4)
	src := func(tt float64, size int) (*embedding.Batch, error) {
		return drift.BatchForSize(cfg, tt, size)
	}
	opts := ContinuousOptions{
		Supervisor: trace.SupervisorConfig{
			Server:     trace.ServerConfig{Workers: 2},
			Window:     12,
			CheckEvery: 6,
			MaxRetunes: 1,
		},
		Quantum: 64,
		PhaseOf: drift.PhaseStart,
		Tune:    tuner.Options{Occupancies: []int{2, 4, 8}, Parallelism: 4},
	}
	return rf, reqs, src, opts
}

// The end-to-end acceptance path of the continuous serving loop: the
// supervisor notices the drift, re-tunes in the background without pausing
// admission, hot-swaps, and the post-swap latency beats the frozen baseline.
func TestServeContinuousEndToEnd(t *testing.T) {
	rf, reqs, src, opts := continuousFixture(t)

	live := rf.Clone()
	rep, err := live.ServeContinuous(reqs, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Generation != 1 {
		t.Fatalf("want exactly one hot-swap, got %d (generation %d)", len(m.Swaps), m.Generation)
	}
	s := m.Swaps[0]
	driftAt := reqs[len(reqs)/3].Arrival
	if s.Detected < driftAt {
		t.Errorf("drift detected at %g, before it started at %g", s.Detected, driftAt)
	}
	if !(s.Detected <= s.Start && s.Start < s.Swapped) {
		t.Errorf("swap timeline out of order: detected %g, tune start %g, swapped %g",
			s.Detected, s.Start, s.Swapped)
	}
	if m.TuneBusy <= 0 {
		t.Errorf("background tune occupied no worker time")
	}
	if m.Served != len(reqs) || m.Shed() != 0 || m.Timeouts != 0 {
		t.Errorf("requests lost during hot-swap: %s", m)
	}
	// Admission never pauses: generation stamps are monotone 0...01...1 and
	// both generations actually served traffic.
	swapped := 0
	for i, g := range rep.Generations {
		if i > 0 && g < rep.Generations[i-1] {
			t.Fatalf("generation stamps not monotone at %d: %v -> %v", i, rep.Generations[i-1], g)
		}
		if g == 1 {
			swapped++
		}
	}
	if swapped == 0 || swapped == len(reqs) {
		t.Fatalf("swap did not split the trace: %d/%d requests on generation 1", swapped, len(reqs))
	}
	// The hot-swap survives the run: the live instance adopted the fresh
	// tuning, while the original (the frozen baseline) kept its own.
	if live.Tuned() == rf.Tuned() {
		t.Error("live instance still serves the stale schedule set after the swap")
	}

	stale, err := rf.ServeFrozen(reqs, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	sm := stale.Metrics
	if sm.Generation != 0 || len(sm.Swaps) != 0 || sm.TuneBusy != 0 {
		t.Fatalf("frozen baseline re-tuned: generation %d, %d swaps", sm.Generation, len(sm.Swaps))
	}
	freshMean, staleMean, n := PostSwapSplit(rep, stale)
	if n != swapped {
		t.Fatalf("PostSwapSplit covered %d requests, want %d", n, swapped)
	}
	if math.IsNaN(freshMean) || math.IsNaN(staleMean) {
		t.Fatalf("post-swap means undefined: fresh %g, stale %g", freshMean, staleMean)
	}
	if freshMean > staleMean {
		t.Errorf("post-swap latency did not recover: swapped %gus vs stale %gus",
			freshMean*1e6, staleMean*1e6)
	}
	t.Logf("post-swap over %d requests: stale %.2fus vs swapped %.2fus (%.3fx)",
		n, staleMean*1e6, freshMean*1e6, staleMean/freshMean)
}

// reportDigest hashes every field of a serving report as exact hex floats,
// except the host-time TuneWall of the run and of each swap: per-request
// sojourns, outcomes and generations; the aggregates; every counter; the
// latency histogram, per-worker stats and queue-depth series; the swap
// history with its canary verdicts. Equal digests mean bit-identical runs,
// NaN swap means included.
func reportDigest(rep *trace.Report) string {
	h := fnv.New64a()
	hex := func(v float64) { io.WriteString(h, strconv.FormatFloat(v, 'x', -1, 64)+" ") }
	num := func(v int) { io.WriteString(h, strconv.Itoa(v)+" ") }
	for i := range rep.Sojourn {
		hex(rep.Sojourn[i])
	}
	for i := range rep.Outcomes {
		num(int(rep.Outcomes[i]))
	}
	for i := range rep.Generations {
		num(rep.Generations[i])
	}
	num(rep.Served)
	for _, v := range []float64{rep.P50, rep.P95, rep.P99, rep.MeanService, rep.Utilization} {
		hex(v)
	}
	m := rep.Metrics
	for _, v := range []int{m.Served, m.SplitServed, m.Timeouts, m.DeadlineSheds, m.QueueSheds,
		m.QuotaSheds, m.LoadSheds, m.MaxQueueDepth, m.Generation, m.Rollbacks} {
		num(v)
	}
	hex(m.Makespan)
	hex(m.TuneBusy)
	lat := m.Latency
	for _, v := range []float64{lat.Min, lat.Max, lat.Sum, lat.LowValue, lat.HighValue} {
		hex(v)
	}
	num(int(lat.Total))
	for _, c := range lat.Counts {
		num(int(c))
	}
	for _, w := range m.Workers {
		num(w.Served)
		hex(w.Busy)
		hex(w.TuneBusy)
		hex(w.Utilization)
	}
	for _, q := range m.QueueDepth {
		hex(q.Time)
		num(q.Depth)
	}
	for _, s := range m.Swaps {
		num(s.Generation)
		num(s.Worker)
		num(s.Reinstated)
		io.WriteString(h, strconv.FormatBool(s.Rollback)+" ")
		for _, v := range []float64{s.Detected, s.Start, s.Swapped, s.TuneDuration,
			s.PreMean, s.PostMean, s.CanaryMean, s.BaselineMean} {
			hex(v)
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Two identically-seeded drifting runs must be bit-identical — the whole
// loop (admission, windowing, detection, background tune, swap timing,
// metrics) is a pure function of (instance, trace, options). The digest
// covers every report field but the host-time tune wall clocks.
func TestServeContinuousDeterministicSeed(t *testing.T) {
	rf, reqs, src, opts := continuousFixture(t)

	run := func() string {
		rep, err := rf.Clone().ServeContinuous(reqs, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(rep)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identically-seeded runs diverged: digest %s vs %s", a, b)
	}

	frozen := func() string {
		rep, err := rf.ServeFrozen(reqs, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(rep)
	}
	if fa, fb := frozen(), frozen(); fa != fb {
		t.Fatalf("identically-seeded frozen runs diverged: digest %s vs %s", fa, fb)
	}
}

// The guarded loop on a clean drift: the canary confirms the genuine
// re-tune instead of rolling it back, records its verdict in the swap event,
// and the receiver still adopts the fresh tuning. Guarded runs stay
// deterministic.
func TestServeContinuousCanaryConfirmsRetune(t *testing.T) {
	rf, reqs, src, opts := continuousFixture(t)
	opts.Supervisor.CanaryWindow = 8
	opts.Supervisor.RollbackMargin = 0.5

	live := rf.Clone()
	rep, err := live.ServeContinuous(reqs, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Generation != 1 || m.Rollbacks != 0 {
		t.Fatalf("want one confirmed promotion, got %d swaps generation %d rollbacks %d",
			len(m.Swaps), m.Generation, m.Rollbacks)
	}
	s := m.Swaps[0]
	if s.Rollback {
		t.Fatalf("clean drift rolled back: %+v", s)
	}
	if s.CanaryMean <= 0 || s.BaselineMean <= 0 {
		t.Fatalf("canary verdict not recorded: canary %g baseline %g", s.CanaryMean, s.BaselineMean)
	}
	if s.CanaryMean > s.BaselineMean*(1+opts.Supervisor.RollbackMargin) {
		t.Errorf("canary %g vs baseline %g exceeds the margin yet no rollback happened",
			s.CanaryMean, s.BaselineMean)
	}
	if live.Tuned() == rf.Tuned() {
		t.Error("confirmed promotion not adopted: live instance still on the stale schedule set")
	}

	run := func() string {
		rep, err := rf.Clone().ServeContinuous(reqs, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(rep)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identically-seeded guarded runs diverged: digest %s vs %s", a, b)
	}
}

func TestServeContinuousErrors(t *testing.T) {
	features, cfg := coreModel(t)
	rf := New(gpusim.V100(), features)
	src := func(tt float64, size int) (*embedding.Batch, error) {
		return datasynth.BatchForSize(cfg, size)
	}
	reqs := []trace.Request{{Arrival: 0, Size: 64}}
	if _, err := rf.ServeContinuous(reqs, src, ContinuousOptions{}); err == nil {
		t.Error("ServeContinuous accepted an untuned instance")
	}
	if _, err := rf.ServeFrozen(reqs, src, ContinuousOptions{}); err == nil {
		t.Error("ServeFrozen accepted an untuned instance")
	}
}

func TestPostSwapSplit(t *testing.T) {
	mk := func(soj []float64, gens []int) *trace.Report {
		rep := &trace.Report{Generations: gens}
		rep.Sojourn = soj
		return rep
	}
	fresh := mk([]float64{1, 2, 3, 4}, []int{0, 0, 1, 1})
	stale := mk([]float64{1, 2, 5, 7}, []int{0, 0, 0, 0})
	fm, sm, n := PostSwapSplit(fresh, stale)
	if n != 2 || fm != 3.5 || sm != 6 {
		t.Errorf("split = (%g, %g, %d), want (3.5, 6, 2)", fm, sm, n)
	}
	// No post-swap requests: undefined means, zero count.
	fm, sm, n = PostSwapSplit(mk([]float64{1}, []int{0}), mk([]float64{2}, []int{0}))
	if n != 0 || !math.IsNaN(fm) || !math.IsNaN(sm) {
		t.Errorf("empty split = (%g, %g, %d), want (NaN, NaN, 0)", fm, sm, n)
	}
}
