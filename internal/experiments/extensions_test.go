package experiments

import (
	"bytes"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestExtensions(t *testing.T) {
	s := testSuite()
	res, err := s.Extensions()
	if err != nil {
		t.Fatal(err)
	}
	// Placement: LPT must not lose to the capacity-only straw man.
	if res.PlacementMakespan["lpt"] > res.PlacementMakespan["capacity-only"]*1.02 {
		t.Errorf("LPT (%g) lost to capacity-only (%g)",
			res.PlacementMakespan["lpt"], res.PlacementMakespan["capacity-only"])
	}
	// UVM: kernel time must fall monotonically as the hot cache grows.
	for i := 1; i < len(res.UVMTimes); i++ {
		if res.UVMTimes[i] > res.UVMTimes[i-1]*1.001 {
			t.Errorf("UVM sweep not monotone at fraction %.3f: %g -> %g",
				res.UVMFractions[i], res.UVMTimes[i-1], res.UVMTimes[i])
		}
	}
	// The fully-resident point must be far faster than the 0.1% cache.
	if res.UVMTimes[len(res.UVMTimes)-1]*2 > res.UVMTimes[0] {
		t.Errorf("cache sweep too flat: %g .. %g", res.UVMTimes[0], res.UVMTimes[len(res.UVMTimes)-1])
	}
	// Preprocess fusion wins.
	if res.PreprocFused >= res.PreprocSeparate {
		t.Errorf("fused preproc (%g) should beat separate kernels (%g)", res.PreprocFused, res.PreprocSeparate)
	}
	// The hybrid split wins on bimodal pooling factors (intra-feature
	// heterogeneity). Host sorting alone trades divergence for per-warp
	// memory concentration and may not win on time.
	if res.HybridTime >= res.UnsortedTime {
		t.Errorf("hybrid split (%g) should beat uniform sub-warp (%g)", res.HybridTime, res.UnsortedTime)
	}
	if res.SortedTime <= 0 {
		t.Error("sorted variant not measured")
	}
}

func TestPrintExtensions(t *testing.T) {
	s := testSuite()
	var buf bytes.Buffer
	if err := s.PrintExtensions(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"multi-GPU placement", "UVM", "preprocess fusion", "intra-feature"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// Equation 2 must hold within a modest band on the tuned kernels: the whole
// local-stage ranking depends on it.
func TestEq2FidelityOnTunedKernels(t *testing.T) {
	s := testSuite()
	rows, err := s.Eq2Fidelity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 0.85 || r.Ratio > 1.7 {
			t.Errorf("model %s: Eq.2 ratio %.3f outside the credible band (blocks %d, slots %d)",
				r.Model, r.Ratio, r.Blocks, r.Slots)
		}
	}
}

// driftDigest hashes one supervised report as exact hex floats: every
// request's outcome, generation and sojourn; the aggregates and counters;
// every swap event field except the host-time TuneWall; and the per-worker
// stats. The queue-depth series is left out.
func driftDigest(rep *trace.Report) string {
	h := fnv.New64a()
	hex := func(v float64) { io.WriteString(h, strconv.FormatFloat(v, 'x', -1, 64)+" ") }
	num := func(v int) { io.WriteString(h, strconv.Itoa(v)+" ") }
	for i := range rep.Sojourn {
		num(int(rep.Outcomes[i]))
		num(rep.Generations[i])
		hex(rep.Sojourn[i])
	}
	for _, v := range []float64{rep.P50, rep.P95, rep.P99, rep.MeanService, rep.Utilization} {
		hex(v)
	}
	m := rep.Metrics
	for _, v := range []int{m.Served, m.SplitServed, m.Timeouts, m.DeadlineSheds, m.QueueSheds,
		m.MaxQueueDepth, m.Generation, m.Rollbacks} {
		num(v)
	}
	hex(m.Makespan)
	hex(m.TuneBusy)
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
	for _, w := range m.Workers {
		num(w.Served)
		hex(w.Busy)
		hex(w.TuneBusy)
		hex(w.Utilization)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// The §IV-A3 lifecycle: drift is detected and re-tuning recovers latency.
func TestDriftStudy(t *testing.T) {
	s := testSuite()
	res, err := s.DriftStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("4x pooling-factor drift not detected")
	}
	if res.Improvement < 1.0 {
		t.Errorf("re-tuning made things worse: %.3f", res.Improvement)
	}
	// The three replays, pinned bit for bit (digests captured from the
	// single-model replay engine's supervised loop).
	for _, c := range []struct {
		name string
		rep  *trace.Report
		want string
	}{
		{"continuous", res.continuous, "cc793d8be2365877"},
		{"frozen", res.frozen, "ca09ab7d1d393f58"},
		{"guard", res.guard, "d94c4a57e4ceb099"},
	} {
		if c.rep == nil {
			t.Fatalf("%s replay missing", c.name)
		}
		if got := driftDigest(c.rep); got != c.want {
			t.Errorf("%s replay digest %s, want %s", c.name, got, c.want)
		}
	}
	// The fleet-speed act: at this scale (~40 features) the warm-started,
	// memo-shared fleet re-tune must cut the measured drift-detect→hot-swap
	// wall time at least 3x against the serial reference, without changing
	// the selected schedule set (the engines select bit-identically, so the
	// match is required exactly).
	if res.RetuneWallSerial <= 0 || res.RetuneWallWarm <= 0 || res.RetuneWallFleet <= 0 {
		t.Fatalf("re-tune wall times not measured: serial %g warm %g fleet %g",
			res.RetuneWallSerial, res.RetuneWallWarm, res.RetuneWallFleet)
	}
	if res.RetuneSpeedup < 3 {
		t.Errorf("fleet-speed re-tune only %.2fx faster (serial %.0fms, fleet %.0fms), want >= 3x",
			res.RetuneSpeedup, res.RetuneWallSerial*1e3, res.RetuneWallFleet*1e3)
	}
	if !res.FastScheduleMatch {
		t.Error("fleet-speed re-tune selected a different schedule set than the serial reference")
	}
	if res.RetuneWallFleet >= res.RetuneWallWarm {
		t.Errorf("memo-warm fleet re-tune %.0fms did not beat the cold-memo warm re-tune %.0fms",
			res.RetuneWallFleet*1e3, res.RetuneWallWarm*1e3)
	}
	t.Logf("re-tune wall: serial %.0fms, warm-start %.0fms, fleet-shared memo %.0fms (%.1fx)",
		res.RetuneWallSerial*1e3, res.RetuneWallWarm*1e3, res.RetuneWallFleet*1e3, res.RetuneSpeedup)

	// The poisoned-retune act: the canary guard must catch the 3x-slower
	// promotion, roll it back, and latency must recover after the revert.
	if res.PoisonRollbacks != 1 {
		t.Fatalf("canary rollbacks %d, want the poisoned promotion caught exactly once", res.PoisonRollbacks)
	}
	if res.PoisonCanaryMean <= res.PoisonBaselineMean {
		t.Errorf("poisoned canary %g not worse than baseline %g — nothing to catch",
			res.PoisonCanaryMean, res.PoisonBaselineMean)
	}
	if res.RollbackAt <= 0 {
		t.Errorf("rollback time not recorded: t=%g", res.RollbackAt)
	}
	if res.PostRollbackMean <= 0 || res.PostRollbackMean >= res.PoisonCanaryMean {
		t.Errorf("post-rollback mean %g did not recover below the poisoned canary mean %g",
			res.PostRollbackMean, res.PoisonCanaryMean)
	}
}
