package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/fleet"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/trace"
)

// recordingSystem captures exactly which batch it was asked to measure for
// each size, standing in for a real baseline.
type recordingSystem struct {
	name string
	seen map[int]*embedding.Batch
}

func (r *recordingSystem) Name() string                        { return r.name }
func (r *recordingSystem) Supports([]fusion.FeatureInfo) error { return nil }
func (r *recordingSystem) Measure(_ *gpusim.Device, _ []fusion.FeatureInfo, b *embedding.Batch) (float64, error) {
	size := len(b.Features[0].Offsets) - 1
	r.seen[size] = b
	return float64(size) * 1e-6, nil
}

// Regression test for the shared-rng fairness bug: two systems' service
// functions must observe the *same* pre-generated batch for the same
// request size, regardless of measurement order.
func TestSystemsObserveIdenticalBatches(t *testing.T) {
	cfg := datasynth.Scaled(datasynth.ModelA(), 50)
	reqs, err := trace.Generate(60, trace.GeneratorConfig{
		QPS: 1000, MaxBatch: splitCap, TailProb: 0.1,
		TailSize: datasynth.LongTailRequest, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := prebuildBatches(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if _, ok := batches[quantize(r.Size)]; !ok {
			t.Fatalf("no batch for request size %d", r.Size)
		}
	}

	dev := gpusim.V100()
	a := &recordingSystem{name: "A", seen: make(map[int]*embedding.Batch)}
	b := &recordingSystem{name: "B", seen: make(map[int]*embedding.Batch)}
	for _, sys := range []*recordingSystem{a, b} {
		if _, err := trace.Serve(reqs, serviceFor(sys, dev, nil, batches)); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.seen) == 0 || len(a.seen) != len(b.seen) {
		t.Fatalf("systems saw %d and %d sizes", len(a.seen), len(b.seen))
	}
	for size, ba := range a.seen {
		bb, ok := b.seen[size]
		if !ok {
			t.Fatalf("system B never measured size %d", size)
		}
		if ba != bb {
			t.Errorf("size %d: systems measured different batch instances", size)
		}
	}

	// The table itself is deterministic: rebuilding it yields batches with
	// identical contents (not merely identical pointers within one run).
	again, err := prebuildBatches(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(batches) {
		t.Fatalf("rebuild produced %d sizes, want %d", len(again), len(batches))
	}
	for size, b1 := range batches {
		b2 := again[size]
		if b2 == nil || !reflect.DeepEqual(b1.Features[0], b2.Features[0]) {
			t.Errorf("size %d: rebuilt batch differs", size)
		}
	}
}

// The split-at-cap fallback can only dispatch sizes that exist in the
// shared batch table.
func TestPrebuildCoversSplitChunks(t *testing.T) {
	cfg := datasynth.Scaled(datasynth.ModelA(), 50)
	reqs := []trace.Request{{Arrival: 0, Size: datasynth.LongTailRequest}}
	batches, err := prebuildBatches(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{quantize(datasynth.LongTailRequest), quantize(splitCap)} {
		if _, ok := batches[size]; !ok {
			t.Errorf("batch table missing size %d", size)
		}
	}
}

// The zero-admitted satellite: a configuration under which every request is
// shed before dispatch must fail the command with a clear error instead of
// printing a table of zero-value metrics. DegradeShed plus a deadline far
// below any service time sheds the entire trace.
func TestRunZeroAdmittedFails(t *testing.T) {
	err := run([]string{
		"-scale", "400", "-requests", "12", "-qps", "50000",
		"-degrade", "shed", "-deadline", "0.0001",
	}, io.Discard)
	if err == nil {
		t.Fatal("run succeeded although no request could be admitted and served")
	}
	if !strings.Contains(err.Error(), "zero of 12 requests") {
		t.Errorf("error does not explain the all-shed trace: %v", err)
	}
}

// Fleet mode end to end through the run() seam: two independently tuned
// models, two tenants, priority-EDF over a shared two-GPU pool. The report
// must split per model and per tenant, and the whole replay must be
// deterministic — two invocations print identical bytes.
func TestRunFleetMode(t *testing.T) {
	args := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0:6",
		"-policy", "priority-edf", "-placement", "spread",
		"-scale", "400", "-requests", "24", "-qps", "4000",
		"-gpus", "2", "-queue", "32",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fleet serving", "A/0", "A/1", "hi", "lo", "per-tenant accounting", "interference", "spread placement"} {
		if !strings.Contains(s, want) {
			t.Errorf("fleet output missing %q in:\n%s", want, s)
		}
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != s {
		t.Error("fleet mode is not deterministic: two runs printed different reports")
	}
}

// Fleet mode through the run() seam: weighted-fair admission and
// split-at-cap degradation both leave their marks on the report,
// deterministically. The
// deadline (9us) sits between the small-request sojourn (~6us) and the
// long-tail service time (~11us at scale 400), so tail requests split
// instead of being served whole or shed.
func TestRunFleetWeightedFairSplit(t *testing.T) {
	args := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-policy", "weighted-fair", "-weights", "1:3,0:1",
		"-scale", "400", "-requests", "30", "-qps", "2000",
		"-gpus", "2", "-queue", "32",
		"-degrade", "split-tail", "-tail", "0.25", "-deadline", "0.009",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"weighted-fair admission", "split="} {
		if !strings.Contains(s, want) {
			t.Errorf("fleet output missing %q in:\n%s", want, s)
		}
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != s {
		t.Error("weighted-fair fleet mode is not deterministic: two runs printed different reports")
	}
}

func TestParseWeights(t *testing.T) {
	got, err := parseWeights("1:3, 0:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[int]float64{1: 3, 0: 1.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseWeights = %v, want %v", got, want)
	}
	if got, err := parseWeights(""); err != nil || got != nil {
		t.Errorf("parseWeights(\"\") = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"x:1", "1:x", "1", "1:2:3", "1:1,1:2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) succeeded, want error", bad)
		}
	}
}

// Flag validation fails fast, inside parseFlags, before any tuning happens.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-model", "Z"},
		{"-device", "H100"},
		{"-degrade", "gracefully"},
		{"-models", "A", "-drift", "2"},
		{"-models", "A", "-placement", "ring"},
		{"-models", "A", "-policy", "lifo"},
		{"-models", "A", "-tenants", "noprio"},
		{"-models", "A", "-policy", "weighted-fair", "-weights", "1:x"},
		{"-models", "A", "-policy", "weighted-fair", "-weights", "0:1,0:2"},
		{"-models", "A", "-policy", "weighted-fair", "-weights", "9:2"},
		{"-models", "A", "-tenants", "hi:1,lo:0", "-policy", "weighted-fair", "-weights", "1:0,0:0"},
		{"-models", "Z,A"},
		{"-models", "A,Z"},
		{"-models", "A", "-model", "C"},
		{"-models", "A", "-policy", "fifo", "-weights", "1:2"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}

// parseFlags builds the generator, queue, supervisor and fleet pool configs
// from the flags and runs their own Validate methods, so each of these fails
// at flag-parse time, before any model is tuned.
func TestParseFlagsValidatesEngineConfigs(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-degrade", "gracefully"}, "unknown degrade policy"},
		{[]string{"-models", "A", "-degrade", "gracefully"}, "unknown degrade policy"},
		{[]string{"-tail", "2"}, "TailProb"},
		{[]string{"-models", "A", "-tail", "-0.5"}, "TailProb"},
		{[]string{"-qps", "NaN"}, "QPS"},
		{[]string{"-models", "A", "-qps", "NaN"}, "QPS"},
		{[]string{"-tail", "NaN"}, "TailProb"},
		{[]string{"-deadline", "-1"}, "Deadline"},
		{[]string{"-models", "A", "-deadline", "-1"}, "Deadline"},
		// The flag is in milliseconds: the message quotes it as typed before
		// the engine's seconds.
		{[]string{"-deadline", "-1"}, "-deadline -1ms: trace: Deadline must be >= 0, got -0.001"},
		{[]string{"-deadline", "NaN"}, "-deadline NaNms"},
		{[]string{"-models", "A", "-tenants", "hi:1:0:NaN"}, "Deadline"},
		{[]string{"-models", "A", "-tenants", "hi:1:0:-1"}, "-tenants hi:1:0:-1: fleet: tenant hi: Deadline must be >= 0, got -0.001"},
		{[]string{"-models", "A,Z"}, "unknown model"},
		{[]string{"-drift", "-1"}, "-drift must be"},
		{[]string{"-drift", "NaN"}, "-drift must be"},
		{[]string{"-drift", "2", "-drift-at", "1.5"}, "-drift-at"},
		{[]string{"-drift", "2", "-drift-at", "-0.1"}, "-drift-at"},
		{[]string{"-drift", "2", "-canary", "-1"}, "CanaryWindow"},
		{[]string{"-drift", "2", "-rollback-margin", "-0.1"}, "RollbackMargin"},
		{[]string{"-drift", "2", "-rollback-margin", "NaN"}, "RollbackMargin"},
		{[]string{"-models", "A", "-drift", "2"}, "single-model"},
		{[]string{"-models", "A", "-replay-session", "s.log", "-drift", "2"}, "single-model"},
		// Drift-loop flags without -drift are dead configuration.
		{[]string{"-drift-at", "0.5"}, "-drift-at"},
		{[]string{"-canary", "4"}, "-canary"},
		{[]string{"-rollback-margin", "0.2"}, "-rollback-margin"},
		{[]string{"-models", "A", "-canary", "4"}, "-canary"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args, io.Discard)
		if err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) error %q does not mention %q", c.args, err, c.want)
		}
	}

	// The queue policy each mode serves under: single-model defaults to
	// split-tail at the split cap, the fleet pool to serve-all without one.
	accepted := []struct {
		args []string
		want trace.QueuePolicy
	}{
		{[]string{"-gpus", "2", "-queue", "8", "-deadline", "1.5"},
			trace.QueuePolicy{Workers: 2, QueueDepth: 8, Deadline: 1.5e-3, Policy: trace.DegradeSplitTail, SplitCap: splitCap}},
		{[]string{"-degrade", "shed", "-drift", "2", "-drift-at", "0", "-canary", "8", "-rollback-margin", "0"},
			trace.QueuePolicy{Workers: 1, Policy: trace.DegradeShed, SplitCap: splitCap}},
		{[]string{"-models", "A,C"}, trace.QueuePolicy{Workers: 1, Policy: trace.DegradeServe}},
		{[]string{"-models", "A", "-degrade", "split-tail"},
			trace.QueuePolicy{Workers: 1, Policy: trace.DegradeSplitTail, SplitCap: splitCap}},
		// wfq and drr name the weighted-fair policy, so they take weights.
		{[]string{"-models", "A", "-tenants", "hi:1,lo:0", "-policy", "wfq", "-weights", "1:2"},
			trace.QueuePolicy{Workers: 1, Policy: trace.DegradeServe}},
		{[]string{"-models", "A", "-policy", "drr", "-weights", "0:3"},
			trace.QueuePolicy{Workers: 1, Policy: trace.DegradeServe}},
	}
	for _, c := range accepted {
		o, err := parseFlags(c.args, io.Discard)
		if err != nil {
			t.Errorf("parseFlags(%v) = %v, want success", c.args, err)
			continue
		}
		if o.queuePolicy != c.want {
			t.Errorf("parseFlags(%v) queue policy %+v, want %+v", c.args, o.queuePolicy, c.want)
		}
	}
}

// The cache-tier flag sweep: every bad spelling fails inside parseFlags, before
// any model is tuned, with a message naming the offending flag or, where
// emcache.New judges the value, the tier's field.
func TestRunRejectsBadCacheFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-models", "A", "-cache-budget", "0"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-budget", "-4"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-budget", "+Inf"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-budget", "NaN"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-budget", "1e300"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-budget", "4", "-cache-policy", "arc"}, "-cache-policy"},
		{[]string{"-models", "A", "-cache-budget", "4", "-cache-retier", "-1"}, "RetierEvery"},
		{[]string{"-models", "A", "-cache-budget", "4", "-cache-retier", "NaN"}, "RetierEvery"},
		// The tier's heat comes from every listed model's config.
		{[]string{"-models", "A,Z", "-cache-budget", "4"}, "unknown model"},
		// Cache flags outside fleet mode are dead configuration: reject.
		{[]string{"-cache-budget", "4"}, "fleet mode"},
		{[]string{"-cache-policy", "lru"}, "-cache-policy"},
		{[]string{"-model", "A", "-cache-retier", "0.5"}, "fleet mode"},
		// Policy/retier without a budget shape a tier that never exists.
		{[]string{"-models", "A", "-cache-policy", "lru"}, "-cache-budget"},
		{[]string{"-models", "A", "-cache-retier", "0.5"}, "-cache-budget"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args, io.Discard)
		if err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) error %q does not mention %q", c.args, err, c.want)
		}
	}
}

// The elastic-pool flag sweep: every inconsistent combination fails inside
// parseFlags, before any model is tuned, with a message naming the offending
// flag or, where fleet.Config.Validate judges the value, the config field.
func TestRunRejectsBadElasticFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		// Pool-shaping flags outside fleet mode are dead configuration: reject.
		{[]string{"-preempt"}, "-models"},
		{[]string{"-reserve", "1"}, "-models"},
		{[]string{"-worker-classes", "V100"}, "-models"},
		{[]string{"-autoscale-max", "4"}, "-models"},
		{[]string{"-tenants", "hi:1"}, "-models"},
		{[]string{"-model", "A", "-weights", "1:2"}, "-models"},
		// Weights only steer the weighted-fair policy.
		{[]string{"-models", "A", "-weights", "1:2"}, "weighted-fair"},
		{[]string{"-models", "A", "-queue", "8", "-shed-fraction", "NaN"}, "ShedFraction"},
		{[]string{"-models", "A", "-shed-fraction", "0.5"}, "bounded queue"},
		{[]string{"-models", "A,Z"}, "unknown model"},
		// Reservations: count list aligned with -models, exclusive with
		// dedicated placement, bounded by the pool.
		{[]string{"-models", "A", "-reserve", "1,1"}, "Reserve has 2 entries"},
		{[]string{"-models", "A", "-reserve", "x"}, "-reserve"},
		{[]string{"-models", "A", "-reserve", "-1"}, "Reserve[0]"},
		{[]string{"-models", "A", "-placement", "dedicated", "-reserve", "1"}, "dedicated"},
		{[]string{"-models", "A", "-gpus", "2", "-reserve", "3"}, "Reserve pins"},
		{[]string{"-models", "A,A", "-gpus", "2", "-reserve", "2,0"}, "shared"},
		// Autoscaling: sub-flags without -autoscale-max are dead, and the
		// ceiling cannot sit below the initial worker count.
		{[]string{"-models", "A", "-autoscale-every", "0.1"}, "-autoscale-max"},
		{[]string{"-models", "A", "-autoscale-lag", "0.1"}, "-autoscale-max"},
		{[]string{"-models", "A", "-autoscale-max", "-1"}, "Autoscale.Max"},
		{[]string{"-models", "A", "-gpus", "2", "-autoscale-max", "1"}, "Autoscale.Max"},
		{[]string{"-models", "A", "-autoscale-max", "2", "-autoscale-every", "0"}, "Autoscale.Every"},
		{[]string{"-models", "A", "-autoscale-max", "2", "-autoscale-every", "NaN"}, "Autoscale.Every"},
		{[]string{"-models", "A", "-autoscale-max", "2", "-autoscale-lag", "-1"}, "ScaleOutLag"},
		{[]string{"-models", "A", "-autoscale-max", "2", "-autoscale-lag", "NaN"}, "ScaleOutLag"},
		{[]string{"-models", "A", "-placement", "dedicated", "-autoscale-max", "2"}, "dedicated"},
		// Worker classes: one per -gpus entry, known device names only, and
		// the explicit -device flag contradicts per-worker devices.
		{[]string{"-models", "A", "-gpus", "2", "-worker-classes", "V100"}, "WorkerClasses"},
		{[]string{"-models", "A", "-gpus", "1", "-worker-classes", "H100"}, "H100"},
		{[]string{"-models", "A", "-gpus", "1", "-device", "A100", "-worker-classes", "A100"}, "-device"},
		// The autoscale class needs the heterogeneous pool and a real device.
		{[]string{"-models", "A", "-autoscale-max", "2", "-autoscale-class", "A100"}, "-worker-classes"},
		{[]string{"-models", "A", "-gpus", "1", "-worker-classes", "V100", "-autoscale-max", "2", "-autoscale-class", "H100"}, "H100"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args, io.Discard)
		if err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseFlags(%v) error %q does not mention %q", c.args, err, c.want)
		}
	}
}

// The elastic heterogeneous pool through the run() seam: preemption,
// V100+A100 worker classes and autoscaling all leave their marks on the
// report, deterministically.
func TestRunFleetElasticMode(t *testing.T) {
	args := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-requests", "60", "-qps", "150000",
		"-gpus", "2", "-queue", "64",
		"-degrade", "split-tail", "-tail", "0.5", "-deadline", "0.02",
		"-preempt", "-worker-classes", "V100,A100",
		"-autoscale-max", "4", "-autoscale-every", "0.00002", "-autoscale-lag", "0.00001",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"V100+A100 pool",
		"preemptions:", "yielded to higher-priority arrivals",
		"autoscale:", "scale-outs", "drains", "worker lifetimes",
		"added gpu2", "[V100]", "[A100]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("elastic fleet output missing %q in:\n%s", want, s)
		}
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != s {
		t.Error("elastic fleet mode is not deterministic: two runs printed different reports")
	}
}

// Reservations through the run() seam: a reserved floor for the interactive
// model still serves everyone, and the report stays deterministic.
func TestRunFleetReserveMode(t *testing.T) {
	args := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-requests", "24", "-qps", "4000",
		"-gpus", "3", "-queue", "32", "-reserve", "1,0",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out.String() {
		t.Error("reserved fleet mode is not deterministic: two runs printed different reports")
	}
}

// Fleet mode with the cache tier through the run() seam: the report carries
// the tier's accounting and stays deterministic, and the lru tier must not
// hit less than the frozen static allocation on the same trace.
func TestRunFleetModeWithCache(t *testing.T) {
	args := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-requests", "24", "-qps", "4000",
		"-gpus", "2", "-queue", "32",
		"-cache-budget", "2", "-cache-policy", "lru", "-cache-retier", "0.01",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"embedding-cache tier: policy=lru", "hit-rate=", "model A/0", "tenant hi", "penalty"} {
		if !strings.Contains(s, want) {
			t.Errorf("cache fleet output missing %q in:\n%s", want, s)
		}
	}
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != s {
		t.Error("cache fleet mode is not deterministic: two runs printed different reports")
	}
}

func TestParseTenants(t *testing.T) {
	got, err := parseTenants("interactive:2, bulk:0:8:5.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.TenantSpec{
		{Name: "interactive", Priority: 2},
		{Name: "bulk", Priority: 0, Quota: 8, Deadline: 0.0055},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTenants = %+v, want %+v", got, want)
	}

	def, err := parseTenants("", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 3 || def[2].Name != "tenant2" || def[0].Priority != 0 {
		t.Errorf("default tenants = %+v", def)
	}

	for _, bad := range []string{"x", "x:high", "x:1:many", "x:1:2:soon", ":1", "x:1:2:3:4", "x:-1:-2"} {
		if _, err := parseTenants(bad, 1); err == nil {
			t.Errorf("parseTenants(%q) succeeded, want error", bad)
		}
	}
}

// syncBuffer lets the test read run()'s output while the gateway goroutine is
// still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Gateway validation fails fast, before any pool is tuned or a socket opened.
func TestRunRejectsBadGatewayFlags(t *testing.T) {
	cases := [][]string{
		{"-gpus", "0"},
		{"-gpus", "-1"},
		{"-queue", "-1"},
		{"-requests", "0"},
		{"-scale", "0"},
		{"-qps", "0"},
		{"-warp", "0"},
		{"-warp", "-3"},
		{"-warp", "+Inf"},
		{"-serve-duration", "-1"},
		{"-models", "A", "-listen", ":0", "-serve-duration", "NaN"},
		{"-models", "A", "-listen", ":0", "-serve-duration", "+Inf"},
		{"-listen", "127.0.0.1:0"},      // gateway needs -models
		{"-replay-session", "nope.log"}, // replay needs -models
		// Gateway flags without -listen are dead configuration.
		{"-models", "A", "-session", "s.log"},
		{"-models", "A", "-warp", "10"},
		{"-models", "A", "-serve-duration", "1"},
		{"-models", "A", "-replay-session", "s.log", "-warp", "10"},
		{"-models", "A", "-listen", ":0", "-replay-session", "s.log"},
		{"-models", "A", "-listen", ":0", "-drift", "2"}, // drift is batch-only
		{"-models", "A", "-replay-session", "/nonexistent/x.log", "-scale", "400"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// The tentpole, end to end through the CLI seam: a live time-warped gateway
// session over a two-model fleet pool, driven by concurrent HTTP clients,
// recorded to a session log, then verified bit-identically by a *separate*
// run() invocation that rebuilds the pool from the same flags — the
// cross-process replay story, minus the process boundary.
func TestRunGatewayServeAndReplaySession(t *testing.T) {
	sess := filepath.Join(t.TempDir(), "session.log")
	poolFlags := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-gpus", "2", "-queue", "16", "-qps", "4000",
		"-cache-budget", "2", "-cache-policy", "lru", "-cache-retier", "0.01",
	}
	serveArgs := append(append([]string{}, poolFlags...),
		"-listen", "127.0.0.1:0", "-warp", "5000",
		"-serve-duration", "1.5", "-session", sess,
	)
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(serveArgs, &out) }()

	addrRe := regexp.MustCompile(`listening on (http://\S+) `)
	var base string
	for deadline := time.Now().Add(60 * time.Second); base == ""; {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("gateway exited before listening (err=%v):\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never started listening:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"model":%d,"tenant":%d,"size":%d}`, i%2, i%2, 16+i*8)
			resp, err := client.Post(base+"/v1/infer", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okCount.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if okCount.Load() == 0 {
		t.Fatalf("no inference request got a 200:\n%s", out.String())
	}

	if err := <-done; err != nil {
		t.Fatalf("gateway run failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"gateway session:", "session log recorded to", "replayed bit-identically",
		"embedding-cache tier: policy=lru",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("gateway output missing %q in:\n%s", want, s)
		}
	}

	// Offline verification by a fresh invocation rebuilding the pool from the
	// same flags — this is what -replay-session in a new process does.
	replayArgs := append(append([]string{}, poolFlags...), "-replay-session", sess)
	var rout bytes.Buffer
	if err := run(replayArgs, &rout); err != nil {
		t.Fatalf("replay-session diverged: %v\n%s", err, rout.String())
	}
	for _, want := range []string{"bit-identically", "embedding-cache tier: policy=lru"} {
		if !strings.Contains(rout.String(), want) {
			t.Errorf("replay output missing %q:\n%s", want, rout.String())
		}
	}

	// A pool built with *different* flags must not verify: the session replay
	// is a real check, not a formality. A different tuning scale changes every
	// service time, so the recorded sojourns cannot reproduce. (The elastic
	// variant of this cross-process story lives in
	// TestRunGatewayElasticReplaySession.)
	wrongArgs := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "300", "-gpus", "2", "-queue", "16", "-qps", "4000",
		"-cache-budget", "2", "-cache-policy", "lru", "-cache-retier", "0.01",
		"-replay-session", sess,
	}
	if err := run(wrongArgs, io.Discard); err == nil {
		t.Error("replay against a differently tuned pool verified the session")
	}

	// Likewise the cache tier is part of the pool's identity: dropping it (or
	// shrinking its budget) changes the recorded cold-row penalties, so the
	// same session must fail to verify against a cache-less rebuild.
	noCacheArgs := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-gpus", "2", "-queue", "16", "-qps", "4000",
		"-replay-session", sess,
	}
	if err := run(noCacheArgs, io.Discard); err == nil {
		t.Error("replay without the recorded cache tier verified the session")
	}
}

// The elastic acceptance gate through the CLI seam: a live gateway session
// over a preemption-armed, autoscaling, heterogeneous (V100+A100) pool must
// record a session log that a fresh run() invocation — rebuilding the pool
// from the same flags, per-class probes and all — replays bit-identically.
func TestRunGatewayElasticReplaySession(t *testing.T) {
	sess := filepath.Join(t.TempDir(), "elastic.log")
	poolFlags := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-gpus", "2", "-queue", "32", "-qps", "4000",
		"-degrade", "split-tail", "-deadline", "0.02",
		"-preempt", "-worker-classes", "V100,A100",
		"-autoscale-max", "4", "-autoscale-every", "0.00002", "-autoscale-lag", "0.00001",
	}
	serveArgs := append(append([]string{}, poolFlags...),
		"-listen", "127.0.0.1:0", "-warp", "5000",
		"-serve-duration", "1.5", "-session", sess,
	)
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(serveArgs, &out) }()

	addrRe := regexp.MustCompile(`listening on (http://\S+) `)
	var base string
	for deadline := time.Now().Add(60 * time.Second); base == ""; {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("gateway exited before listening (err=%v):\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never started listening:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Long-tail sizes on the low-priority tenant feed the split path
			// the preemption gate guards.
			size := 16 + i*8
			if i%3 == 0 {
				size = datasynth.LongTailRequest
			}
			body := fmt.Sprintf(`{"model":%d,"tenant":%d,"size":%d}`, i%2, i%2, size)
			resp, err := client.Post(base+"/v1/infer", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				okCount.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if okCount.Load() == 0 {
		t.Fatalf("no inference request got a 200:\n%s", out.String())
	}

	if err := <-done; err != nil {
		t.Fatalf("gateway run failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"gateway session:", "V100+A100 pool", "replayed bit-identically"} {
		if !strings.Contains(s, want) {
			t.Errorf("elastic gateway output missing %q in:\n%s", want, s)
		}
	}

	// Offline verification by a fresh invocation rebuilding the elastic pool
	// from the same flags — scale events and preemptions must reproduce.
	replayArgs := append(append([]string{}, poolFlags...), "-replay-session", sess)
	var rout bytes.Buffer
	if err := run(replayArgs, &rout); err != nil {
		t.Fatalf("elastic replay-session diverged: %v\n%s", err, rout.String())
	}
	if !strings.Contains(rout.String(), "bit-identically") {
		t.Errorf("replay output missing the verification line:\n%s", rout.String())
	}

	// Dropping the elastic flags changes the pool's identity: the same
	// session must fail to verify against a static homogeneous rebuild.
	staticArgs := []string{
		"-models", "A,A", "-tenants", "hi:1,lo:0",
		"-scale", "400", "-gpus", "2", "-queue", "32", "-qps", "4000",
		"-degrade", "split-tail", "-deadline", "0.02",
		"-replay-session", sess,
	}
	if err := run(staticArgs, io.Discard); err == nil {
		t.Error("replay against a static homogeneous pool verified an elastic session")
	}
}
