package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every workload to about a second of load on models cut
// to a handful of features.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.budget = time.Second
	cfg.setups = 2
	cfg.workDir = t.TempDir()
	cfg.serveScale = 400
	cfg.warmRate = 500
	cfg.estimateReqs = 100
	cfg.coldRate = 200
	cfg.coldRequests = 20
	cfg.replayScale = 400
	cfg.replayReqs = 5000
	cfg.tuneScale = 500
	cfg.evalBatches = 2
	cfg.rerunBatches = 4
	return cfg
}

// skipShort skips a test that tunes models for every workload: about 20s
// alone and minutes under the race detector. The -short tests still cover
// the driver, the tracer and the gateway wrappers under -race.
func skipShort(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes every workload's models; run without -short")
	}
}

type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// BENCHMARK.json and the program agree on every workload and metric.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// Every workload runs untraced and traced, passes its output checks, and
// prints every metric BENCHMARK.json names, with its unit, as the last line.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	skipShort(t)
	spec := readSpec(t)
	for _, traced := range []bool{false, true} {
		var out, errs bytes.Buffer
		if code := runWorkloads(tinyConfig(t), "all", traced, &out, &errs); code != 0 {
			t.Fatalf("traced %v: exit %d\n%s\n%s", traced, code, out.String(), errs.String())
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		var results []jsonResult
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "{") {
				var r jsonResult
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("bad result line %q: %v", line, err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(workloads) {
			t.Fatalf("traced %v: %d result lines for %d workloads\n%s", traced, len(results), len(workloads), out.String())
		}
		for i, r := range results {
			name := workloads[i].name
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced %v: correct %v attempted %d failed %d", name, traced, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced %v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced %v: %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced %v: %s in %s, want %s", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %g, must be positive", name, m.Name, got.Value)
				}
			}
		}
	}
}

// The traced run joins each request's spans into one tree: every joined span
// shares its parent's id and lies inside the parent's interval, and every
// handler, service call and batch synthesis found its parent.
func TestTracedSpansNestPerRequest(t *testing.T) {
	e := &env{cfg: tinyConfig(t), out: io.Discard, tr: newTracer()}
	e.tr.on.Store(true)
	res, err := runServeCold(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.errs) > 0 {
		t.Fatalf("output checks failed: %v", res.errs)
	}
	spans := e.tr.spans
	counts := map[spanName]int{}
	for i := range spans {
		s := &spans[i]
		counts[s.name]++
		switch s.name {
		case spanHTTP, spanService, spanBatch, spanSend:
			if s.parent < 0 {
				t.Fatalf("%s span %d (id %d) has no parent", s.name, i, s.id)
			}
		}
		if s.parent < 0 {
			continue
		}
		p := &spans[s.parent]
		if p.id != s.id {
			t.Fatalf("%s span %d has id %d, its parent %s has %d", s.name, i, s.id, p.name, p.id)
		}
		if s.start < p.start || s.end > p.end {
			t.Fatalf("%s span %d [%d,%d] outside parent %s [%d,%d]", s.name, i, s.start, s.end, p.name, p.start, p.end)
		}
	}
	for _, n := range []spanName{spanRequest, spanSend, spanHTTP, spanService, spanBatch} {
		if counts[n] == 0 {
			t.Errorf("no %s spans", n)
		}
	}
}

// Tracing observes the deterministic outputs without changing them: the
// elastic replay digest and the tuning results are identical traced and not.
func TestTracingKeepsOutputs(t *testing.T) {
	skipShort(t)
	cfg := tinyConfig(t)
	plain := &env{cfg: cfg, out: io.Discard}
	traced := &env{cfg: cfg, out: io.Discard, tr: newTracer()}
	traced.tr.on.Store(true)

	a, err := plain.elasticSetup()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.elasticSetup()
	if err != nil {
		t.Fatal(err)
	}
	if a.want != b.want {
		t.Errorf("replay digest %016x untraced, %016x traced", a.want, b.want)
	}

	inputs, err := plain.tuneInputs()
	if err != nil {
		t.Fatal(err)
	}
	ta, err := plain.tunePass(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := traced.tunePass(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ta {
		if !reflect.DeepEqual(ta[i].choice, tb[i].choice) || ta[i].occupancy != tb[i].occupancy ||
			math.Float64bits(ta[i].latency) != math.Float64bits(tb[i].latency) ||
			math.Float64bits(ta[i].recflex) != math.Float64bits(tb[i].recflex) {
			t.Errorf("%s: tuning differs traced vs untraced", inputs[i].cfg.Name)
		}
	}
	if traced.tunes != len(inputs)+4 || traced.memoMiss == 0 {
		t.Errorf("traced run counted %d tunes and %d simulations", traced.tunes, traced.memoMiss)
	}
}

// A session log altered after recording must fail the run.
func TestTamperedSessionFailsTheRun(t *testing.T) {
	skipShort(t)
	cfg := tinyConfig(t)
	cfg.setups = 1
	e := &env{cfg: cfg, out: io.Discard}
	tampered := 0
	e.sessionFilter = func(log []byte) []byte {
		lines := strings.Split(string(log), "\n")
		for i, l := range lines {
			if f := strings.Fields(l); len(f) == 9 && f[0] == "out" {
				f[5] = "0x1p+00" // a one-second sojourn the engine never produced
				lines[i] = strings.Join(f, " ")
				tampered++
				break
			}
		}
		return []byte(strings.Join(lines, "\n"))
	}
	res, err := runServeWarm(e)
	if err != nil {
		t.Fatal(err)
	}
	if tampered == 0 {
		t.Fatal("no session log was recorded")
	}
	if len(res.errs) < tampered {
		t.Fatalf("%d tampered logs, %d failed checks: %v", tampered, len(res.errs), res.errs)
	}
	for _, err := range res.errs {
		if !strings.Contains(err.Error(), "sojourn diverged") {
			t.Errorf("unexpected failure: %v", err)
		}
	}
}
