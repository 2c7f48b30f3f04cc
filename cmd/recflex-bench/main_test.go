package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// Flag validation fails fast, before any experiment or benchmark starts.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error, when the row pins one
	}{
		{args: []string{"-scale", "0"}},
		{args: []string{"-scale", "-1"}},
		{args: []string{"-tune", "0"}},
		{args: []string{"-eval", "0"}},
		{args: []string{"-workers", "-1"}},
		{args: []string{"-perf-count", "0", "-perf", "x.json"}},
		{args: []string{"-perf-regress", "-0.1", "-perf", "x.json"}, want: "-perf-regress must be >= 0"},
		{args: []string{"-exp", "fig99"}},
		{args: []string{"-perf", "out.json", "-perf-baseline", "/nonexistent/base.json"}, want: "perf baseline:"},
		// Dead configuration: flags the chosen mode never reads.
		{args: []string{"-paper", "-scale", "5"}, want: "overrides -scale"},
		{args: []string{"-paper", "-tune", "3"}, want: "overrides -tune"},
		{args: []string{"-paper", "-eval", "3"}, want: "overrides -eval"},
		{args: []string{"-perf", "x.json", "-exp", "fig9"}, want: "-exp shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-scale", "5"}, want: "-scale shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-tune", "3"}, want: "-tune shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-eval", "3"}, want: "-eval shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-workers", "2"}, want: "-workers shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-paper"}, want: "-paper shapes the paper experiments"},
		{args: []string{"-perf", "x.json", "-csv", "out"}, want: "-csv shapes the paper experiments"},
		{args: []string{"-exp", "table1", "-perf-baseline", "b.json"}, want: "-perf-baseline shapes the hot-path suite"},
		{args: []string{"-exp", "table1", "-perf-count", "2"}, want: "-perf-count shapes the hot-path suite"},
		{args: []string{"-exp", "table1", "-perf-regress", "0.3"}, want: "-perf-regress shapes the hot-path suite"},
		{args: []string{"-exp", "table1", "-perf-note", "x"}, want: "-perf-note shapes the hot-path suite"},
		{args: []string{"-perf", "x.json", "-perf-regress", "0.3"}, want: "pass -perf-baseline"},
		// The CI perf gate's command line passes validation: it fails only
		// where it reads the (here missing) baseline file.
		{args: []string{"-perf", "BENCH_ci.json", "-perf-baseline", "/nonexistent/BENCH_22.json", "-perf-count", "3", "-perf-note", "ci run"}, want: "perf baseline:"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) failed with %q, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

// The cheap static experiments run through the seam and print their tables.
func TestRunStaticExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1,fig3"}, &out); err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"[table1 finished in", "[fig3 finished in", "all experiments done in"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q in:\n%s", want, s)
		}
	}
}
