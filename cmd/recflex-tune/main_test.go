package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// Flag validation fails fast, before any dataset is generated or tuning runs.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error, when the row pins one
	}{
		{args: []string{"-model", "Z"}},
		{args: []string{"-device", "H100"}},
		{args: []string{"-scale", "0"}},
		{args: []string{"-scale", "-10"}},
		{args: []string{"-batches", "0"}},
		{args: []string{"-batch-cap", "0"}},
		{args: []string{"-workers", "-1"}},
		{args: []string{"-warm-start", "/nonexistent/warm.json", "-scale", "400"}},
		// The serial engine ignores a warm start, so the pair is dead
		// configuration, rejected before the file is read.
		{args: []string{"-serial", "-warm-start", "/nonexistent/warm.json", "-scale", "400"}, want: "no effect with -serial"},
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

// checkTrials parses the per-occupancy lines of a report. A measured trial
// prints its latency and an abandoned one its bound, marked as such; neither
// may read below the selected latency.
func checkTrials(t *testing.T, out string) (abandoned int) {
	t.Helper()
	var selected float64
	_, report, _ := strings.Cut(out, "selected occupancy")
	if _, err := fmt.Sscanf(report, ": %d blocks/SM; fused latency over tuning data: %fus", new(int), &selected); err != nil {
		t.Fatalf("no selected latency in:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		_, trial, ok := strings.Cut(line, "blocks/SM -> ")
		if !ok || !strings.HasPrefix(line, "  occupancy") {
			continue
		}
		var us float64
		format := "%fus"
		if strings.HasPrefix(trial, "abandoned") {
			format = "abandoned (> %fus)"
			abandoned++
		}
		if _, err := fmt.Sscanf(trial, format, &us); err != nil {
			t.Fatalf("trial line %q: %v", line, err)
		}
		if us < selected {
			t.Errorf("trial line %q reads below the selected %.2fus", line, selected)
		}
	}
	return abandoned
}

// A tiny tuning run through the seam: report printed, schedules saved, and the
// saved file warm-starts a second run.
func TestRunTinyTuneAndWarmStart(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tuned.json")
	args := []string{"-model", "A", "-scale", "400", "-batches", "2", "-o", out}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run failed: %v\n%s", err, buf.String())
	}
	s := buf.String()
	for _, want := range []string{"tuned in", "selected occupancy", "schedule distribution", "tuned schedules saved to"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q in:\n%s", want, s)
		}
	}

	checkTrials(t, s)

	var warm bytes.Buffer
	if err := run([]string{"-model", "A", "-scale", "400", "-batches", "2", "-warm-start", out}, &warm); err != nil {
		t.Fatalf("warm-started run failed: %v\n%s", err, warm.String())
	}
	// The incumbent is measured first, so the occupancies it beats print
	// as abandoned with their bound.
	if n := checkTrials(t, warm.String()); n == 0 {
		t.Errorf("warm-started output prints no abandoned trial:\n%s", warm.String())
	}
}
