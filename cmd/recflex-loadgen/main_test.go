package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gateway"
)

// Flag validation fails fast with a clear message, before any socket is dialed.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-rate", "0"},
		{"-rate", "-5"},
		{"-rate", "+Inf"},
		{"-rate", "NaN"},
		{"-requests", "0"},
		{"-requests", "-3"},
		{"-workers", "0"},
		{"-workers", "-1"},
		{"-model", "-1"},
		{"-tenant", "-2"},
		{"-deadline-sim", "-0.5"},
		{"-deadline-sim", "NaN"},
		{"-deadline-sim", "+Inf"},
		{"-arrival", "bursty"},
		{"-arrival", "diurnal:0"},
		{"-arrival", "diurnal:10:2"},
		{"-arrival", "flash:1:2"},
		{"-arrival", "flash:1:2:0.5"},
		{"-sizes", "zipf:2"},
		{"-url", ""},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// Happy path against a stand-in gateway: the CLI prints the open-loop banner,
// the counters and the latency line, and exits cleanly when nothing failed.
func TestRunAgainstFakeGateway(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		json.NewEncoder(w).Encode(gateway.InferResponse{Outcome: "served"})
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{
		"-url", srv.URL, "-rate", "2000", "-arrival", "fixed",
		"-requests", "12", "-workers", "4", "-sizes", "fixed:32",
	}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if got := hits.Load(); got != 12 {
		t.Errorf("server saw %d requests, want 12", got)
	}
	s := out.String()
	for _, want := range []string{"open-loop load", "12 sent, 12 served", "wall latency from intended send"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q in:\n%s", want, s)
		}
	}

	// Shaped arrivals ride the same path: a diurnal schedule with a short
	// period drains against the fake gateway and reports its spelling.
	out.Reset()
	err = run([]string{
		"-url", srv.URL, "-rate", "4000", "-arrival", "diurnal:0.05:0.9",
		"-requests", "8", "-workers", "4", "-sizes", "fixed:16",
	}, &out)
	if err != nil {
		t.Fatalf("diurnal run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "diurnal(4000/s, period 0.05s, amplitude 0.9)") {
		t.Errorf("banner missing diurnal spelling:\n%s", out.String())
	}
}

// Transport-level failures exit non-zero: an unreachable gateway is an error,
// not a zero-latency success.
func TestRunFailsOnErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{"-url", srv.URL, "-rate", "5000", "-requests", "5", "-workers", "2"}, &out)
	if err == nil {
		t.Fatalf("run succeeded although every request failed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Errorf("error does not mention failed requests: %v", err)
	}
}
