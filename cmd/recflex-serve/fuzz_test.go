package main

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"repro/internal/fleet"
)

// FuzzParseFlagsPool pins that the fleet pool configuration is validated once,
// at flag parse: whenever parseFlags accepts a fleet-mode flag set, the
// configuration it built must build a pool — fleet.NewPool succeeds on it with
// stub models of constant service time — and that pool must serve a short
// stream without an engine error, resolving every request. The pool-shaping
// values run through NaN, ±Inf, negatives and free-form lists; mask picks
// which flags are passed at all, so the dead-configuration rules are
// exercised too.
func FuzzParseFlagsPool(f *testing.F) {
	nan, inf := "NaN", "+Inf"
	f.Add(uint16(0x1fff), uint8(1), int8(2), int8(8), uint8(0), "0.5", "1,0", "V100,A100",
		int8(4), "0.005", "0", "A100", "2", "lru", "0.01")
	f.Add(uint16(0x1c2f), uint8(2), int8(3), int8(0), uint8(1), "0", "1,0,0", "V100,V100,A100",
		int8(6), "0.001", "0.0005", "V100", "1", "static", "0")
	f.Add(uint16(0x1fff), uint8(0), int8(1), int8(4), uint8(2), nan, "-1", "H100",
		int8(-1), nan, nan, "H100", nan, "arc", nan)
	f.Add(uint16(0x1fff), uint8(1), int8(2), int8(-1), uint8(3), inf, "9223372036854775807,1", "",
		int8(1), inf, inf, "", inf, "", inf)
	f.Add(uint16(0x1fff), uint8(1), int8(-2), int8(2), uint8(0), "-Inf", "2,0", "V100,V100",
		int8(2), "-1", "-1", "A100", "-4", "clock", "-1")
	f.Add(uint16(0x1601), uint8(1), int8(2), int8(0), uint8(0), "0", "", "",
		int8(0), "0", "0", "", "1e300", "lru", "1e-9")
	f.Fuzz(func(t *testing.T, mask uint16, nModels uint8, gpus, queue int8, placement uint8,
		shed, reserve, classes string, autoMax int8, autoEvery, autoLag, autoClass string,
		cacheBudget, cachePolicy, cacheRetier string) {
		flags := []struct{ name, value string }{
			{"gpus", strconv.Itoa(int(gpus))},
			{"queue", strconv.Itoa(int(queue))},
			{"placement", []string{"packed", "spread", "dedicated", "ring"}[placement%4]},
			{"shed-fraction", shed},
			{"reserve", reserve},
			{"worker-classes", classes},
			{"autoscale-max", strconv.Itoa(int(autoMax))},
			{"autoscale-every", autoEvery},
			{"autoscale-lag", autoLag},
			{"autoscale-class", autoClass},
			{"cache-budget", cacheBudget},
			{"cache-policy", cachePolicy},
			{"cache-retier", cacheRetier},
		}
		args := []string{"-models", []string{"A", "A,C", "A,C,A"}[nModels%3], "-scale", "400"}
		for i, fl := range flags {
			if mask&(1<<i) != 0 {
				args = append(args, "-"+fl.name+"="+fl.value)
			}
		}
		o, err := parseFlags(args, io.Discard)
		if err != nil {
			return
		}
		models := make([]fleet.Model, len(o.configs))
		for i := range models {
			models[i] = fleet.Model{
				Name:    fmt.Sprintf("%s/%d", o.names[i], i),
				Service: func(float64, int) (float64, error) { return 1e-4, nil },
			}
		}
		pool, err := fleet.NewPool(o.pool, models, o.fleetTenants)
		if err != nil {
			t.Fatalf("parseFlags(%q) accepted a pool that fleet.NewPool rejects: %v", args, err)
		}
		reqs := make([]fleet.Request, 24)
		for i := range reqs {
			reqs[i] = fleet.Request{
				Arrival: float64(i) * 2e-5,
				Size:    64 + 160*(i%5),
				Model:   i % len(models),
				Tenant:  i % len(o.fleetTenants),
			}
		}
		rep, err := pool.Serve(reqs)
		if err != nil {
			t.Fatalf("parseFlags(%q) accepted a pool that fails to serve: %v", args, err)
		}
		// Every request resolves: a model the configuration left without a
		// worker would lose its requests silently.
		if m := rep.Metrics; m.Served+m.Shed() != len(reqs) {
			t.Fatalf("parseFlags(%q) accepted a pool that resolved %d served + %d shed of %d requests",
				args, m.Served, m.Shed(), len(reqs))
		}
	})
}
