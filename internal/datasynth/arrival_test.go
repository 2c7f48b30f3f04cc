package datasynth

import (
	"math"
	"math/rand"
	"testing"
)

func TestParseArrival(t *testing.T) {
	p, err := ParseArrival("poisson", 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(Poisson); !ok || p.Mean() != 1.0/200 {
		t.Errorf("ParseArrival(poisson, 200) = %v (mean %g)", p, p.Mean())
	}
	// Empty kind defaults to Poisson — the load generator's default schedule.
	if d, err := ParseArrival("", 50); err != nil {
		t.Fatal(err)
	} else if _, ok := d.(Poisson); !ok {
		t.Errorf("ParseArrival(\"\") = %T, want Poisson", d)
	}
	f, err := ParseArrival("FIXED", 100)
	if err != nil {
		t.Fatal(err)
	}
	if gap := f.Next(nil); gap != 0.01 {
		t.Errorf("fixed gap = %g, want 0.01", gap)
	}

	for _, rate := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := ParseArrival("poisson", rate); err == nil {
			t.Errorf("ParseArrival(rate=%g) succeeded, want error", rate)
		}
	}
	if _, err := ParseArrival("bursty", 10); err == nil {
		t.Error("ParseArrival(bursty) succeeded, want error")
	}
}

// The Poisson process empirically hits its configured rate, and gaps from one
// seed replay identically — the property the precomputed loadgen schedule
// (and session determinism downstream of it) relies on.
func TestPoissonGapsSeededAndCalibrated(t *testing.T) {
	p := Poisson{Rate: 1000}
	const n = 20000
	sum := 0.0
	rng := rand.New(rand.NewSource(7))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = p.Next(rng)
		if gaps[i] < 0 {
			t.Fatalf("gap %d negative: %g", i, gaps[i])
		}
		sum += gaps[i]
	}
	if mean := sum / n; math.Abs(mean-p.Mean()) > 0.1*p.Mean() {
		t.Errorf("empirical mean gap %g, want within 10%% of %g", mean, p.Mean())
	}
	rng2 := rand.New(rand.NewSource(7))
	for i := range gaps {
		if g := p.Next(rng2); g != gaps[i] {
			t.Fatalf("gap %d not reproducible from the seed: %g vs %g", i, g, gaps[i])
		}
	}
}

func TestParseSizeDist(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := map[string]func(int) bool{
		"fixed:256":          func(v int) bool { return v == 256 },
		"uniform:16:512":     func(v int) bool { return v >= 16 && v <= 512 },
		"NORMAL:100:10":      func(v int) bool { return v >= 1 },
		"lognormal:3:0.5":    func(v int) bool { return v >= 1 },
		"lognormal:3:0.5:64": func(v int) bool { return v >= 1 && v <= 64 },
	}
	for spec, check := range good {
		d, err := ParseSizeDist(spec)
		if err != nil {
			t.Errorf("ParseSizeDist(%q): %v", spec, err)
			continue
		}
		for i := 0; i < 100; i++ {
			if v := d.Sample(rng); !check(v) {
				t.Errorf("ParseSizeDist(%q) sampled %d out of range", spec, v)
				break
			}
		}
	}
	for _, bad := range []string{
		"", "zipf:2", "fixed", "fixed:0", "fixed:x", "uniform:16",
		"uniform:0:8", "uniform:9:8", "normal:0:1", "normal:100:-1",
		"lognormal:3", "lognormal:3:0.5:-1", "lognormal:3:0.5:x",
	} {
		if _, err := ParseSizeDist(bad); err == nil {
			t.Errorf("ParseSizeDist(%q) succeeded, want error", bad)
		}
	}
}

func TestParseArrivalSpellings(t *testing.T) {
	good := map[string]string{
		"diurnal":        "diurnal(40/s, period 60s, amplitude 0.5)",
		"DIURNAL:10":     "diurnal(40/s, period 10s, amplitude 0.5)",
		"diurnal:10:0.8": "diurnal(40/s, period 10s, amplitude 0.8)",
		"flash":          "flash(40/s, x8 @ 1s+1s)",
		"flash:0.5:2:4":  "flash(40/s, x4 @ 0.5s+2s)",
	}
	for spec, want := range good {
		p, err := ParseArrival(spec, 40)
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", spec, err)
			continue
		}
		if p.String() != want {
			t.Errorf("ParseArrival(%q) = %s, want %s", spec, p, want)
		}
		if p.Mean() != 1.0/40 {
			t.Errorf("ParseArrival(%q).Mean() = %g, want 1/40", spec, p.Mean())
		}
	}
	for _, bad := range []string{
		"diurnal:x", "diurnal:0", "diurnal:10:1.5", "diurnal:10:-1", "diurnal:1:2:3",
		"flash:1:2", "flash:1:2:0.5", "flash:-1:2:4", "flash:1:0:4", "flash:a:b:c",
		"poisson:5", "fixed:5",
	} {
		if _, err := ParseArrival(bad, 40); err == nil {
			t.Errorf("ParseArrival(%q) succeeded, want error", bad)
		}
	}
}

// TestDiurnalModulation checks the thinning implementation actually shapes the
// rate: arrivals cluster at the sinusoid's crest, thin out at its trough, the
// long-run rate matches the midline, and one seed replays one schedule.
func TestDiurnalModulation(t *testing.T) {
	const rate, period, amp = 1000.0, 10.0, 0.9
	d, err := NewDiurnal(rate, period, amp)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	var arrivals []float64
	for now < 5*period {
		g := d.Next(rng)
		if g < 0 {
			t.Fatalf("negative gap %g", g)
		}
		now += g
		arrivals = append(arrivals, now)
	}
	// Crest quarter (sin > 0.7): [period/8, 3*period/8) each cycle; trough
	// quarter: [5*period/8, 7*period/8).
	var crest, trough int
	for _, a := range arrivals {
		switch ph := math.Mod(a, period) / period; {
		case ph >= 0.125 && ph < 0.375:
			crest++
		case ph >= 0.625 && ph < 0.875:
			trough++
		}
	}
	if crest < 5*trough {
		t.Errorf("crest %d arrivals vs trough %d: modulation too weak for amplitude %g", crest, trough, amp)
	}
	if mean := float64(len(arrivals)) / (5 * period); math.Abs(mean-rate) > 0.1*rate {
		t.Errorf("long-run rate %g, want within 10%% of %g", mean, rate)
	}
	// Replay: a fresh process with the same seed draws the same schedule.
	d2, _ := NewDiurnal(rate, period, amp)
	rng2 := rand.New(rand.NewSource(3))
	d3, _ := NewDiurnal(rate, period, amp)
	rng3 := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if a, b := d2.Next(rng2), d3.Next(rng3); a != b {
			t.Fatalf("gap %d not reproducible: %g vs %g", i, a, b)
		}
	}
}

// TestFlashCrowdBurst checks the burst window multiplies the arrival density
// and the baseline holds outside it.
func TestFlashCrowdBurst(t *testing.T) {
	const rate, start, dur, factor = 500.0, 1.0, 1.0, 8.0
	f, err := NewFlashCrowd(rate, start, dur, factor)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	now := 0.0
	var before, during, after int
	for now < 3 {
		now += f.Next(rng)
		switch {
		case now < start:
			before++
		case now < start+dur:
			during++
		case now < 3:
			after++
		}
	}
	if lo, hi := 0.8*rate, 1.2*rate; float64(before) < lo || float64(before) > hi ||
		float64(after) < lo || float64(after) > hi {
		t.Errorf("baseline windows off: %d before, %d after, want ~%g", before, after, rate)
	}
	if lo, hi := 0.8*rate*factor, 1.2*rate*factor; float64(during) < lo || float64(during) > hi {
		t.Errorf("burst window %d arrivals, want ~%g", during, rate*factor)
	}
}
