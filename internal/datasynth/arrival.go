package datasynth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ArrivalProcess draws inter-arrival gaps for an open-loop request stream, in
// the style of scylla-bench's composable rate distributions: the load
// generator precomputes every intended send time from one seeded process, so
// a slow server cannot slow the arrival schedule down (that back-pressure is
// exactly the coordinated-omission bug open-loop generation exists to avoid).
type ArrivalProcess interface {
	// Next draws the gap to the next arrival, in seconds (>= 0).
	Next(rng *rand.Rand) float64
	// Mean returns the expected gap in seconds (1/rate).
	Mean() float64
	// String describes the process for logs and docs.
	String() string
}

// FixedInterval spaces arrivals exactly 1/Rate apart — the deterministic
// pacing of a closed benchmark loop, kept for contrast with Poisson.
type FixedInterval struct{ Rate float64 }

// Next implements ArrivalProcess.
func (f FixedInterval) Next(*rand.Rand) float64 { return 1 / f.Rate }

// Mean implements ArrivalProcess.
func (f FixedInterval) Mean() float64 { return 1 / f.Rate }

// String implements ArrivalProcess.
func (f FixedInterval) String() string { return fmt.Sprintf("fixed(%g/s)", f.Rate) }

// Poisson draws exponential gaps with mean 1/Rate — the memoryless arrival
// process of independent users, and the default load-generator schedule.
type Poisson struct{ Rate float64 }

// Next implements ArrivalProcess.
func (p Poisson) Next(rng *rand.Rand) float64 { return rng.ExpFloat64() / p.Rate }

// Mean implements ArrivalProcess.
func (p Poisson) Mean() float64 { return 1 / p.Rate }

// String implements ArrivalProcess.
func (p Poisson) String() string { return fmt.Sprintf("poisson(%g/s)", p.Rate) }

// Diurnal is a sinusoid-modulated Poisson process: the instantaneous rate is
// Rate * (1 + Amplitude * sin(2*pi*t/Period)), the compressed-day traffic
// shape of a production serving fleet. Gaps are drawn by thinning against the
// peak rate, so the schedule stays exact (no discretization of the rate
// curve). The process is stateful — it tracks its own elapsed time — so a
// fresh value (or NewDiurnal) is needed per stream.
type Diurnal struct {
	// Rate is the mean rate in requests per second (the sinusoid's midline).
	Rate float64
	// Period is the modulation period in seconds.
	Period float64
	// Amplitude is the relative swing in [0, 1]: 0 degrades to plain Poisson,
	// 1 idles completely at the trough.
	Amplitude float64

	t float64 // elapsed virtual time
}

// NewDiurnal validates and builds a Diurnal process.
func NewDiurnal(rate, period, amplitude float64) (*Diurnal, error) {
	switch {
	case rate <= 0:
		return nil, fmt.Errorf("datasynth: arrival rate must be positive, got %g", rate)
	case period <= 0:
		return nil, fmt.Errorf("datasynth: diurnal period must be positive, got %g", period)
	case amplitude < 0 || amplitude > 1:
		return nil, fmt.Errorf("datasynth: diurnal amplitude %g outside [0,1]", amplitude)
	}
	return &Diurnal{Rate: rate, Period: period, Amplitude: amplitude}, nil
}

// Next implements ArrivalProcess by thinning: draw candidate gaps at the peak
// rate and accept each with probability rate(t)/peak.
func (d *Diurnal) Next(rng *rand.Rand) float64 {
	peak := d.Rate * (1 + d.Amplitude)
	start := d.t
	for {
		d.t += rng.ExpFloat64() / peak
		lambda := d.Rate * (1 + d.Amplitude*math.Sin(2*math.Pi*d.t/d.Period))
		if rng.Float64()*peak <= lambda {
			return d.t - start
		}
	}
}

// Mean implements ArrivalProcess: the sinusoid averages out over a period, so
// the long-run mean gap is the midline's.
func (d *Diurnal) Mean() float64 { return 1 / d.Rate }

// String implements ArrivalProcess.
func (d *Diurnal) String() string {
	return fmt.Sprintf("diurnal(%g/s, period %gs, amplitude %g)", d.Rate, d.Period, d.Amplitude)
}

// FlashCrowd is a baseline Poisson process with one burst window: during
// [Start, Start+Duration) the rate multiplies by Factor — the flash-crowd /
// breaking-news shape that stresses admission control and cache allocations
// tuned on the baseline. Gaps are drawn by thinning against the burst rate.
// Stateful like Diurnal: one value per stream.
type FlashCrowd struct {
	// Rate is the baseline rate in requests per second.
	Rate float64
	// Start and Duration bound the burst window in seconds.
	Start, Duration float64
	// Factor multiplies the rate inside the window (>= 1).
	Factor float64

	t float64 // elapsed virtual time
}

// NewFlashCrowd validates and builds a FlashCrowd process.
func NewFlashCrowd(rate, start, duration, factor float64) (*FlashCrowd, error) {
	switch {
	case rate <= 0:
		return nil, fmt.Errorf("datasynth: arrival rate must be positive, got %g", rate)
	case start < 0:
		return nil, fmt.Errorf("datasynth: flash start must be >= 0, got %g", start)
	case duration <= 0:
		return nil, fmt.Errorf("datasynth: flash duration must be positive, got %g", duration)
	case factor < 1:
		return nil, fmt.Errorf("datasynth: flash factor must be >= 1, got %g", factor)
	}
	return &FlashCrowd{Rate: rate, Start: start, Duration: duration, Factor: factor}, nil
}

// Next implements ArrivalProcess by thinning against the burst rate.
func (f *FlashCrowd) Next(rng *rand.Rand) float64 {
	peak := f.Rate * f.Factor
	start := f.t
	for {
		f.t += rng.ExpFloat64() / peak
		lambda := f.Rate
		if f.t >= f.Start && f.t < f.Start+f.Duration {
			lambda = peak
		}
		if rng.Float64()*peak <= lambda {
			return f.t - start
		}
	}
}

// Mean implements ArrivalProcess: the burst window is one-shot, so the
// long-run mean gap is the baseline's.
func (f *FlashCrowd) Mean() float64 { return 1 / f.Rate }

// String implements ArrivalProcess.
func (f *FlashCrowd) String() string {
	return fmt.Sprintf("flash(%g/s, x%g @ %gs+%gs)", f.Rate, f.Factor, f.Start, f.Duration)
}

// ParseArrival builds an ArrivalProcess from its CLI spelling, at rate
// requests per second (the Diurnal midline / FlashCrowd baseline):
//
//	poisson                          memoryless arrivals (default)
//	fixed                            deterministic 1/rate spacing
//	diurnal[:PERIOD[:AMPLITUDE]]     sinusoid-modulated Poisson
//	                                 (default period 60s, amplitude 0.5)
//	flash[:START:DURATION:FACTOR]    Poisson with one burst window
//	                                 (default x8 burst over [1s, 2s))
//
// Rate must be positive.
func ParseArrival(kind string, rate float64) (ArrivalProcess, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("datasynth: arrival rate must be positive and finite, got %g", rate)
	}
	parts := strings.Split(strings.ToLower(kind), ":")
	num := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(s, 64)
		return v, err == nil
	}
	switch parts[0] {
	case "poisson", "":
		if len(parts) != 1 {
			return nil, fmt.Errorf("datasynth: arrival process %q takes no parameters", parts[0])
		}
		return Poisson{Rate: rate}, nil
	case "fixed":
		if len(parts) != 1 {
			return nil, fmt.Errorf("datasynth: arrival process %q takes no parameters", parts[0])
		}
		return FixedInterval{Rate: rate}, nil
	case "diurnal":
		period, amplitude := 60.0, 0.5
		if len(parts) > 3 {
			return nil, fmt.Errorf("datasynth: bad arrival spec %q (want diurnal[:PERIOD[:AMPLITUDE]])", kind)
		}
		if len(parts) >= 2 {
			v, ok := num(parts[1])
			if !ok {
				return nil, fmt.Errorf("datasynth: bad diurnal period in %q", kind)
			}
			period = v
		}
		if len(parts) == 3 {
			v, ok := num(parts[2])
			if !ok {
				return nil, fmt.Errorf("datasynth: bad diurnal amplitude in %q", kind)
			}
			amplitude = v
		}
		return NewDiurnal(rate, period, amplitude)
	case "flash":
		start, duration, factor := 1.0, 1.0, 8.0
		switch len(parts) {
		case 1:
		case 4:
			var ok1, ok2, ok3 bool
			start, ok1 = num(parts[1])
			duration, ok2 = num(parts[2])
			factor, ok3 = num(parts[3])
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("datasynth: bad arrival spec %q (want flash[:START:DURATION:FACTOR])", kind)
			}
		default:
			return nil, fmt.Errorf("datasynth: bad arrival spec %q (want flash[:START:DURATION:FACTOR])", kind)
		}
		return NewFlashCrowd(rate, start, duration, factor)
	default:
		return nil, fmt.Errorf("datasynth: unknown arrival process %q (want poisson, fixed, diurnal or flash)", kind)
	}
}

// ParseSizeDist builds a request-size Dist from its CLI spelling:
// "fixed:K", "uniform:LO:HI", "normal:MU:SIGMA" or "lognormal:MU:SIGMA[:MAX]".
func ParseSizeDist(spec string) (Dist, error) {
	parts := strings.Split(spec, ":")
	bad := func() (Dist, error) {
		return nil, fmt.Errorf("datasynth: bad size distribution %q (want fixed:K, uniform:LO:HI, normal:MU:SIGMA or lognormal:MU:SIGMA[:MAX])", spec)
	}
	num := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(s, 64)
		return v, err == nil
	}
	switch strings.ToLower(parts[0]) {
	case "fixed":
		if len(parts) != 2 {
			return bad()
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil || k <= 0 {
			return bad()
		}
		return Fixed{K: k}, nil
	case "uniform":
		if len(parts) != 3 {
			return bad()
		}
		lo, err1 := strconv.Atoi(parts[1])
		hi, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || lo <= 0 || hi < lo {
			return bad()
		}
		return Uniform{Lo: lo, Hi: hi}, nil
	case "normal":
		if len(parts) != 3 {
			return bad()
		}
		mu, ok1 := num(parts[1])
		sigma, ok2 := num(parts[2])
		if !ok1 || !ok2 || mu <= 0 || sigma < 0 {
			return bad()
		}
		return Normal{Mu: mu, Sigma: sigma}, nil
	case "lognormal":
		if len(parts) != 3 && len(parts) != 4 {
			return bad()
		}
		mu, ok1 := num(parts[1])
		sigma, ok2 := num(parts[2])
		if !ok1 || !ok2 || sigma < 0 {
			return bad()
		}
		max := 0
		if len(parts) == 4 {
			m, err := strconv.Atoi(parts[3])
			if err != nil || m < 0 {
				return bad()
			}
			max = m
		}
		return LogNormal{Mu: mu, Sigma: sigma, Max: max}, nil
	default:
		return bad()
	}
}
