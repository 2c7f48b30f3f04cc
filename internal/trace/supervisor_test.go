package trace_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// eqNaN compares floats treating NaN as equal to NaN.
func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// reportsEqual is reflect.DeepEqual with NaN-tolerant float comparison on
// the fields that legitimately hold NaN (shed sojourns, empty-side swap
// means); everything else must match exactly.
func reportsEqual(a, b *trace.Report) bool {
	if len(a.Sojourn) != len(b.Sojourn) {
		return false
	}
	for i := range a.Sojourn {
		if !eqNaN(a.Sojourn[i], b.Sojourn[i]) {
			return false
		}
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) || !reflect.DeepEqual(a.Generations, b.Generations) {
		return false
	}
	if a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 ||
		a.MeanService != b.MeanService || a.Utilization != b.Utilization {
		return false
	}
	return metricsEqual(a.Metrics, b.Metrics)
}

// metricsEqual compares snapshots with NaN-tolerant swap means, ignoring the
// wall-clock TuneWall fields (host time differs across identical replays).
func metricsEqual(a, b *trace.Metrics) bool {
	if len(a.Swaps) != len(b.Swaps) {
		return false
	}
	for i := range a.Swaps {
		sa, sb := a.Swaps[i], b.Swaps[i]
		if !eqNaN(sa.PreMean, sb.PreMean) || !eqNaN(sa.PostMean, sb.PostMean) {
			return false
		}
		sa.PreMean, sa.PostMean = 0, 0
		sb.PreMean, sb.PostMean = 0, 0
		sa.TuneWall, sb.TuneWall = 0, 0
		if sa != sb {
			return false
		}
	}
	ca, cb := a.Clone(), b.Clone()
	ca.Swaps, cb.Swaps = nil, nil
	ca.TuneWall, cb.TuneWall = 0, 0
	return reflect.DeepEqual(ca, cb)
}

// constTimed is a time- and size-invariant service.
func constTimed(v float64) trace.TimedServiceFunc {
	return func(float64, int) (float64, error) { return v, nil }
}

// neverDrift pins the detector off.
func neverDrift([]trace.WindowEntry) (bool, error) { return false, nil }

// noRetune fails the test if the supervisor ever tunes.
func noRetune(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
	return nil, errors.New("retuner must not run")
}

// With the detector pinned off, a supervised run IS a plain Server run: the
// whole Report — sojourns, outcomes, percentiles, worker stats, histogram —
// must be deeply equal, and the swap-related fields must stay zero.
func TestSupervisorNoDriftEqualsServer(t *testing.T) {
	reqs, err := trace.Generate(400, trace.GeneratorConfig{
		QPS: 2500, MaxBatch: 512, TailProb: 0.05, TailSize: 2560, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	service := sizeService(4e-5)
	for _, k := range []int{1, 3} {
		cfg := trace.ServerConfig{Workers: k, SplitCap: 512}
		srv, err := trace.NewServer(cfg, service)
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := trace.NewSupervisor(trace.SupervisorConfig{Server: cfg},
			trace.Untimed(service), neverDrift, noRetune)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		// No deadline -> nothing sheds -> no NaN sojourns, so DeepEqual is
		// exact over the full report (NaN would defeat ==).
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("k=%d: supervised no-drift report differs from plain server", k)
		}
		if g := sv.Live().Current(); g.ID != 0 || g.Swapped != 0 {
			t.Errorf("k=%d: live generation %d swapped at %g, want pristine generation 0", k, g.ID, g.Swapped)
		}
	}
}

// A scripted drift: one worker, service 1ms on generation 0 and 0.5ms on
// generation 1, drift fires at t=10 with a 0.5s tune. Every observable —
// generation stamps, swap-event fields, the tune's capacity cost on the
// worker, the serving-only utilization split, the pre/post latency means and
// the live-set publication — is checked against hand-computed values.
func TestSupervisorSwapSemantics(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 16},
		{Arrival: 1, Size: 16},
		{Arrival: 10, Size: 16},   // triggers detection; delayed by the tune
		{Arrival: 10.2, Size: 16}, // admitted during the tune -> generation 0
		{Arrival: 12, Size: 32},   // after the swap -> generation 1
	}
	var gotTuneGen int
	var gotWindow []trace.WindowEntry
	var gen1T atomic.Value
	gen0 := constTimed(1e-3)
	gen1 := func(tt float64, size int) (float64, error) {
		gen1T.Store([2]float64{tt, float64(size)})
		return 5e-4, nil
	}
	detect := func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= 10, nil
	}
	retune := func(gen int, win []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		gotTuneGen = gen
		gotWindow = append([]trace.WindowEntry(nil), win...)
		time.Sleep(2 * time.Millisecond) // make the measured tune wall time visible
		return gen1, nil
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 1},
		Window:       2,
		CheckEvery:   1,
		TuneDuration: 0.5,
		MaxRetunes:   1,
	}, gen0, detect, retune)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	if gotTuneGen != 1 {
		t.Errorf("retuner saw generation %d, want 1", gotTuneGen)
	}
	if len(gotWindow) != 2 || gotWindow[1].Time != 10 || gotWindow[0].Time != 1 {
		t.Errorf("retuner window %+v, want the sliding window [t=1, t=10]", gotWindow)
	}
	if want := []int{0, 0, 0, 0, 1}; !reflect.DeepEqual(rep.Generations, want) {
		t.Fatalf("generation stamps %v, want %v", rep.Generations, want)
	}

	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Generation != 1 {
		t.Fatalf("swaps %d generation %d, want 1/1", len(m.Swaps), m.Generation)
	}
	s := m.Swaps[0]
	if s.Generation != 1 || s.Detected != 10 || s.Start != 10 || s.Swapped != 10.5 ||
		s.Worker != 0 || s.TuneDuration != 0.5 {
		t.Errorf("swap event %+v, want gen 1 detected/start 10, swapped 10.5 on worker 0", s)
	}
	if m.TuneBusy != 0.5 {
		t.Errorf("TuneBusy %g, want 0.5", m.TuneBusy)
	}
	// TuneWall is host time: the retuner slept 2ms, so both the swap event
	// and the run total must record at least that much real time.
	if s.TuneWall < 2e-3 {
		t.Errorf("swap TuneWall %g, want >= 2ms of measured retuner wall time", s.TuneWall)
	}
	if m.TuneWall != s.TuneWall {
		t.Errorf("metrics TuneWall %g, want the single swap's %g", m.TuneWall, s.TuneWall)
	}

	// The tune occupies the only worker 10 -> 10.5, so the t=10 arrival waits
	// for it, the t=10.2 arrival queues behind, and the t=12 arrival runs on
	// the faster generation-1 kernel immediately.
	wantSoj := []float64{1e-3, 1e-3, 0.501, 10.502 - 10.2, 5e-4}
	for i, w := range wantSoj {
		if math.Abs(rep.Sojourn[i]-w) > 1e-9 {
			t.Errorf("sojourn[%d] = %g, want %g", i, rep.Sojourn[i], w)
		}
	}
	// The generation-1 service resolves against the entry's arrival time.
	if got := gen1T.Load().([2]float64); got[0] != 12 || got[1] != 32 {
		t.Errorf("generation-1 service called with (t=%g, size=%g), want (12, 32)", got[0], got[1])
	}

	// Utilization counts serving only; the tune's 0.5s lives in TuneBusy.
	busy := 4*1e-3 + 5e-4
	makespan := 12.0005
	if math.Abs(m.Makespan-makespan) > 1e-9 {
		t.Errorf("makespan %g, want %g", m.Makespan, makespan)
	}
	if math.Abs(rep.Utilization-busy/makespan) > 1e-9 {
		t.Errorf("utilization %g, want %g (serving busy only)", rep.Utilization, busy/makespan)
	}
	// The tune's occupancy is attributed to the worker slot that held it:
	// the only worker serves 4.5ms, tunes 0.5s, and reports the split — it
	// was occupied, not idle, during the tune.
	ws := m.Workers[0]
	if ws.TuneBusy != 0.5 {
		t.Errorf("worker TuneBusy %g, want 0.5", ws.TuneBusy)
	}
	if math.Abs(ws.Busy-busy) > 1e-12 {
		t.Errorf("worker Busy %g, want serving-only %g", ws.Busy, busy)
	}
	if want := (busy + 0.5) / makespan; math.Abs(ws.Utilization-want) > 1e-9 {
		t.Errorf("worker utilization %g, want serving+tune %g", ws.Utilization, want)
	}

	wantPre := (1e-3 + 1e-3 + 0.501 + (10.502 - 10.2)) / 4
	if math.Abs(s.PreMean-wantPre) > 1e-9 {
		t.Errorf("PreMean %g, want %g", s.PreMean, wantPre)
	}
	if math.Abs(s.PostMean-5e-4) > 1e-12 {
		t.Errorf("PostMean %g, want 5e-4", s.PostMean)
	}

	if g := sv.Live().Current(); g.ID != 1 || g.Swapped != 10.5 {
		t.Errorf("live generation %d swapped %g, want 1 at 10.5", g.ID, g.Swapped)
	}
	if snap := sv.Metrics(); snap == nil || snap.Generation != 1 || len(snap.Swaps) != 1 {
		t.Errorf("metrics snapshot %+v", snap)
	}
}

// A tune that outlives the trace still counts: the swap is recorded and
// published to the live set, no request is stamped with it, and its PostMean
// is NaN because no request was admitted on the new generation.
func TestSupervisorTrailingSwap(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 16}, {Arrival: 1, Size: 16}, {Arrival: 2, Size: 16},
	}
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	retune := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return constTimed(5e-4), nil
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 1},
		Window:       2,
		CheckEvery:   1,
		TuneDuration: 100,
		MaxRetunes:   1,
	}, constTimed(1e-3), always, retune)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Generation != 1 {
		t.Fatalf("swaps %d generation %d, want 1/1", len(m.Swaps), m.Generation)
	}
	if s := m.Swaps[0]; s.Detected != 1 || s.Start != 1 || s.Swapped != 101 {
		t.Errorf("swap %+v, want detected/start at 1, swapped at 101", s)
	}
	for i, g := range rep.Generations {
		if g != 0 {
			t.Errorf("request %d stamped generation %d; the swap landed after the last arrival", i, g)
		}
	}
	if !math.IsNaN(m.Swaps[0].PostMean) {
		t.Errorf("PostMean %g, want NaN (nobody was admitted on generation 1)", m.Swaps[0].PostMean)
	}
	if m.Swaps[0].PreMean <= 0 {
		t.Errorf("PreMean %g, want positive", m.Swaps[0].PreMean)
	}
	// The tune books the only worker 1 -> 101, so the t=1 arrival dispatches
	// at 101 and the t=2 arrival right behind it: 101.001 + 1ms - 2.
	if math.Abs(rep.Sojourn[2]-99.002) > 1e-9 {
		t.Errorf("sojourn[2] = %g, want 99.002 (tune holds the worker)", rep.Sojourn[2])
	}
	if g := sv.Live().Current(); g.ID != 1 || g.Swapped != 101 {
		t.Errorf("live generation %d at %g: a trailing tune must still publish", g.ID, g.Swapped)
	}
}

// MaxRetunes caps the number of background tunes; Cooldown spaces drift
// checks from the previous swap.
func TestSupervisorCooldownAndMaxRetunes(t *testing.T) {
	reqs, err := trace.Generate(300, trace.GeneratorConfig{QPS: 1000, MaxBatch: 512, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	retune := func(gen int, _ []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return constTimed(1e-5), nil
	}
	const cooldown = 0.02
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 2},
		Window:       4,
		CheckEvery:   2,
		TuneDuration: 1e-3,
		Cooldown:     cooldown,
		MaxRetunes:   3,
	}, constTimed(1e-5), always, retune)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 3 || m.Generation != 3 {
		t.Fatalf("swaps %d generation %d, want exactly MaxRetunes=3", len(m.Swaps), m.Generation)
	}
	for i, s := range m.Swaps {
		if s.Generation != i+1 {
			t.Errorf("swap %d carries generation %d, want %d", i, s.Generation, i+1)
		}
		if i > 0 && s.Detected < m.Swaps[i-1].Swapped+cooldown {
			t.Errorf("swap %d detected at %g, inside the cooldown after %g",
				i, s.Detected, m.Swaps[i-1].Swapped)
		}
	}
	if math.Abs(m.TuneBusy-3e-3) > 1e-12 {
		t.Errorf("TuneBusy %g, want 3 tunes x 1ms", m.TuneBusy)
	}
	if g := sv.Live().Current(); g.ID != 3 {
		t.Errorf("live generation %d, want 3", g.ID)
	}
}

// Property over random traces with an always-hot detector: generation stamps
// are monotone in arrival order, every request is accounted for (zero lost),
// swap times are ordered, and the whole run is bit-deterministic when
// repeated from scratch.
func TestSupervisorGenerationsMonotoneZeroLostProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		reqs, err := trace.Generate(250, trace.GeneratorConfig{
			QPS:      800 + float64(seed)*400,
			MaxBatch: 512,
			TailProb: 0.05,
			TailSize: 2560,
			Seed:     seed * 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func() (*trace.Report, *trace.Metrics) {
			always := func([]trace.WindowEntry) (bool, error) { return true, nil }
			retune := func(gen int, _ []trace.WindowEntry) (trace.TimedServiceFunc, error) {
				perSample := 2e-5 / float64(gen)
				return func(_ float64, size int) (float64, error) {
					return float64(size) * perSample, nil
				}, nil
			}
			sv, err := trace.NewSupervisor(trace.SupervisorConfig{
				Server:       trace.ServerConfig{Workers: 1 + int(seed)%3, SplitCap: 512},
				Window:       8,
				CheckEvery:   4,
				TuneDuration: 1e-3,
			}, trace.Untimed(sizeService(2e-5)), always, retune)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sv.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			return rep, sv.Metrics()
		}
		rep, met := run()

		// trace.Generate emits arrival order, so caller order is arrival order.
		for i := 1; i < len(rep.Generations); i++ {
			if rep.Generations[i] < rep.Generations[i-1] {
				t.Fatalf("seed %d: generation stamp regressed at request %d: %d -> %d",
					seed, i, rep.Generations[i-1], rep.Generations[i])
			}
		}
		served := 0
		for i := range reqs {
			if rep.Outcomes[i].Shed() {
				t.Fatalf("seed %d: request %d shed with deadlines off", seed, i)
			}
			if math.IsNaN(rep.Sojourn[i]) {
				t.Fatalf("seed %d: request %d lost (served but no sojourn)", seed, i)
			}
			served++
		}
		if met.Served != served || served != len(reqs) {
			t.Fatalf("seed %d: %d of %d requests accounted", seed, met.Served, len(reqs))
		}
		if len(met.Swaps) == 0 || met.Generation != len(met.Swaps) {
			t.Fatalf("seed %d: generation %d with %d swaps", seed, met.Generation, len(met.Swaps))
		}
		for i := 1; i < len(met.Swaps); i++ {
			if met.Swaps[i].Swapped < met.Swaps[i-1].Swapped {
				t.Fatalf("seed %d: swap times regressed: %g -> %g",
					seed, met.Swaps[i-1].Swapped, met.Swaps[i].Swapped)
			}
		}
		if want := float64(len(met.Swaps)) * 1e-3; math.Abs(met.TuneBusy-want) > 1e-9 {
			t.Errorf("seed %d: TuneBusy %g, want %g", seed, met.TuneBusy, want)
		}
		var workerTune float64
		for _, w := range met.Workers {
			workerTune += w.TuneBusy
		}
		if math.Abs(workerTune-met.TuneBusy) > 1e-9 {
			t.Errorf("seed %d: per-worker TuneBusy sums to %g, metrics say %g",
				seed, workerTune, met.TuneBusy)
		}

		// Determinism: a fresh supervisor over the same inputs reproduces the
		// run bit for bit.
		rep2, met2 := run()
		if !reportsEqual(rep, rep2) {
			t.Errorf("seed %d: repeated run produced a different report", seed)
		}
		if !metricsEqual(met, met2) {
			t.Errorf("seed %d: repeated run produced different metrics", seed)
		}
	}
}

// Both replay entry points reject a malformed request up front, by the rules
// fleet.Live.Admit applies (finite arrival, size > 0, deadline >= 0), instead
// of indexing past the engine's scratch.
func TestServeRejectsMalformedRequests(t *testing.T) {
	srv, err := trace.NewServer(trace.ServerConfig{Workers: 2}, func(size int) (float64, error) { return 1e-3, nil })
	if err != nil {
		t.Fatal(err)
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{}, constTimed(1e-3), neverDrift,
		func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) { return constTimed(1e-3), nil })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bad  trace.Request
		want string
	}{
		{"NaN arrival", trace.Request{Arrival: math.NaN(), Size: 16}, "non-finite arrival"},
		{"+Inf arrival", trace.Request{Arrival: math.Inf(1), Size: 16}, "non-finite arrival"},
		{"-Inf arrival", trace.Request{Arrival: math.Inf(-1), Size: 16}, "non-finite arrival"},
		{"zero size", trace.Request{Arrival: 1e-3, Size: 0}, "non-positive size"},
		{"negative size", trace.Request{Arrival: 1e-3, Size: -4}, "non-positive size"},
		{"negative deadline", trace.Request{Arrival: 1e-3, Size: 16, Deadline: -1}, "negative or NaN deadline"},
		{"NaN deadline", trace.Request{Arrival: 1e-3, Size: 16, Deadline: math.NaN()}, "negative or NaN deadline"},
	}
	for _, tc := range cases {
		reqs := []trace.Request{{Arrival: 0, Size: 16}, tc.bad, {Arrival: 2e-3, Size: 32}}
		want := "request 1 has " + tc.want
		if _, err := srv.Serve(reqs); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Server.Serve err = %v, want %q", tc.name, err, want)
		}
		if _, err := sv.Run(reqs); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Supervisor.Run err = %v, want %q", tc.name, err, want)
		}
	}
	// A rejected run leaves both engines usable.
	good := []trace.Request{{Arrival: 0, Size: 16}, {Arrival: 1e-3, Size: 32, Deadline: math.Inf(1)}}
	if _, err := srv.Serve(good); err != nil {
		t.Errorf("Server.Serve after rejections: %v", err)
	}
	if _, err := sv.Run(good); err != nil {
		t.Errorf("Supervisor.Run after rejections: %v", err)
	}
}

func TestSupervisorErrors(t *testing.T) {
	ok := constTimed(1e-3)
	okDetect := neverDrift
	okRetune := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) { return ok, nil }
	if _, err := trace.NewSupervisor(trace.SupervisorConfig{}, nil, okDetect, okRetune); err == nil {
		t.Error("nil service accepted")
	}
	if _, err := trace.NewSupervisor(trace.SupervisorConfig{}, ok, nil, okRetune); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := trace.NewSupervisor(trace.SupervisorConfig{}, ok, okDetect, nil); err == nil {
		t.Error("nil retuner accepted")
	}
	for _, bad := range []trace.SupervisorConfig{
		{Window: -1},
		{CheckEvery: -1},
		{TuneDuration: -1},
		{TuneDuration: math.NaN()},
		{Cooldown: -1},
		{Cooldown: math.NaN()},
		{MaxRetunes: -1},
		{CanaryDuration: -1},
		{CanaryDuration: math.NaN()},
		{RollbackMargin: -0.1},
		{RollbackMargin: math.NaN()},
		{Server: trace.ServerConfig{Deadline: math.NaN()}},
		{Server: trace.ServerConfig{Workers: -2}},
	} {
		if _, err := trace.NewSupervisor(bad, ok, okDetect, okRetune); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{}, ok, okDetect, okRetune)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Run(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if sv.Metrics() != nil {
		t.Error("metrics snapshot before first Run should be nil")
	}

	steady := make([]trace.Request, 64)
	for i := range steady {
		steady[i] = trace.Request{Arrival: float64(i) * 1e-3, Size: 16}
	}
	boom := errors.New("detector exploded")
	failDetect, err := trace.NewSupervisor(trace.SupervisorConfig{Window: 4}, ok,
		func([]trace.WindowEntry) (bool, error) { return false, boom }, okRetune)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failDetect.Run(steady); !errors.Is(err, boom) {
		t.Errorf("detector error not propagated: %v", err)
	}
	tuneErr := errors.New("tuner exploded")
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	failRetune, err := trace.NewSupervisor(trace.SupervisorConfig{Window: 4}, ok, always,
		func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) { return nil, tuneErr })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failRetune.Run(steady); !errors.Is(err, tuneErr) {
		t.Errorf("retuner error not propagated: %v", err)
	}
	nilSvc, err := trace.NewSupervisor(trace.SupervisorConfig{Window: 4}, ok, always,
		func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nilSvc.Run(steady); err == nil || !strings.Contains(err.Error(), "nil service") {
		t.Errorf("nil re-tuned service accepted: %v", err)
	}
}

// Hot-swap under load: concurrent readers spin on the live set while a
// writer swaps generations as fast as it can. Run with -race. Each reader
// must observe (a) monotonically non-decreasing generation ids and (b) a
// service that belongs to the id — the immutable-Generation pointer swap
// makes a torn (ID, Service) pair impossible.
func TestLiveSetHotSwapUnderLoad(t *testing.T) {
	mkSvc := func(id int) trace.TimedServiceFunc {
		v := float64(id)
		return func(float64, int) (float64, error) { return v, nil }
	}
	ls := trace.NewLiveSet(mkSvc(0))
	const swaps = 2000
	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := ls.Current()
				if g == nil || g.Service == nil {
					t.Error("live set returned a torn generation")
					return
				}
				if g.ID < last {
					t.Errorf("generation went backwards: %d after %d", g.ID, last)
					return
				}
				last = g.ID
				v, err := g.Service(0, 1)
				if err != nil || v != float64(g.ID) {
					t.Errorf("generation %d carries service of generation %g (torn swap)", g.ID, v)
					return
				}
			}
		}()
	}
	for i := 1; i <= swaps; i++ {
		g := ls.Swap(mkSvc(i), float64(i))
		if g.ID != i {
			t.Fatalf("swap %d installed id %d", i, g.ID)
		}
	}
	close(stop)
	wg.Wait()
	if g := ls.Current(); g.ID != swaps {
		t.Fatalf("final generation %d, want %d", g.ID, swaps)
	}
}

// The full loop under concurrent observation: Run hot-swaps repeatedly while
// observer goroutines read the published live set. Run with -race. After the
// run, every request must be accounted for and the observers must have seen
// only monotone generations.
func TestSupervisorHotSwapUnderLoad(t *testing.T) {
	reqs, err := trace.Generate(500, trace.GeneratorConfig{QPS: 2000, MaxBatch: 512, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	retune := func(gen int, _ []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return constTimed(1e-5 * float64(1+gen%3)), nil
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 2},
		Window:       4,
		CheckEvery:   2,
		TuneDuration: 1e-4,
	}, constTimed(1e-5), always, retune)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := sv.Live().Current()
				if g == nil || g.Service == nil {
					t.Error("torn generation observed mid-run")
					return
				}
				if g.ID < last {
					t.Errorf("observer saw generation regress: %d after %d", g.ID, last)
					return
				}
				last = g.ID
			}
		}()
	}
	rep, err := sv.Run(reqs)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if math.IsNaN(rep.Sojourn[i]) || rep.Outcomes[i] != trace.OutcomeServed {
			t.Fatalf("request %d lost across %d swaps", i, len(rep.Metrics.Swaps))
		}
	}
	if len(rep.Metrics.Swaps) < 10 {
		t.Errorf("only %d swaps; the stress run should swap repeatedly", len(rep.Metrics.Swaps))
	}
	if got := sv.Live().Current().ID; got != rep.Metrics.Generation {
		t.Errorf("live generation %d, metrics say %d", got, rep.Metrics.Generation)
	}
}

// MemoTimedService collapses time onto drift phases: one inner call per
// (phase, size), the inner service receives the phase (not the raw time),
// and a nil phaseOf makes the service time-invariant.
func TestMemoTimedServicePhases(t *testing.T) {
	var calls int32
	var lastT atomic.Value
	inner := func(tt float64, size int) (float64, error) {
		atomic.AddInt32(&calls, 1)
		lastT.Store(tt)
		return tt*1000 + float64(size), nil
	}
	svc := trace.MemoTimedService(inner, math.Floor)
	for _, tt := range []float64{0.1, 0.7, 0.999} { // same phase 0
		v, err := svc(tt, 8)
		if err != nil || v != 8 {
			t.Fatalf("phase 0: got %g, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("inner called %d times for one (phase, size), want 1", calls)
	}
	v, err := svc(1.5, 8) // phase 1
	if err != nil || v != 1008 {
		t.Fatalf("phase 1: got %g, %v", v, err)
	}
	if got := lastT.Load().(float64); got != 1 {
		t.Errorf("inner received t=%g, want the phase start 1", got)
	}
	if calls != 2 {
		t.Errorf("inner called %d times, want 2", calls)
	}

	calls = 0
	invariant := trace.MemoTimedService(inner, nil)
	if _, err := invariant(0.3, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := invariant(99, 8); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("nil phaseOf: inner called %d times, want 1 (time-invariant)", calls)
	}
}

// canaryTrace builds the guarded-promotion scenario shared by the canary
// tests: 100 evenly spaced arrivals cycling through four sizes, a size-
// proportional generation-0 service fast enough that nothing queues, and a
// detector that fires once traffic passes t=0.2. The retuner installs
// factor x the generation-0 per-sample time — factor > 1 is a poisoned tune
// the canary must catch, factor < 1 a genuinely better one it must keep.
func canaryTrace(factor float64, cfg trace.SupervisorConfig) (*trace.Supervisor, []trace.Request, error) {
	sizes := []int{16, 64, 256, 512}
	reqs := make([]trace.Request, 100)
	for i := range reqs {
		reqs[i] = trace.Request{Arrival: float64(i) * 0.01, Size: sizes[i%4]}
	}
	gen0 := func(_ float64, size int) (float64, error) { return float64(size) * 1e-6, nil }
	detect := func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= 0.2, nil
	}
	retune := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return func(_ float64, size int) (float64, error) {
			return float64(size) * 1e-6 * factor, nil
		}, nil
	}
	sv, err := trace.NewSupervisor(cfg, gen0, detect, retune)
	return sv, reqs, err
}

// meanSojournByGen averages the served sojourns stamped with each generation.
func meanSojournByGen(rep *trace.Report) map[int]float64 {
	sums := map[int]float64{}
	counts := map[int]int{}
	for i, g := range rep.Generations {
		if !math.IsNaN(rep.Sojourn[i]) {
			sums[g] += rep.Sojourn[i]
			counts[g]++
		}
	}
	for g := range sums {
		sums[g] /= float64(counts[g])
	}
	return sums
}

// The e2e acceptance path of the guarded promotion: a poisoned re-tune (3x
// slower per sample) goes live, the canary window measures it worse than the
// matched pre-swap baseline, the supervisor rolls back to a fresh generation
// reusing the old service, and post-rollback latency returns to the pre-swap
// level — all under exact deterministic replay.
func TestSupervisorCanaryRollbackEndToEnd(t *testing.T) {
	cfg := trace.SupervisorConfig{
		Server:         trace.ServerConfig{Workers: 2},
		Window:         4,
		CheckEvery:     2,
		TuneDuration:   0.03,
		MaxRetunes:     1,
		CanaryWindow:   6,
		RollbackMargin: 0.25,
	}
	run := func() (*trace.Report, *trace.Supervisor) {
		sv, reqs, err := canaryTrace(3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep, sv
	}
	rep, sv := run()
	m := rep.Metrics

	if len(m.Swaps) != 2 || m.Generation != 2 || m.Rollbacks != 1 {
		t.Fatalf("want poisoned promotion + rollback (2 swaps, generation 2, 1 rollback), got %d swaps generation %d rollbacks %d",
			len(m.Swaps), m.Generation, m.Rollbacks)
	}
	promo, rb := m.Swaps[0], m.Swaps[1]
	if promo.Rollback || promo.Generation != 1 {
		t.Errorf("first swap %+v, want the generation-1 promotion", promo)
	}
	if promo.CanaryMean <= 0 || promo.BaselineMean <= 0 {
		t.Fatalf("canary verdict not recorded: canary %g baseline %g", promo.CanaryMean, promo.BaselineMean)
	}
	// The matched-quartile reweighting compares like sizes with like: the
	// verdict must recover the poisoned generation's exact 3x degradation
	// even though the baseline window's size mix differs from the canary's.
	if ratio := promo.CanaryMean / promo.BaselineMean; math.Abs(ratio-3) > 1e-9 {
		t.Errorf("canary/baseline ratio %g, want exactly the 3x poison", ratio)
	}
	if !rb.Rollback || rb.Generation != 2 || rb.Reinstated != 0 || rb.Worker != -1 {
		t.Errorf("rollback event %+v, want generation 2 reinstating 0 with no worker", rb)
	}
	if rb.TuneDuration != 0 || rb.Detected != rb.Swapped || rb.Start != rb.Swapped {
		t.Errorf("rollback event %+v, want an instantaneous swap (no tune)", rb)
	}
	if rb.Swapped <= promo.Swapped {
		t.Errorf("rollback at %g not after the promotion at %g", rb.Swapped, promo.Swapped)
	}

	// Generation stamps stay monotone and every cohort served traffic: 0
	// before the swap, 1 for the canary cohort, 2 after the rollback.
	counts := map[int]int{}
	for i, g := range rep.Generations {
		if i > 0 && g < rep.Generations[i-1] {
			t.Fatalf("generation stamp regressed at %d: %d -> %d", i, rep.Generations[i-1], g)
		}
		counts[g]++
	}
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("generation cohorts %v, want all of 0/1/2 populated", counts)
	}
	if counts[1] < cfg.CanaryWindow {
		t.Errorf("canary cohort of %d smaller than the window %d", counts[1], cfg.CanaryWindow)
	}

	// Post-rollback recovery: the mean sojourn on the rollback generation is
	// back within the margin of the pre-swap baseline (identical service, so
	// it matches up to the size-mix difference between cohorts).
	means := meanSojournByGen(rep)
	if diff := math.Abs(means[2]-means[0]) / means[0]; diff > cfg.RollbackMargin {
		t.Errorf("post-rollback mean %g vs pre-swap %g: %.0f%% apart, want within the %g margin",
			means[2], means[0], diff*100, cfg.RollbackMargin)
	}
	if means[1] <= means[0]*2 {
		t.Errorf("poisoned cohort mean %g not measurably worse than baseline %g", means[1], means[0])
	}
	if !eqNaN(rb.PostMean, means[2]) || !eqNaN(rb.PreMean, means[1]) {
		t.Errorf("rollback pre/post means (%g, %g), want (%g, %g)",
			rb.PreMean, rb.PostMean, means[1], means[2])
	}

	// The rollback is published forward: the live set ends on generation 2,
	// having never regressed.
	if g := sv.Live().Current(); g.ID != 2 {
		t.Errorf("live generation %d, want 2 (rollback is a forward swap)", g.ID)
	}
	if snap := sv.Metrics(); snap == nil || snap.Rollbacks != 1 {
		t.Errorf("metrics snapshot missing the rollback: %+v", snap)
	}

	// Exact determinism, rollback timing included: a fresh supervisor over
	// the same inputs reproduces the run bit for bit.
	rep2, _ := run()
	if !reportsEqual(rep, rep2) {
		t.Error("repeated guarded run produced a different report")
	}
	if rep2.Metrics.Swaps[0].CanaryMean != promo.CanaryMean ||
		rep2.Metrics.Swaps[0].BaselineMean != promo.BaselineMean {
		t.Error("canary verdict not deterministic across runs")
	}
}

// A genuinely better re-tune survives its canary: the verdict is recorded,
// no rollback happens, and serving stays on the promoted generation.
func TestSupervisorCanaryConfirmsGoodSwap(t *testing.T) {
	cfg := trace.SupervisorConfig{
		Server:         trace.ServerConfig{Workers: 2},
		Window:         4,
		CheckEvery:     2,
		TuneDuration:   0.03,
		MaxRetunes:     1,
		CanaryWindow:   6,
		RollbackMargin: 0.25,
	}
	sv, reqs, err := canaryTrace(0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Generation != 1 || m.Rollbacks != 0 {
		t.Fatalf("want one kept promotion, got %d swaps generation %d rollbacks %d",
			len(m.Swaps), m.Generation, m.Rollbacks)
	}
	s := m.Swaps[0]
	if s.CanaryMean <= 0 || s.BaselineMean <= 0 {
		t.Fatalf("canary verdict not recorded on a kept promotion: %+v", s)
	}
	if ratio := s.CanaryMean / s.BaselineMean; math.Abs(ratio-0.5) > 1e-9 {
		t.Errorf("canary/baseline ratio %g, want the 0.5x improvement", ratio)
	}
	if g := sv.Live().Current(); g.ID != 1 {
		t.Errorf("live generation %d, want the promotion kept at 1", g.ID)
	}
}

// A purely time-bound canary (CanaryWindow 0, CanaryDuration set) closes by
// the virtual clock and still rolls a poisoned promotion back.
func TestSupervisorCanaryDurationCloses(t *testing.T) {
	cfg := trace.SupervisorConfig{
		Server:         trace.ServerConfig{Workers: 2},
		Window:         4,
		CheckEvery:     2,
		TuneDuration:   0.03,
		MaxRetunes:     1,
		CanaryDuration: 0.05,
		RollbackMargin: 0.25,
	}
	sv, reqs, err := canaryTrace(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m.Rollbacks != 1 || len(m.Swaps) != 2 {
		t.Fatalf("time-bound canary missed the poison: %d rollbacks, %d swaps", m.Rollbacks, len(m.Swaps))
	}
	promo, rb := m.Swaps[0], m.Swaps[1]
	if rb.Swapped < promo.Swapped+cfg.CanaryDuration {
		t.Errorf("verdict at %g, before the canary duration elapsed (swap %g + %g)",
			rb.Swapped, promo.Swapped, cfg.CanaryDuration)
	}
}

// A canary window still open when the trace ends reaches no verdict: the
// promotion stands, no rollback happens, and the unevaluated verdict fields
// stay zero.
func TestSupervisorCanaryOpenAtTraceEnd(t *testing.T) {
	cfg := trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 2},
		Window:       4,
		CheckEvery:   2,
		TuneDuration: 0.03,
		MaxRetunes:   1,
		CanaryWindow: 1000, // can never fill on a 100-request trace
	}
	sv, reqs, err := canaryTrace(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if len(m.Swaps) != 1 || m.Rollbacks != 0 {
		t.Fatalf("open canary must not decide: %d swaps, %d rollbacks", len(m.Swaps), m.Rollbacks)
	}
	if s := m.Swaps[0]; s.CanaryMean != 0 || s.BaselineMean != 0 {
		t.Errorf("unclosed canary recorded a verdict: %+v", s)
	}
	if g := sv.Live().Current(); g.ID != 1 {
		t.Errorf("live generation %d, want the promotion still live", g.ID)
	}
}

// Rollback rearms drift control: after the canary reverts a poisoned
// promotion, a later drift check may launch a fresh tune (subject to
// MaxRetunes), and generation ids keep climbing monotonically.
func TestSupervisorRetuneAfterRollback(t *testing.T) {
	cfg := trace.SupervisorConfig{
		Server:         trace.ServerConfig{Workers: 2},
		Window:         4,
		CheckEvery:     2,
		TuneDuration:   0.03,
		MaxRetunes:     2,
		CanaryWindow:   4,
		RollbackMargin: 0.25,
	}
	sizes := []int{16, 64, 256, 512}
	reqs := make([]trace.Request, 120)
	for i := range reqs {
		reqs[i] = trace.Request{Arrival: float64(i) * 0.01, Size: sizes[i%4]}
	}
	gen0 := func(_ float64, size int) (float64, error) { return float64(size) * 1e-6, nil }
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	// First tune is poisoned (3x), the second is a real improvement (0.5x).
	tunes := 0
	retune := func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		tunes++
		factor := 3.0
		if tunes > 1 {
			factor = 0.5
		}
		return func(_ float64, size int) (float64, error) {
			return float64(size) * 1e-6 * factor, nil
		}, nil
	}
	sv, err := trace.NewSupervisor(cfg, gen0, always, retune)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if tunes != 2 {
		t.Fatalf("ran %d tunes, want the rollback to leave budget for a second", tunes)
	}
	// Four swaps: poisoned promotion, rollback, good promotion, kept.
	if len(m.Swaps) != 3 || m.Rollbacks != 1 || m.Generation != 3 {
		t.Fatalf("swaps %d rollbacks %d generation %d, want 3/1/3", len(m.Swaps), m.Rollbacks, m.Generation)
	}
	if !m.Swaps[1].Rollback || m.Swaps[0].Rollback || m.Swaps[2].Rollback {
		t.Fatalf("rollback flags off: %+v", m.Swaps)
	}
	if m.Swaps[2].CanaryMean <= 0 || m.Swaps[2].CanaryMean >= m.Swaps[2].BaselineMean {
		t.Errorf("second promotion's canary %+v, want a confirmed improvement", m.Swaps[2])
	}
	for i := 1; i < len(rep.Generations); i++ {
		if rep.Generations[i] < rep.Generations[i-1] {
			t.Fatalf("generation stamp regressed at %d", i)
		}
	}
	if g := sv.Live().Current(); g.ID != 3 {
		t.Errorf("live generation %d, want 3", g.ID)
	}
}

// Concurrent Run calls on one Supervisor are serialized on the shared
// LiveSet: run with -race. Two overlapping runs must produce exactly the
// reports a sequential run produces, observers must never see a generation
// regress, and the live set must end at the sum of both runs' swaps.
func TestSupervisorConcurrentRunsHotSwapUnderLoad(t *testing.T) {
	reqs, err := trace.Generate(300, trace.GeneratorConfig{QPS: 2000, MaxBatch: 512, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	always := func([]trace.WindowEntry) (bool, error) { return true, nil }
	retune := func(gen int, _ []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return constTimed(1e-5 * float64(1+gen%3)), nil
	}
	cfg := trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 2},
		Window:       4,
		CheckEvery:   2,
		TuneDuration: 1e-4,
	}
	// Sequential reference: what any single run over these inputs yields.
	ref, err := trace.NewSupervisor(cfg, constTimed(1e-5), always, retune)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	sv, err := trace.NewSupervisor(cfg, constTimed(1e-5), always, retune)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var obs sync.WaitGroup
	for r := 0; r < 4; r++ {
		obs.Add(1)
		go func() {
			defer obs.Done()
			last := -1
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := sv.Live().Current()
				if g == nil || g.Service == nil {
					t.Error("torn generation observed")
					return
				}
				if g.ID < last {
					t.Errorf("observer saw generation regress: %d after %d", g.ID, last)
					return
				}
				last = g.ID
			}
		}()
	}
	reports := make([]*trace.Report, 2)
	errs := make([]error, 2)
	var runs sync.WaitGroup
	for i := 0; i < 2; i++ {
		runs.Add(1)
		go func(i int) {
			defer runs.Done()
			reports[i], errs[i] = sv.Run(reqs)
		}(i)
	}
	runs.Wait()
	close(stop)
	obs.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reportsEqual(reports[i], want) {
			t.Errorf("concurrent run %d differs from the sequential reference", i)
		}
	}
	if got, want := sv.Live().Current().ID, 2*want.Metrics.Generation; got != want {
		t.Errorf("live generation %d after two serialized runs, want %d", got, want)
	}
}

// MemoTimedService memoizes errors and is a singleflight under contention:
// the inner measurement runs at most once per (phase, size) even when many
// engine workers ask at once. Run with -race.
func TestMemoTimedServiceErrorSingleflight(t *testing.T) {
	boom := errors.New("simulator exploded")
	var calls int32
	gate := make(chan struct{})
	svc := trace.MemoTimedService(func(float64, int) (float64, error) {
		atomic.AddInt32(&calls, 1)
		<-gate
		return 0, boom
	}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc(0, 7); !errors.Is(err, boom) {
				t.Errorf("got %v, want the memoized error", err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Errorf("inner called %d times, want 1 (error singleflight)", calls)
	}
	if _, err := svc(123, 7); !errors.Is(err, boom) {
		t.Error("error not memoized on a later call")
	}
}
