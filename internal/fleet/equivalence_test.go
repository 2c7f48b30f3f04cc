package fleet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// reportBits renders a single-model report as text in which every float
// prints as its shortest round-trip form, so equal text means equal bits:
// the whole Result, outcomes, generation stamps, and every Metrics field but
// the queue-depth series, which the fleet pool does not record.
func reportBits(r *trace.Report) string {
	m := *r.Metrics
	m.QueueDepth = nil
	lat := *m.Latency
	m.Latency = nil
	return fmt.Sprintf("%+v\n%v\n%v\n%+v\n%+v", r.Result, r.Outcomes, r.Generations, m, lat)
}

// requireSameBits fails the test at the first byte where got and want differ.
func requireSameBits(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	t.Fatalf("%s: reports diverge at byte %d:\n got ...%s\nwant ...%s", label, i,
		got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// serveBoth replays reqs through trace.Server and fleet.ServeSingle over the
// same size-proportional service and requires the two reports to agree bit
// for bit. Both engines replay the stream twice on one instance: the
// server's second run goes through its pooled replay scratch and memoized
// service times and must stay exactly equivalent. With preempt set, a FIFO
// pool with chunk-boundary preemption armed must agree too: with one tenant
// no request outranks a chunk, so the gate never fires.
func serveBoth(t *testing.T, label string, q trace.QueuePolicy, reqs []trace.Request, preempt bool) {
	t.Helper()
	svc := func(size int) (float64, error) { return float64(size) * 1e-3, nil }
	srv, err := trace.NewServer(q, svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(reqs); err != nil {
		t.Fatal(err)
	}
	tr, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBits(tr)

	m := fleet.Model{Name: "m", Service: trace.Untimed(svc)}
	for run := 0; run < 2; run++ {
		fr, err := fleet.ServeSingle(q, m, reqs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("%s run %d", label, run), reportBits(fr), want)
	}
	if preempt {
		pool, err := fleet.NewPool(fleet.Config{Queue: q, Admission: fleet.FIFO{}, Preempt: true},
			[]fleet.Model{m}, []fleet.TenantSpec{{Name: "only"}})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pool.Serve(fleet.Merge(fleet.Stream{Reqs: reqs}))
		if err != nil {
			t.Fatal(err)
		}
		if pr.Metrics.Preemptions != 0 {
			t.Fatalf("%s: %d preemptions in a single-priority run", label, pr.Metrics.Preemptions)
		}
		requireSameBits(t, label+" preempt-armed pool", reportBits(pr.ModelReports[0]), want)
	}
}

// denseStream emits n requests with sub-service inter-arrival gaps so the
// two-worker system is backlogged from the start; sizes cycle through a
// deterministic mix, with every seventh request a long-tail batch.
func denseStream(n int, withTails bool) []trace.Request {
	var reqs []trace.Request
	for i := 0; i < n; i++ {
		size := 64 + (i%5)*32
		if withTails && i%7 == 3 {
			size = 700
		}
		reqs = append(reqs, trace.Request{Arrival: float64(i) * 0.01, Size: size})
	}
	return reqs
}

// sparseStream emits n requests whose gaps often exceed the service time, so
// several workers sit idle before an arrival (the idle-worker tie-break is
// exercised), mixed with bursts that queue; one in eight is a long-tail
// batch and a few carry their own deadline.
func sparseStream(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []trace.Request
	at := 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			at += rng.ExpFloat64() * 0.01
		} else {
			at += rng.ExpFloat64() * 0.4
		}
		r := trace.Request{Arrival: at, Size: 16 + rng.Intn(300)}
		if rng.Intn(8) == 0 {
			r.Size = 600 + rng.Intn(600)
		}
		if rng.Intn(10) == 0 {
			r.Deadline = rng.Float64()
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// The fleet pool's single-model serving loop replays every stream exactly
// like the single-model engine: sojourn bits, outcomes, percentiles,
// utilization, worker accounting, shed causes, histogram. The table crosses
// dense and sparse streams with all three degrade policies, bounded and
// unbounded queues (a bounded split-tail queue evicts queued tails) and 1–6
// workers, plus the original fixed shapes.
func TestServeSingleMatchesServer(t *testing.T) {
	type tc struct {
		name    string
		q       trace.QueuePolicy
		reqs    []trace.Request
		preempt bool
	}
	cases := []tc{
		{"bounded-queue", trace.QueuePolicy{Workers: 2, QueueDepth: 6, Policy: trace.DegradeServe}, denseStream(48, false), false},
		{"deadline-shed", trace.QueuePolicy{Workers: 2, Deadline: 0.4, Policy: trace.DegradeShed}, denseStream(48, false), false},
		{"split-tail", trace.QueuePolicy{Workers: 2, Deadline: 1.0, Policy: trace.DegradeSplitTail, SplitCap: 256}, denseStream(48, true), false},
		{"split-tail-preempt-armed", trace.QueuePolicy{Workers: 2, Deadline: 1.0, Policy: trace.DegradeSplitTail, SplitCap: 256}, denseStream(48, true), true},
	}
	policies := []trace.DegradePolicy{trace.DegradeServe, trace.DegradeShed, trace.DegradeSplitTail}
	for _, dense := range []bool{true, false} {
		for _, pol := range policies {
			for _, depth := range []int{0, 4} {
				for k := 1; k <= 6; k++ {
					reqs, kind := denseStream(80, true), "dense"
					if !dense {
						reqs, kind = sparseStream(120, int64(k)), "sparse"
					}
					q := trace.QueuePolicy{Workers: k, QueueDepth: depth, Deadline: 0.5, Policy: pol, SplitCap: 256}
					cases = append(cases, tc{name: fmt.Sprintf("%s-%v-depth%d-k%d", kind, pol, depth, k), q: q, reqs: reqs})
				}
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { serveBoth(t, c.name, c.q, c.reqs, c.preempt) })
	}
}

// FuzzServeSingleMatchesServer: on arbitrary streams and queue policies the
// fleet pool's single-model serving loop and the single-model engine agree
// bit for bit.
func FuzzServeSingleMatchesServer(f *testing.F) {
	f.Add([]byte{2, 4, 2, 1, 9, 200, 3, 40, 0, 250, 7, 90, 1, 5, 255, 2, 60, 30})
	f.Add([]byte{5, 0, 1, 0, 1, 10, 1, 10, 1, 10, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{1, 2, 0, 3, 0, 255, 0, 255, 50, 100, 2, 1, 250, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		q := trace.QueuePolicy{
			Workers:    1 + int(data[0])%6,
			QueueDepth: int(data[1]) % 8,
			Deadline:   float64(data[2]%4) * 0.25,
			Policy:     trace.DegradePolicy(data[3] % 3),
			SplitCap:   int(data[4]%3) * 128,
		}
		// Each request is two bytes: an arrival gap and a size; a gap byte
		// with the top bit set is long (sparse traffic), otherwise short.
		var reqs []trace.Request
		at := 0.0
		for i := 5; i+1 < len(data) && len(reqs) < 256; i += 2 {
			gap := float64(data[i]&0x7f) * 1e-3
			if data[i]&0x80 != 0 {
				gap *= 10
			}
			at += gap
			reqs = append(reqs, trace.Request{Arrival: at, Size: 1 + int(data[i+1])*3})
		}
		if len(reqs) == 0 {
			return
		}
		serveBoth(t, fmt.Sprintf("%+v", q), q, reqs, false)
	})
}
