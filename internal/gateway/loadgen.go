package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/datasynth"
)

// LoadgenConfig configures one open-loop load-generator run against a
// gateway.
type LoadgenConfig struct {
	// URL is the gateway base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Arrival draws inter-arrival gaps in *wall* seconds. Required.
	Arrival datasynth.ArrivalProcess
	// Sizes draws request batch sizes (values < 1 are clamped to 1). Required.
	Sizes datasynth.Dist
	// Model and Tenant index into the gateway's pool. Must be >= 0.
	Model, Tenant int
	// DeadlineSim is the per-request relative deadline in simulated seconds
	// (0 = server default). Must be finite and >= 0.
	DeadlineSim float64
	// Requests is the total request count. Must be positive.
	Requests int
	// Workers bounds in-flight concurrency. Must be positive. Workers do not
	// pace the schedule — intended send times are fixed up front — they only
	// bound how many requests can be on the wire at once.
	Workers int
	// Seed makes the schedule and sizes reproducible.
	Seed int64
	// Client is the HTTP client; nil builds one with persistent keep-alive
	// connections sized to Workers, so every worker multiplexes over a warm
	// connection instead of paying a dial per request.
	Client *http.Client
	// Clock is the wall-clock source; nil means the real clock.
	Clock Clock
}

// LoadgenResult summarizes one run. Latencies are coordinated-omission
// correct: each request's latency is measured from its *intended* send time
// on the precomputed open-loop schedule, not from when a worker actually got
// to it — a stalled server therefore inflates the recorded tail instead of
// silently thinning the arrival stream.
type LoadgenResult struct {
	// Sent counts requests put on the wire; Served and Shed partition the
	// gateway's answers; Errors counts transport or non-2xx failures. Lost is
	// Sent minus answered — anything the gateway accepted but never answered.
	Sent, Served, Shed, Errors, Lost int
	// Latencies[i] is request i's wall latency from intended send time.
	// Failed requests record their latency too (the time to the error).
	Latencies []time.Duration
	// P50, P95, P99 are latency percentiles over all requests (0 when none).
	P50, P95, P99 time.Duration
	// Elapsed is the wall duration of the whole run.
	Elapsed time.Duration
}

// RunLoadgen drives an open-loop, coordinated-omission-correct load test:
// the full arrival schedule is drawn up front from the seeded process, each
// request fires as close to its intended time as a free worker allows, and
// latency is always measured from the intended time. Modeled on
// scylla-bench's rate-limited workers and cedar's persistent multiplexed
// connections.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenResult, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("gateway: loadgen needs a target URL")
	}
	if cfg.Arrival == nil || cfg.Sizes == nil {
		return nil, fmt.Errorf("gateway: loadgen needs arrival process and size distribution")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("gateway: loadgen request count must be positive, got %d", cfg.Requests)
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("gateway: loadgen worker count must be positive, got %d", cfg.Workers)
	}
	if cfg.Model < 0 || cfg.Tenant < 0 {
		return nil, fmt.Errorf("gateway: loadgen model and tenant are pool indices and must be >= 0, got %d and %d", cfg.Model, cfg.Tenant)
	}
	if !(cfg.DeadlineSim >= 0) || math.IsInf(cfg.DeadlineSim, 1) {
		return nil, fmt.Errorf("gateway: loadgen deadline must be finite and >= 0, got %g", cfg.DeadlineSim)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock()
	}
	client := cfg.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        cfg.Workers,
			MaxIdleConnsPerHost: cfg.Workers,
			IdleConnTimeout:     90 * time.Second,
		}
		client = &http.Client{Transport: tr}
		defer tr.CloseIdleConnections()
	}

	// The whole schedule is fixed before the first byte is sent: intended
	// offsets from the run start, and sizes. A slow server cannot push the
	// schedule back — that feedback is exactly the coordinated-omission bug.
	rng := rand.New(rand.NewSource(cfg.Seed))
	offsets := make([]time.Duration, cfg.Requests)
	sizes := make([]int, cfg.Requests)
	var at float64
	for i := 0; i < cfg.Requests; i++ {
		offsets[i] = time.Duration(at * float64(time.Second))
		at += cfg.Arrival.Next(rng)
		if s := cfg.Sizes.Sample(rng); s > 0 {
			sizes[i] = s
		} else {
			sizes[i] = 1
		}
	}

	res := &LoadgenResult{Latencies: make([]time.Duration, cfg.Requests)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	idx := make(chan int)
	start := clock.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				intended := start.Add(offsets[i])
				if d := intended.Sub(clock.Now()); d > 0 {
					<-clock.After(d)
				}
				outcome, err := postInfer(client, cfg, sizes[i])
				// Latency from the intended send time: queueing behind a
				// stalled server or a saturated worker pool is charged to
				// the request, not hidden.
				lat := clock.Now().Sub(intended)
				mu.Lock()
				res.Latencies[i] = lat
				res.Sent++
				switch {
				case err != nil:
					res.Errors++
				case outcome == "served" || outcome == "split":
					res.Served++
				default:
					res.Shed++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	res.Elapsed = clock.Now().Sub(start)
	res.Lost = res.Sent - res.Served - res.Shed - res.Errors

	sorted := append([]time.Duration(nil), res.Latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	res.P50 = rankDuration(sorted, 0.50)
	res.P95 = rankDuration(sorted, 0.95)
	res.P99 = rankDuration(sorted, 0.99)
	return res, nil
}

// postInfer sends one inference request and returns the gateway's outcome.
func postInfer(client *http.Client, cfg LoadgenConfig, size int) (string, error) {
	body, err := json.Marshal(InferRequest{
		Model: cfg.Model, Tenant: cfg.Tenant, Size: size, DeadlineSim: cfg.DeadlineSim,
	})
	if err != nil {
		return "", err
	}
	resp, err := client.Post(cfg.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return "", fmt.Errorf("gateway: infer returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Outcome, nil
}

// rankDuration is nearest-rank selection on a sorted sample, clamped to 0
// when empty (matching trace.Percentile's empty-sample contract).
func rankDuration(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
