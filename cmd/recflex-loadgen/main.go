// Command recflex-loadgen drives an open-loop load test against a running
// recflex-serve gateway (-listen mode). The full arrival schedule is drawn up
// front from a seeded process — Poisson by default — so a slow or stalled
// gateway cannot push intended send times back, and every latency is measured
// from the request's *intended* send time. That makes the reported tail
// coordinated-omission correct: queueing behind a saturated server is charged
// to the requests that suffered it instead of silently thinning the stream.
//
// Workers bound how many requests are on the wire at once over persistent
// keep-alive connections; they never pace the schedule.
//
// Usage:
//
//	recflex-serve -models A,C -listen 127.0.0.1:8080 -warp 1000 &
//	recflex-loadgen -url http://127.0.0.1:8080 -rate 200 -requests 1000 \
//	    -arrival poisson -sizes uniform:32:512 -workers 16
//
// Besides poisson and fixed, -arrival accepts the shaped processes
// diurnal[:PERIOD[:AMPLITUDE]] (sinusoid-modulated rate, a compressed
// day) and flash[:START:DURATION:FACTOR] (a one-shot burst window over
// the baseline rate) — both thinning-exact and seeded like the rest of
// the schedule.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/datasynth"
	"repro/internal/gateway"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recflex-loadgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, summary out,
// every failure as an error and a non-zero exit.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("recflex-loadgen", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "gateway base URL")
		rate     = fs.Float64("rate", 100, "mean arrival rate in requests per wall second")
		arrival  = fs.String("arrival", "poisson", "arrival process: poisson, fixed, diurnal[:PERIOD[:AMPLITUDE]] or flash[:START:DURATION:FACTOR]")
		sizes    = fs.String("sizes", "fixed:256", "request size distribution: fixed:K, uniform:LO:HI, normal:MU:SIGMA or lognormal:MU:SIGMA[:MAX]")
		requests = fs.Int("requests", 100, "total requests to send")
		workers  = fs.Int("workers", 8, "in-flight concurrency bound (never paces the schedule)")
		model    = fs.Int("model", 0, "pool model index to target")
		tenant   = fs.Int("tenant", 0, "pool tenant index to target")
		deadline = fs.Float64("deadline-sim", 0, "per-request relative deadline in simulated seconds (0 = none)")
		seed     = fs.Int64("seed", 1, "schedule and size seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// ParseArrival judges -rate and RunLoadgen every other value, before
	// anything is sent.
	arr, err := datasynth.ParseArrival(*arrival, *rate)
	if err != nil {
		return err
	}
	dist, err := datasynth.ParseSizeDist(*sizes)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "open-loop load: %d requests to %s, %s arrivals, sizes %s, %d workers (coordinated-omission-correct latencies)\n",
		*requests, *url, arr, *sizes, *workers)
	res, err := gateway.RunLoadgen(gateway.LoadgenConfig{
		URL:         *url,
		Arrival:     arr,
		Sizes:       dist,
		Model:       *model,
		Tenant:      *tenant,
		DeadlineSim: *deadline,
		Requests:    *requests,
		Workers:     *workers,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "done in %v wall: %d sent, %d served, %d shed, %d errors, %d lost\n",
		res.Elapsed.Round(time.Millisecond), res.Sent, res.Served, res.Shed, res.Errors, res.Lost)
	fmt.Fprintf(w, "wall latency from intended send: p50 %s p95 %s p99 %s\n",
		report.FmtUS(res.P50.Seconds()), report.FmtUS(res.P95.Seconds()), report.FmtUS(res.P99.Seconds()))
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Sent)
	}
	if res.Lost > 0 {
		return fmt.Errorf("%d of %d requests were accepted but never answered", res.Lost, res.Sent)
	}
	return nil
}
