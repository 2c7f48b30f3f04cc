package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
)

// stub answers every infer request with a served outcome; the stallAt-th
// request holds a server-wide lock for stall, blocking every other request.
func stub(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(gateway.InferResponse{Outcome: "served"})
	}))
}

func every(n int, gap time.Duration) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = item{due: time.Duration(i+1) * gap, body: inferBody(0, 32)}
	}
	return items
}

func drive(t *testing.T, srv *httptest.Server, items []item) []sample {
	t.Helper()
	d := newDriver(srv.URL, 2, nil)
	defer d.close()
	out := make([]sample, len(items))
	d.run(items, out, 0)
	for i := range out {
		if !out[i].ok() {
			t.Fatalf("request %d: status %d, err %v", i, out[i].status, out[i].err)
		}
	}
	return out
}

// On an idle server the pacer releases each request within microseconds of
// its due time: the measured latency is the server's, not the timer's.
func TestPacerIsPunctualOnIdleServer(t *testing.T) {
	srv := stub(0, 0)
	defer srv.Close()
	items := every(300, time.Millisecond)
	out := drive(t, srv, items)
	var lags, rtts []float64
	for i := range out {
		lags = append(lags, us(out[i].paceLag))
		rtts = append(rtts, us(out[i].done-out[i].sent))
	}
	lags, rtts = sortedCopy(lags), sortedCopy(rtts)
	t.Logf("pace lag p50 %.2f us p99 %.2f us; rtt p50 %.1f us p99 %.1f us",
		percentile(lags, 0.5), percentile(lags, 0.99), percentile(rtts, 0.5), percentile(rtts, 0.99))
	if p50 := percentile(lags, 0.5); p50 > us(lateSend) {
		t.Fatalf("pace lag p50 %.2f us above %v", p50, lateSend)
	}
}

// A one-off 40ms server stall on a 1ms schedule must show up as a linearly
// growing from-due tail: the ~40 requests due during the stall waited 40, 39,
// ..., 1 ms. A generator timing from the actual send would record one slow
// request and nothing else.
func TestStallChargesQueuedRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	srv := stub(50, stall)
	defer srv.Close()
	items := every(150, time.Millisecond)
	out := drive(t, srv, items)
	lat := make([]float64, len(out))
	stalled := 0
	for i := range out {
		lat[i] = ms(out[i].fromDue(&items[i]))
		if lat[i] > lat[stalled] {
			stalled = i
		}
	}
	// The request due j ms after the stall began could not be answered
	// before the stall ended: it waited at least 40-j ms (less 3ms of slack
	// for where in its millisecond the stall began).
	for j := 1; j <= 30 && stalled+j < len(lat); j++ {
		if floor := float64(40-j) - 3; lat[stalled+j] < floor {
			t.Fatalf("request %d due %dms into the stall waited %.2fms, want >= %.0fms: %v",
				stalled+j, j, lat[stalled+j], floor, lat[stalled:min(stalled+40, len(lat))])
		}
	}
	if lat[stalled] < ms(stall) {
		t.Fatalf("slowest request waited %.2fms behind a %v stall", lat[stalled], stall)
	}
}

// The schedule is a function of the seed alone.
func TestScheduleIsSeeded(t *testing.T) {
	a := poissonFor(rand.New(rand.NewSource(7)), 1000, time.Second, pickCold)
	b := poissonFor(rand.New(rand.NewSource(7)), 1000, time.Second, pickCold)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedules of %d and %d items for 1000/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due || string(a[i].body) != string(b[i].body) {
			t.Fatalf("item %d differs under the same seed", i)
		}
	}
}
