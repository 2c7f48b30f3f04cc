package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gateway"
)

// item is one scheduled request of an open-loop run. The whole schedule,
// bodies included, is built from the seed before the first send.
type item struct {
	due   time.Duration // send time as an offset from the run start
	model int
	size  int
	body  []byte // the POST /v1/infer body
}

// sample is what the driver measured for one item. Every offset is from the
// run start, so latency from the due time charges a stalled server's backlog
// to the requests that queued behind it (no coordinated omission).
type sample struct {
	paceLag time.Duration // how late the pacer released the item; 0 when it was already overdue
	sent    time.Duration // when the request went to the transport
	done    time.Duration // when the response body had been read
	status  int
	resp    gateway.InferResponse
	err     error
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// connWait is the time an item waited for a free connection (and for a
// worker to pick it up) after the pacer released it or, when the pacer was
// already behind, after it fell due.
func (s *sample) connWait(it *item) time.Duration { return s.sent - it.due - s.paceLag }

func (s *sample) fromDue(it *item) time.Duration { return s.done - it.due }

// spinWindow is how long before a due time the pacer stops sleeping and
// starts polling the clock: a sleeping goroutine wakes up about half a
// millisecond late (p50 on a 2-vCPU host), which would measure the timer
// instead of the server. The poll does not call runtime.Gosched: a goroutine
// that keeps yielding keeps its P busy in the scheduler, which then finds it
// runnable before it polls the network, and loopback round trips stretched
// from 70us to 1.2ms. A plain busy poll leaves the other P free to block in
// the netpoller.
const spinWindow = 1500 * time.Microsecond

// driver sends open-loop schedules to one gateway over at most conns
// keep-alive connections.
type driver struct {
	url       string
	conns     int
	transport *http.Transport
	client    *http.Client
	tr        *tracer
}

func newDriver(baseURL string, conns int, tr *tracer) *driver {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &driver{
		url:       baseURL + "/v1/infer",
		conns:     conns,
		transport: t,
		client:    &http.Client{Transport: t, Timeout: time.Minute},
		tr:        tr,
	}
}

func (d *driver) close() { d.transport.CloseIdleConnections() }

// run sends every item at its due time and fills out[i] for items[i]; the
// request ids are idBase+i. One pacer goroutine releases items in schedule
// order to conns workers, each holding one connection, so a slow response
// delays later items instead of thinning the schedule.
func (d *driver) run(items []item, out []sample, idBase int64) {
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d.send(start, idBase+int64(i), &items[i], &out[i])
			}
		}()
	}
	for i := range items {
		due := items[i].due
		if wait := due - time.Since(start); wait > 0 {
			if wait > spinWindow {
				time.Sleep(wait - spinWindow)
			}
			for time.Since(start) < due {
			}
			out[i].paceLag = time.Since(start) - due
		}
		work <- i
	}
	close(work)
	wg.Wait()
}

func (d *driver) send(start time.Time, id int64, it *item, s *sample) {
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(it.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, strconv.FormatInt(id, 10))
	s.sent = time.Since(start)
	resp, err := d.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = time.Since(start)
	if err != nil {
		s.err = err
		return
	}
	if s.status != http.StatusOK {
		s.err = fmt.Errorf("infer returned %d: %s", s.status, bytes.TrimSpace(body))
		return
	}
	if err := json.Unmarshal(body, &s.resp); err != nil {
		s.err = fmt.Errorf("decoding infer response: %w", err)
		return
	}
	if d.tr.active() {
		d.tr.addNested(
			span{name: spanRequest, model: int16(it.model), id: id, start: d.tr.at(start.Add(it.due)), end: d.tr.at(start.Add(s.done))},
			span{name: spanSend, model: int16(it.model), id: id, start: d.tr.at(start.Add(s.sent)), end: d.tr.at(start.Add(s.done))},
		)
	}
}

// inferBody is the request body for one item; a model's traffic belongs to
// the tenant of the same index.
func inferBody(model, size int) []byte {
	return fmt.Appendf(nil, `{"model":%d,"tenant":%d,"size":%d}`, model, model, size)
}

// pickFunc draws one request's model and size.
type pickFunc func(*rand.Rand) (model, size int)

// poissonFor schedules Poisson arrivals at rate per second until span.
func poissonFor(rng *rand.Rand, rate float64, span time.Duration, pick pickFunc) []item {
	var items []item
	for at := rng.ExpFloat64() / rate; ; at += rng.ExpFloat64() / rate {
		due := time.Duration(at * float64(time.Second))
		if due >= span {
			return items
		}
		m, s := pick(rng)
		items = append(items, item{due: due, model: m, size: s, body: inferBody(m, s)})
	}
}

// poissonN schedules n Poisson arrivals at rate per second.
func poissonN(rng *rand.Rand, rate float64, n int, pick pickFunc) []item {
	items := make([]item, n)
	at := 0.0
	for i := range items {
		at += rng.ExpFloat64() / rate
		m, s := pick(rng)
		items[i] = item{due: time.Duration(at * float64(time.Second)), model: m, size: s, body: inferBody(m, s)}
	}
	return items
}

// backToBack schedules n requests all due at once: the driver then runs
// closed-loop, each connection sending as soon as its last answer arrived.
func backToBack(rng *rand.Rand, n int, pick pickFunc) []item {
	items := make([]item, n)
	for i := range items {
		m, s := pick(rng)
		items[i] = item{model: m, size: s, body: inferBody(m, s)}
	}
	return items
}

// latencies returns the from-due latencies of the answered items in ms,
// ascending.
func latencies(items []item, out []sample) []float64 {
	var l []float64
	for i := range out {
		if out[i].ok() {
			l = append(l, ms(out[i].fromDue(&items[i])))
		}
	}
	return sortedCopy(l)
}
