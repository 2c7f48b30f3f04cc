package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/trace"
)

// spanName is one layer boundary the benchmark times from outside the
// program: spans wrap the calls into each layer, never code inside it.
type spanName uint8

const (
	spanRequest  spanName = iota // one open-loop request: due time to response read
	spanSend                     // its HTTP round trip: send to response read
	spanHTTP                     // the gateway's handler
	spanService                  // one fleet.Model.Service call
	spanBatch                    // one TimedBatchSource call (a service-memo miss)
	spanReplay                   // one timed offline replay
	spanServe                    // the fleet.Pool.Serve call inside it
	spanModel                    // one model's cold tune plus evaluation
	spanTune                     // core.RecFlex.Tune
	spanMeasure                  // core.RecFlex.Measure on one evaluation batch
	spanBaseline                 // baselines.TorchRec.Measure on one evaluation batch
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.request", "bench.send", "gateway.http", "core.service", "datasynth.batch",
	"bench.replay", "fleet.serve", "bench.model", "tuner.tune", "core.measure", "baselines.measure",
}

func (n spanName) String() string { return spanNames[n] }

// benchIDHeader carries the client's request id to the gateway handler, which
// joins the client-side and server-side spans of one request.
const benchIDHeader = "X-Bench-Id"

// span is one timed call. Spans of one request share id; parent indexes the
// enclosing span in tracer.spans. Spans recorded where the id or the parent is
// unknown (inside the engine) carry -1 until a join fills them in.
type span struct {
	name   spanName
	model  int16
	parent int32
	id     int64
	start  int64   // ns since the tracer epoch
	end    int64   // ns since the tracer epoch
	arg    float64 // join key: simulated arrival (core.service) or batch size (datasynth.batch)
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. While on is false every
// wrapper calls straight through, so one traced run can also measure an
// untraced half and report the tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is false for a nil tracer, so untraced runs pay one nil check.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addNested records a root span and one child span inside it.
func (t *tracer) addNested(root, child span) {
	t.mu.Lock()
	root.parent = -1
	child.parent = int32(len(t.spans))
	t.spans = append(t.spans, root, child)
	t.mu.Unlock()
}

// mark returns the index the next span will get, so joins can be limited to
// one phase's spans.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// timed records f as a root span of the given name; parents are filled in by
// a later join when the span nests in another.
func (t *tracer) timed(name spanName, id int64, model int, f func() error) error {
	if !t.active() {
		return f()
	}
	start := t.now()
	err := f()
	t.add(span{name: name, model: int16(model), parent: -1, id: id, start: start, end: t.now()})
	return err
}

// wrapService times every call of a model's service.
func (t *tracer) wrapService(model int, inner trace.TimedServiceFunc) trace.TimedServiceFunc {
	if t == nil {
		return inner
	}
	return func(at float64, size int) (float64, error) {
		if !t.on.Load() {
			return inner(at, size)
		}
		start := t.now()
		sv, err := inner(at, size)
		t.add(span{name: spanService, model: int16(model), parent: -1, id: -1, start: start, end: t.now(), arg: at})
		return sv, err
	}
}

// wrapSource times every batch the service memo asks for: one per miss.
func (t *tracer) wrapSource(model int, inner core.TimedBatchSource) core.TimedBatchSource {
	if t == nil {
		return inner
	}
	return func(at float64, size int) (*embedding.Batch, error) {
		if !t.on.Load() {
			return inner(at, size)
		}
		start := t.now()
		b, err := inner(at, size)
		t.add(span{name: spanBatch, model: int16(model), parent: -1, id: -1, start: start, end: t.now(), arg: float64(size)})
		return b, err
	}
}

// wrapHandler times the gateway's handler, tagged with the client's id.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		id, err := strconv.ParseInt(r.Header.Get(benchIDHeader), 10, 64)
		if err != nil {
			id = -1
		}
		t.add(span{name: spanHTTP, parent: -1, id: id, start: start, end: t.now()})
	})
}

// linkByID parents each unjoined child span recorded since from to the
// parent-name span carrying the same id.
func (t *tracer) linkByID(from int, child, parent spanName) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]int32)
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.name == parent {
			byID[s.id] = int32(i)
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.name != child || s.parent != -1 {
			continue
		}
		if p, ok := byID[s.id]; ok {
			s.parent = p
		}
	}
}

// linkByKey gives each unjoined child span recorded since from the id its
// key maps to, then parents it like linkByID.
func (t *tracer) linkByKey(from int, child, parent spanName, key func(*span) (int64, bool)) {
	t.mu.Lock()
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.name != child || s.parent != -1 {
			continue
		}
		if id, ok := key(s); ok {
			s.id = id
		}
	}
	t.mu.Unlock()
	t.linkByID(from, child, parent)
}

// linkByContainment parents each unjoined child span recorded since from to
// the parent-name span whose interval contains it (of the same model when
// sameModel), and copies its id. Parents of one name must not overlap, which
// holds wherever the benchmark uses it: the engine serializes service calls.
func (t *tracer) linkByContainment(from int, child, parent spanName, sameModel bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []int32
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].name == parent {
			parents = append(parents, int32(i))
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.name != child || s.parent != -1 {
			continue
		}
		for _, pi := range parents {
			p := &t.spans[pi]
			if p.start <= s.start && s.end <= p.end && (!sameModel || p.model == s.model) {
				s.parent = pi
				s.id = p.id
				break
			}
		}
	}
}

// selfTimes sums, per span name, the self time (duration minus the part its
// children cover) of every span recorded since from that descends from a root
// span of the given name, and returns the summed root durations.
func (t *tracer) selfTimes(from int, root spanName) (self [numSpanNames]float64, total float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans) - from
	children := make([]int64, n)
	for i := from; i < len(t.spans); i++ {
		if p := int(t.spans[i].parent); p >= from {
			children[p-from] += t.spans[i].dur()
		}
	}
	top := make([]int32, n)
	for i := range top {
		top[i] = -1
	}
	var topOf func(i int) int32
	topOf = func(i int) int32 {
		if top[i-from] >= 0 {
			return top[i-from]
		}
		r := int32(i)
		if p := int(t.spans[i].parent); p >= from {
			r = topOf(p)
		}
		top[i-from] = r
		return r
	}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		if t.spans[topOf(i)].name != root {
			continue
		}
		self[s.name] += float64(s.dur() - children[i-from])
		if s.parent < 0 {
			total += float64(s.dur())
		}
	}
	return self, total
}

// count returns how many spans of a name were recorded since from.
func (t *tracer) count(from int, name spanName) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := 0
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].name == name {
			c++
		}
	}
	return c
}

// each calls f on every span of a name recorded since from.
func (t *tracer) each(from int, name spanName, f func(*span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].name == name {
			f(&t.spans[i])
		}
	}
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range t.spans {
		s := &t.spans[i]
		arg := s.arg
		if math.IsNaN(arg) || math.IsInf(arg, 0) {
			arg = 0
		}
		fmt.Fprintf(w, `{"i":%d,"name":%q,"id":%d,"parent":%d,"model":%d,"start_ns":%d,"end_ns":%d,"arg":%g}`+"\n",
			i, s.name, s.id, s.parent, s.model, s.start, s.end, arg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
