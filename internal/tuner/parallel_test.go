package tuner

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// countingSched wraps a schedule and counts Plan calls. With a non-nil
// gate, every Plan call first waits until the gate is open (closed).
type countingSched struct {
	sched.Schedule
	calls *atomic.Int64
	gate  <-chan struct{}
}

func (c countingSched) Plan(w *sched.Workload, dev *gpusim.Device, l2 sched.L2Context) (*sched.Plan, error) {
	if c.gate != nil {
		<-c.gate
	}
	c.calls.Add(1)
	return c.Schedule.Plan(w, dev, l2)
}

// failingSched wraps a schedule and fails every Plan call.
type failingSched struct{ sched.Schedule }

func (failingSched) Plan(*sched.Workload, *gpusim.Device, sched.L2Context) (*sched.Plan, error) {
	return nil, errors.New("injected plan failure")
}

// TestPrepareCancelsOnFirstPlanError pins cancellation where plan errors
// surface: Tune plans every feature's batches before the sweep, one job per
// feature on the worker pool (sweep.prepare). Once a plan fails, runJobs
// must (a) stop handing out feature jobs, and (b) return the error of the
// lowest failing feature, deterministically across runs and worker counts.
func TestPrepareCancelsOnFirstPlanError(t *testing.T) {
	dev := gpusim.V100()
	model, batches, _ := buildTuneModel(t, 2, 2, 128, 77)

	// Feature 1's only candidate fails; every other feature's candidates
	// count their Plan calls. Features past 1 wait on a gate that opens only
	// once runJobs has recorded the failure and stopped dispatching
	// (jobFailed), so no worker can run ahead through later jobs first,
	// under any goroutine schedule. Feature 0 stays ungated: with one
	// worker, job 1 runs only after job 0 finishes.
	var planCalls atomic.Int64
	var gate chan struct{}
	var openGate sync.Once
	jobFailed = func() { openGate.Do(func() { close(gate) }) }
	defer func() { jobFailed = nil }()
	candidates := model.Candidates
	wrap := func() {
		gate = make(chan struct{})
		openGate = sync.Once{}
		model.Candidates = make([][]sched.Schedule, len(candidates))
		for f := range candidates {
			if f == 1 {
				model.Candidates[f] = []sched.Schedule{failingSched{candidates[f][0]}}
				continue
			}
			var g <-chan struct{}
			if f > 1 {
				g = gate
			}
			wrapped := make([]sched.Schedule, len(candidates[f]))
			for ci, s := range candidates[f] {
				wrapped[ci] = countingSched{s, &planCalls, g}
			}
			model.Candidates[f] = wrapped
		}
	}

	occupancies := []int{1, 2, 4, 8}
	wantPrefix := fmt.Sprintf("tuner: occupancy %d, feature 1 (", occupancies[0])
	for run := 0; run < 3; run++ {
		for _, par := range []int{1, 4} {
			planCalls.Store(0)
			wrap()
			_, err := Tune(dev, model, batches, Options{Occupancies: occupancies, Parallelism: par})
			if err == nil {
				t.Fatal("injected failure did not surface")
			}
			// Deterministic first-in-job-order error: always feature 1,
			// reported at the first occupancy its candidate fits.
			if !strings.HasPrefix(err.Error(), wantPrefix) {
				t.Fatalf("run %d par %d: error %q, want prefix %q", run, par, err.Error(), wantPrefix)
			}
			if !strings.Contains(err.Error(), "injected plan failure") {
				t.Fatalf("run %d par %d: error %q does not wrap the injected failure", run, par, err.Error())
			}
			// Cancellation: when the failure is recorded, the jobs past 1
			// already handed out are all held at the gate, one per
			// worker besides the failing one, and the dispatcher hands
			// out at most one more. So only features 0 and 2..par+1 may
			// plan, each batch under each of its candidates at most once.
			limit := int64(len(batches) * len(candidates[0]))
			for f := 2; f <= par+1; f++ {
				limit += int64(len(batches) * len(candidates[f]))
			}
			if got := planCalls.Load(); got > limit {
				t.Fatalf("run %d par %d: %d plan calls after failure, want <= %d", run, par, got, limit)
			}
		}
	}
}

// TestRunJobsDeterministicError pins runJobs directly: the lowest-index
// failure wins regardless of worker count, and dispatch stops promptly after
// the failure instead of sweeping all n jobs. Jobs past the failing index
// block on a gate that opens once runJobs has recorded job 5's failure and
// stopped dispatching (jobFailed), so the started count is bounded by the
// in-flight window rather than by goroutine scheduling luck.
func TestRunJobsDeterministicError(t *testing.T) {
	const n = 100
	defer func() { jobFailed = nil }()
	for _, workers := range []int{1, 3, 8} {
		var started atomic.Int64
		gate := make(chan struct{})
		var openGate sync.Once
		jobFailed = func() { openGate.Do(func() { close(gate) }) }
		err := runJobs(n, workers, func(i int) error {
			started.Add(1)
			switch {
			case i == 5:
				return fmt.Errorf("job %d failed", i)
			case i > 5:
				<-gate
				if i == 7 || i == 20 {
					return fmt.Errorf("job %d failed", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "job 5 failed" {
			t.Fatalf("workers=%d: error %v, want job 5's", workers, err)
		}
		if s := started.Load(); s > int64(6+4*workers) {
			t.Errorf("workers=%d: %d jobs started after early failure", workers, s)
		}
	}
	if err := runJobs(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
	// Degenerate worker counts are clamped.
	if err := runJobs(3, 0, func(int) error { return nil }); err != nil {
		t.Fatalf("workers=0 run returned %v", err)
	}
}

// TestMemoSingleflightUnderRace hammers one Memo from many goroutines
// computing overlapping keys: every key's compute must run exactly once, all
// callers of a key must observe the same value (no torn entries), and the
// hit/miss counters must add up.
func TestMemoSingleflightUnderRace(t *testing.T) {
	memo := NewMemo()
	const keys = 16
	const goroutines = 8
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	vals := make([][]any, goroutines)
	for g := 0; g < goroutines; g++ {
		vals[g] = make([]any, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%d", k)
				v, err := memo.do(key, func() (any, error) {
					computes[k].Add(1)
					return &decision{bounds: []float64{float64(k)}}, nil
				})
				if err != nil {
					t.Errorf("goroutine %d key %d: %v", g, k, err)
					return
				}
				vals[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if c := computes[k].Load(); c != 1 {
			t.Errorf("key %d computed %d times, want 1", k, c)
		}
		for g := 1; g < goroutines; g++ {
			if vals[g][k] != vals[0][k] {
				t.Errorf("key %d: goroutine %d observed a different entry", k, g)
			}
		}
		if got := vals[0][k].(*decision).bounds[0]; got != float64(k) {
			t.Errorf("key %d: torn value %v", k, got)
		}
	}
	hits, misses := memo.Stats()
	if misses != keys {
		t.Errorf("%d misses, want %d", misses, keys)
	}
	if hits != int64(keys*(goroutines-1)) {
		t.Errorf("%d hits, want %d", hits, keys*(goroutines-1))
	}
	if memo.Len() != keys {
		t.Errorf("len %d, want %d", memo.Len(), keys)
	}
	memo.Reset()
	if memo.Len() != 0 {
		t.Error("reset left entries behind")
	}

	// Errors are memoized too (singleflight on failures).
	var fails atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := memo.do("bad", func() (any, error) {
			fails.Add(1)
			return nil, errors.New("boom")
		})
		if err == nil || err.Error() != "boom" {
			t.Fatalf("iteration %d: err %v", i, err)
		}
	}
	if fails.Load() != 1 {
		t.Errorf("failing compute ran %d times, want 1", fails.Load())
	}

	// A nil memo is a pass-through.
	var nilMemo *Memo
	ran := 0
	if _, err := nilMemo.do("x", func() (any, error) { ran++; return nil, nil }); err != nil || ran != 1 {
		t.Errorf("nil memo: ran=%d err=%v", ran, err)
	}
	nilMemo.Reset()
	if h, m := nilMemo.Stats(); h != 0 || m != 0 || nilMemo.Len() != 0 {
		t.Error("nil memo stats not empty")
	}
}

// TestFinishResultNeverPicksAbandoned pins the winner-selection invariant
// the warm-start early exit relies on: abandoned trials sort after complete
// ones and can never be adopted as the result.
func TestFinishResultNeverPicksAbandoned(t *testing.T) {
	m, _, _ := buildTuneModel(t, 1, 1, 64, 5)
	res := &Result{PerOccupancy: []OccupancyResult{
		{BlocksPerSM: 8, ChoiceIdx: zeroChoices(m), Latency: 0.5, Abandoned: true},
		{BlocksPerSM: 4, ChoiceIdx: zeroChoices(m), Latency: 2.0},
		{BlocksPerSM: 2, ChoiceIdx: zeroChoices(m), Latency: 3.0, Abandoned: true},
		{BlocksPerSM: 1, ChoiceIdx: zeroChoices(m), Latency: 1.0},
	}}
	out, err := finishResult(m, res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Occupancy != 1 || out.Latency != 1.0 {
		t.Fatalf("picked occupancy %d latency %g, want complete trial occ=1 lat=1", out.Occupancy, out.Latency)
	}
	for i, po := range out.PerOccupancy[:2] {
		if po.Abandoned {
			t.Errorf("trial %d is abandoned but sorted before complete trials", i)
		}
	}

	// All-abandoned input cannot produce a winner.
	res = &Result{PerOccupancy: []OccupancyResult{
		{BlocksPerSM: 8, ChoiceIdx: zeroChoices(m), Latency: 0.5, Abandoned: true},
	}}
	if _, err := finishResult(m, res); err == nil {
		t.Error("all-abandoned trials produced a winner")
	}
}

func zeroChoices(m *Model) []int { return make([]int, len(m.Features)) }

// heavyLastModel is a model whose features are listed lightest first, so
// its heaviest feature, a 400-hot lookup of 128-wide rows, is the last in
// index order. Its occupancies 5–8 lose.
func heavyLastModel(t *testing.T) (*Model, []*embedding.Batch) {
	t.Helper()
	model, batches, _ := buildModelFrom(t, []datasynth.FeatureSpec{
		{Name: "onehot4", Dim: 4, Rows: 4096, PF: datasynth.Fixed{K: 1}, Coverage: 1},
		{Name: "onehot8", Dim: 8, Rows: 8192, PF: datasynth.Fixed{K: 1}, Coverage: 1},
		{Name: "sparse16", Dim: 16, Rows: 8192, PF: datasynth.Fixed{K: 5}, Coverage: 0.3},
		{Name: "multi8", Dim: 8, Rows: 16384, PF: datasynth.Normal{Mu: 50, Sigma: 10}, Coverage: 1},
		{Name: "multi32", Dim: 32, Rows: 32768, PF: datasynth.Uniform{Lo: 1, Hi: 60}, Coverage: 0.8},
		{Name: "heavy128", Dim: 128, Rows: 32768, PF: datasynth.Fixed{K: 400}, Coverage: 1},
	}, 2, 128, 77)
	return model, batches
}

// TestHeaviestFirstPrunesAfterOneJob pins the order in which an occupancy's
// feature jobs start: heaviest predicted bound first (sweep.prepare). The
// fixture lists its heaviest feature last and its high occupancies lose, so
// at one worker every occupancy that is pruned before its global stage must
// have started exactly one feature job; in feature-index order each would
// start several. The selection and trials must be TuneSerial's.
func TestHeaviestFirstPrunesAfterOneJob(t *testing.T) {
	dev := gpusim.V100()
	model, batches := heavyLastModel(t)
	opts := Options{Occupancies: []int{1, 2, 3, 4, 5, 6, 7, 8}, Parallelism: 1}
	serial, err := TuneSerial(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	started := make([]int, len(opts.Occupancies))
	jobStarted = func(k, _ int) { started[k]++ }
	defer func() { jobStarted = nil }()
	got, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "heaviest-first", serialTrials(t, model, serial, opts.Occupancies, nil), got)
	nf, pruned := len(model.Features), 0
	for k, occ := range opts.Occupancies {
		switch started[k] {
		case nf:
		case 1:
			pruned++
		default:
			t.Errorf("occupancy %d started %d of its %d feature jobs, want all or one", occ, started[k], nf)
		}
	}
	if pruned == 0 {
		t.Error("no occupancy was pruned in its local stage")
	}
}

// TestLosingOccupancyCancelsRunningJob pins in-flight cancellation: a
// feature job whose occupancy is proven to lose while it runs must stop
// with errPruned, fold no bound and leave the occupancy's count of
// unfinished jobs alone, and the sweep must still select what TuneSerial
// selects. The test plays the sweep at one worker up to occupancy 6, the
// first that loses, and starts its second-ranked job. Once that job has
// passed its open check (jobStarted), the heaviest feature's job runs to
// the end and folds the bound that proves the loss, as a second worker
// would. A full tune at two workers, where cancellation depends on timing,
// must select TuneSerial's result too.
func TestLosingOccupancyCancelsRunningJob(t *testing.T) {
	dev := gpusim.V100()
	model, batches := heavyLastModel(t)
	opts := Options{Occupancies: []int{4, 6}, Parallelism: 1}
	serial, err := TuneSerial(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := serialTrials(t, model, serial, opts.Occupancies, nil)

	s, err := newSweep(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	const k = 1 // occupancy 6
	nf := len(model.Features)
	for i := 0; i < k*nf; i++ {
		if err := s.job(i); err != nil {
			t.Fatal(err)
		}
	}
	heavy, running := s.rank[k][0], s.rank[k][1]
	var left int
	var bound []float64
	jobStarted = func(kk, f int) {
		if kk != k || f != running {
			return
		}
		if err := s.featureJob(k, heavy); err != nil {
			t.Fatal(err)
		}
		if s.open(k) {
			t.Fatal("the heaviest feature's bound does not prove occupancy 6 loses")
		}
		left, bound = s.trials[k].left, slices.Clone(s.trials[k].bound)
	}
	defer func() { jobStarted = nil }()
	if err := s.featureJob(k, running); !errors.Is(err, errPruned) {
		t.Fatalf("running job returned %v, want errPruned", err)
	}
	tr := &s.trials[k]
	if bound == nil || tr.left != left || !slices.Equal(tr.bound, bound) || tr.choice[running] != 0 {
		t.Fatalf("cancelled job changed its trial: left %d -> %d, bound %v -> %v, choice %d",
			left, tr.left, bound, tr.bound, tr.choice[running])
	}
	jobStarted = nil
	for i := k * nf; i < len(opts.Occupancies)*nf; i++ {
		if err := s.job(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := finishResult(model, s.result())
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "cancelled", want, got)

	o := opts
	o.Parallelism = 2
	if got, err = Tune(dev, model, batches, o); err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "par=2", want, got)
}
