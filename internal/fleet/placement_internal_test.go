package fleet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Regression: assign() used to build the packed/spread assignment by sharing
// one backing slice across every model's row, so a caller editing one model's
// workers (for example a rebalance hook that trims a cloned row in place)
// silently edited every model's. Each row must own its storage.
func TestAssignRowsDoNotAlias(t *testing.T) {
	for _, s := range []Strategy{PlacementPacked, PlacementSpread} {
		asg := assign(s, 3, 2, make([]int, 3))
		asg[0][0] = 99
		for m := 1; m < len(asg); m++ {
			if asg[m][0] == 99 {
				t.Errorf("%v: mutating model 0's row leaked into model %d's row (shared backing array)", s, m)
			}
		}
	}
}

// apportionWorkers distributes the pool by largest remainder with a one-worker
// floor, deterministically.
func TestApportionWorkers(t *testing.T) {
	cases := []struct {
		name  string
		share []float64
		k     int
		want  []int
	}{
		{"even", []float64{1, 1}, 4, []int{2, 2}},
		{"proportional", []float64{3, 1}, 4, []int{3, 1}},
		{"zero demand keeps floor", []float64{1, 0}, 4, []int{3, 1}},
		{"floors reclaim overshoot", []float64{0.5, 0.5, 2}, 3, []int{1, 1, 1}},
		{"largest remainder wins", []float64{5, 1, 1}, 8, []int{6, 1, 1}},
	}
	for _, tc := range cases {
		var total float64
		for _, s := range tc.share {
			total += s
		}
		if got := apportionWorkers(tc.share, total, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: apportionWorkers(%v, %d) = %v, want %v", tc.name, tc.share, tc.k, got, tc.want)
		}
	}
}

// A request whose model has no placed worker can be neither served nor shed.
// Close must fail loudly, naming the model, instead of reporting the request
// as served with a NaN sojourn; the failure is sticky.
func TestCloseFailsOnUnresolvedRequests(t *testing.T) {
	svc := func(float64, int) (float64, error) { return 1e-3, nil }
	p, err := NewPool(Config{Queue: trace.QueuePolicy{Workers: 2}},
		[]Model{{Name: "a", Service: svc}, {Name: "b", Service: svc}}, []TenantSpec{{Name: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	l := p.Begin()
	if _, _, err := l.Admit(Request{Arrival: 0, Size: 8, Model: 0}); err != nil {
		t.Fatal(err)
	}
	l.st.asg[1] = nil // model b loses its placement mid-session
	for i := 1; i <= 3; i++ {
		if _, _, err := l.Admit(Request{Arrival: float64(i) * 1e-3, Size: 8, Model: 1}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = l.Close()
	if err == nil || !strings.Contains(err.Error(), "3 admitted requests never resolved: model b") {
		t.Fatalf("Close = %v, want the unresolved requests of model b reported", err)
	}
	if l.Err() != err {
		t.Errorf("Err() = %v, want the sticky close failure", l.Err())
	}
	if _, _, again := l.Close(); again != err {
		t.Errorf("second Close = %v, want the sticky failure", again)
	}
}
