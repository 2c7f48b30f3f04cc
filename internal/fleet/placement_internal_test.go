package fleet

import (
	"reflect"
	"testing"
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
