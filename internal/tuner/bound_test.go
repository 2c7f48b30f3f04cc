package tuner

import (
	"math"
	"testing"
)

// TestLocalBoundsStopRule pins tuneFeatureBounded's stop rule on synthetic
// per-batch bounds. Each case gives, per batch and candidate, the TagBounds
// output (lower, pending) and the full-plan scale; want is the proven winner
// (-1: keep simulating) and final the exhaustive argmin once every run ends.
func TestLocalBoundsStopRule(t *testing.T) {
	const none = -1
	cases := []struct {
		name    string
		lower   [][]float64
		pending [][]int
		scale   [][]float64
		counted []bool
		want    int
		final   int
	}{
		{
			name:    "finished candidate below every bound",
			lower:   [][]float64{{1, 3, 2}, {1, 3, 2}},
			pending: [][]int{{0, 2, 1}, {0, 0, 3}},
			scale:   [][]float64{{1, 1, 1}, {1, 1, 1}},
			counted: []bool{true, true, true},
			want:    0, final: 0,
		},
		{
			name:    "no candidate finished",
			lower:   [][]float64{{1, 3}, {1, 3}},
			pending: [][]int{{1, 2}, {0, 1}},
			scale:   [][]float64{{1, 1}, {1, 1}},
			counted: []bool{true, true},
			want:    none, final: 0,
		},
		{
			name:    "exact tie never stops and the lower index wins",
			lower:   [][]float64{{2, 2, 5}, {1, 1, 5}},
			pending: [][]int{{0, 0, 0}, {0, 0, 0}},
			scale:   [][]float64{{1, 1, 1}, {1, 1, 1}},
			counted: []bool{true, true, true},
			want:    none, final: 0,
		},
		{
			name:    "tie with an unfinished rival's bound",
			lower:   [][]float64{{2, 2}, {1, 1}},
			pending: [][]int{{0, 4}, {0, 0}},
			scale:   [][]float64{{1, 1}, {1, 1}},
			counted: []bool{true, true},
			want:    none, final: 0,
		},
		{
			// Candidate 1 does not support batch 1's workload: no blocks,
			// scale 0, nothing pending there. Its score is batch 0's alone.
			name:    "candidate absent from one batch wins",
			lower:   [][]float64{{4, 1.5, 6}, {3, 0, 2}},
			pending: [][]int{{0, 0, 3}, {1, 0, 0}},
			scale:   [][]float64{{1, 2, 1}, {1, 0, 1}},
			counted: []bool{true, true, true},
			want:    1, final: 1,
		},
		{
			// Candidate 0 is absent from batch 0 and already finished in
			// batch 1, but its low score does not beat candidate 2's bound.
			name:    "absent candidate not yet proven",
			lower:   [][]float64{{0, 9, 2}, {3, 9, 1}},
			pending: [][]int{{0, 0, 1}, {0, 0, 2}},
			scale:   [][]float64{{0, 1, 1}, {1, 1, 1}},
			counted: []bool{true, true, true},
			want:    none, final: 0,
		},
		{
			name:    "rival bound inside the margin",
			lower:   [][]float64{{1, 1 + boundMargin/2}},
			pending: [][]int{{0, 5}},
			scale:   [][]float64{{1, 1}},
			counted: []bool{true, true},
			want:    none, final: 0,
		},
		{
			name:    "rival bound just past the margin",
			lower:   [][]float64{{1, 1 + 2*boundMargin}},
			pending: [][]int{{0, 5}},
			scale:   [][]float64{{1, 1}},
			counted: []bool{true, true},
			want:    0, final: 0,
		},
		{
			name:    "uncounted candidates do not compete",
			lower:   [][]float64{{0, 2, 3}},
			pending: [][]int{{0, 0, 1}},
			scale:   [][]float64{{0, 1, 1}},
			counted: []bool{false, true, true},
			want:    1, final: 1,
		},
		{
			name:    "NaN score never proves a winner",
			lower:   [][]float64{{math.NaN(), 1, 3}},
			pending: [][]int{{0, 0, 1}},
			scale:   [][]float64{{1, 1, 1}},
			counted: []bool{true, true, true},
			want:    none, final: 1,
		},
	}
	for _, tc := range cases {
		lb := newLocalBounds(len(tc.lower), len(tc.counted))
		for bi := range tc.lower {
			copy(lb.lower[bi], tc.lower[bi])
			copy(lb.pending[bi], tc.pending[bi])
			lb.scale[bi] = tc.scale[bi]
		}
		copy(lb.counted, tc.counted)
		if got := lb.winner(); got != tc.want {
			t.Errorf("%s: winner %d, want %d", tc.name, got, tc.want)
		}
		// The exhaustive decision on the same numbers: the proven winner,
		// when there is one, must be it.
		final, err := argminCounted(lb.sum, lb.counted)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if final != tc.final {
			t.Errorf("%s: argmin %d, want %d", tc.name, final, tc.final)
		}
		if tc.want != none && tc.want != final {
			t.Errorf("%s: proven winner %d is not the argmin %d", tc.name, tc.want, final)
		}
	}
}
