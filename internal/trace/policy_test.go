package trace

import (
	"math"
	"strings"
	"testing"
)

// TestQueuePolicyValidate covers every rejection path of the shared
// queue-policy validation, plus the accepting boundary cases, so neither
// ServerConfig nor the fleet configuration can drift away from the contract.
func TestQueuePolicyValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       QueuePolicy
		wantErr string // "" = accept
	}{
		{"zero value", QueuePolicy{}, ""},
		{"all set", QueuePolicy{Workers: 4, QueueDepth: 64, Deadline: 1.5, Policy: DegradeShed, SplitCap: 512}, ""},
		{"negative workers", QueuePolicy{Workers: -1}, "Workers"},
		{"negative queue depth", QueuePolicy{QueueDepth: -2}, "QueueDepth"},
		{"negative deadline", QueuePolicy{Deadline: -0.5}, "Deadline"},
		{"NaN deadline", QueuePolicy{Deadline: math.NaN()}, "Deadline"},
		{"negative split cap", QueuePolicy{SplitCap: -3}, "SplitCap"},
		{"policy below range", QueuePolicy{Policy: DegradePolicy(-1)}, "unknown policy"},
		{"policy above range", QueuePolicy{Policy: DegradeShed + 1}, "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// ServerConfig validation must reject exactly what the shared queue policy
// rejects.
func TestServerConfigValidateDelegates(t *testing.T) {
	bad := []struct {
		name string
		cfg  ServerConfig
		want string
	}{
		{"queue policy", ServerConfig{Workers: -1}, "Workers"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}

	good := ServerConfig{Workers: 2, QueueDepth: 8, Deadline: 1, SplitCap: 512}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestQueuePolicyEffectiveWorkers(t *testing.T) {
	p := QueuePolicy{}
	if got := p.EffectiveWorkers(); got != 1 {
		t.Fatalf("EffectiveWorkers() = %d, want 1 for the zero value", got)
	}
	p.Workers = 5
	if got := p.EffectiveWorkers(); got != 5 {
		t.Fatalf("EffectiveWorkers() = %d, want 5", got)
	}
}

func TestQueuePolicyDeadlineFor(t *testing.T) {
	p := QueuePolicy{Deadline: 2}
	if got := p.DeadlineFor(Request{Arrival: 1}); got != 3 {
		t.Fatalf("default deadline: got %g, want 3", got)
	}
	if got := p.DeadlineFor(Request{Arrival: 1, Deadline: 0.5}); got != 1.5 {
		t.Fatalf("per-request deadline: got %g, want 1.5", got)
	}
	none := QueuePolicy{}
	if got := none.DeadlineFor(Request{Arrival: 1}); !math.IsInf(got, 1) {
		t.Fatalf("no deadline: got %g, want +Inf", got)
	}
}

func TestParseDegradePolicy(t *testing.T) {
	for s, want := range map[string]DegradePolicy{
		"split-tail": DegradeSplitTail, "split": DegradeSplitTail,
		"serve-all": DegradeServe, "serve": DegradeServe,
		"shed": DegradeShed,
	} {
		got, err := ParseDegradePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseDegradePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if back, err := ParseDegradePolicy(got.String()); err != nil || back != got {
			t.Fatalf("round-trip of %v through String failed: %v, %v", got, back, err)
		}
	}
	if _, err := ParseDegradePolicy("bogus"); err == nil {
		t.Fatal("ParseDegradePolicy(bogus) accepted")
	}
}
