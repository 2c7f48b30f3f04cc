package tuner

import (
	"testing"

	"repro/internal/gpusim"
)

// Memo keys are device-aware: in a heterogeneous pool the same model tunes
// once per worker class, and a V100-keyed entry must never answer an
// A100-class lookup. This pins the device digest that every local and
// global key embeds.
func TestMemoFingerprintsDeviceAware(t *testing.T) {
	m := &Model{}
	v := newFingerprints(gpusim.V100(), m, nil, nil)
	a := newFingerprints(gpusim.A100(), m, nil, nil)
	if v.dev == a.dev {
		t.Fatal("V100 and A100 fingerprints collide; per-class tunes would share memo entries")
	}
	if v2 := newFingerprints(gpusim.V100(), m, nil, nil); v.dev != v2.dev {
		t.Fatal("same-device fingerprint is unstable across calls; memo hits would never occur")
	}
}
