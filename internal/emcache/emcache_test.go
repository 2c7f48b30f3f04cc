package emcache

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/uvmcache"
)

// driftConfig is the canonical drift scenario: one model, two same-shaped
// features, and at t=1 the traffic swaps from feature A to feature B. The
// budget fits exactly one feature, so the initial allocation (all of A) is
// optimal before the shift and worthless after it.
func driftConfig(p Policy, retier float64) Config {
	shape := FeatureHeat{Rows: 4096, RowBytes: 256, Skew: 1.07}
	hot := shape
	hot.RowsPerSample = 4
	cold := shape // RowsPerSample 0
	return Config{
		BudgetBytes: 4096 * 256,
		Policy:      p,
		RetierEvery: retier,
		Models: []ModelProfile{{Phases: []ProfilePhase{
			{Start: 0, Features: []FeatureHeat{hot, cold}},
			{Start: 1, Features: []FeatureHeat{cold, hot}},
		}}},
		Tenants: 1,
	}
}

func mustTier(t testing.TB, cfg Config) *Tier {
	t.Helper()
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"static": PolicyStatic, "": PolicyStatic, " Static ": PolicyStatic,
		"lru": PolicyLRU, "LRU": PolicyLRU,
		"clock": PolicyClock, "lfu": PolicyClock,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("arc"); err == nil {
		t.Error("ParsePolicy(arc): want error, got nil")
	}
	for _, p := range []Policy{PolicyStatic, PolicyLRU, PolicyClock} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	ok := driftConfig(PolicyLRU, 0)
	mutate := func(f func(*Config)) Config {
		c := driftConfig(PolicyLRU, 0)
		f(&c)
		return c
	}
	bad := map[string]Config{
		"zero budget":     mutate(func(c *Config) { c.BudgetBytes = 0 }),
		"no models":       mutate(func(c *Config) { c.Models = nil }),
		"no tenants":      mutate(func(c *Config) { c.Tenants = 0 }),
		"bad policy":      mutate(func(c *Config) { c.Policy = Policy(99) }),
		"negative retier": mutate(func(c *Config) { c.RetierEvery = -1 }),
		"heatdecay 1":     mutate(func(c *Config) { c.HeatDecay = 1 }),
		"negative fill":   mutate(func(c *Config) { c.FillThreshold = -1 }),
		"no phases":       mutate(func(c *Config) { c.Models[0].Phases = nil }),
		"no features":     mutate(func(c *Config) { c.Models[0].Phases = []ProfilePhase{{}} }),
		"unsorted phases": mutate(func(c *Config) {
			c.Models[0].Phases[1].Start = -1
		}),
		"feature count drift": mutate(func(c *Config) {
			c.Models[0].Phases[1].Features = c.Models[0].Phases[1].Features[:1]
		}),
		"table resize": mutate(func(c *Config) {
			c.Models[0].Phases[1].Features[0].Rows = 8192
		}),
		"zero rows": mutate(func(c *Config) {
			c.Models[0].Phases[0].Features[0].Rows = 0
		}),
		"negative rps": mutate(func(c *Config) {
			c.Models[0].Phases[0].Features[0].RowsPerSample = -1
		}),
	}
	for name, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
	if _, err := New(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestInitialAllocation(t *testing.T) {
	tier := mustTier(t, driftConfig(PolicyStatic, 0))
	if tier.Occupied() != tier.Budget() {
		t.Fatalf("initial occupancy %d, want full budget %d", tier.Occupied(), tier.Budget())
	}
	// The budget fits exactly feature A; feature B has zero phase-0 heat and
	// must own no rows.
	fa, fb := &tier.feats[0], &tier.feats[1]
	for bi := fa.b0; bi < fa.bn; bi++ {
		if !tier.buckets[bi].resident {
			t.Fatalf("hot feature bucket %d not resident in initial allocation", bi)
		}
	}
	for bi := fb.b0; bi < fb.bn; bi++ {
		if tier.buckets[bi].resident {
			t.Fatalf("zero-heat feature bucket %d resident in initial allocation", bi)
		}
	}
}

func TestDispatchFullyResident(t *testing.T) {
	tier := mustTier(t, driftConfig(PolicyStatic, 0))
	// Phase 0 traffic goes entirely to the resident feature: pure hits.
	var pen float64
	for i := 0; i < 10; i++ {
		pen += tier.Dispatch(0, 0, float64(i)*0.01, 64)
	}
	s := tier.Snapshot()
	if pen != 0 || s.Penalty != 0 || s.Misses != 0 {
		t.Fatalf("fully resident run: penalty=%g misses=%g, want 0", pen, s.Misses)
	}
	if s.HitRate != 1 {
		t.Fatalf("hit rate %g, want 1", s.HitRate)
	}
	wantReads := 10 * 64 * 4.0 // dispatches x size x RowsPerSample
	if math.Abs(s.RowReads-wantReads) > 1e-6 {
		t.Fatalf("row reads %g, want %g", s.RowReads, wantReads)
	}
}

func TestDispatchAllColdMatchesPCIeModel(t *testing.T) {
	// A uniform feature far bigger than the budget: only the head bucket set
	// is resident, and the cold mass must be charged exactly at
	// uvmcache.PCIePenalty.
	cfg := Config{
		BudgetBytes: 256, // one row's worth: buckets [0,1) only
		Policy:      PolicyStatic,
		Models: []ModelProfile{Steady([]FeatureHeat{
			{Rows: 1 << 16, RowBytes: 256, RowsPerSample: 2, Skew: 0},
		})},
		Tenants: 1,
	}
	tier := mustTier(t, cfg)
	pen := tier.Dispatch(0, 0, 0, 128)
	s := tier.Snapshot()
	reads := 128 * 2.0
	residentMass := uvmcache.ZipfBucketMass(0, 1, 1<<16, 0) * reads
	wantCold := reads - residentMass
	if math.Abs(s.Misses-wantCold) > 1e-9 {
		t.Fatalf("cold mass %g, want %g", s.Misses, wantCold)
	}
	wantPen := uvmcache.PCIePenalty(wantCold, wantCold*256)
	if math.Abs(pen-wantPen) > 1e-12 {
		t.Fatalf("penalty %g, want PCIePenalty %g", pen, wantPen)
	}
	if s.Models[0].RowReads != reads || s.Tenants[0].RowReads != reads {
		t.Fatalf("group row reads %g/%g, want %g", s.Models[0].RowReads, s.Tenants[0].RowReads, reads)
	}
}

func TestThrashProtection(t *testing.T) {
	// Two equally hot features, budget for one: the second feature's buckets
	// are touched in the same dispatch that touched every resident bucket, so
	// no victim is evictable and admission must back off rather than thrash.
	shape := FeatureHeat{Rows: 4096, RowBytes: 256, RowsPerSample: 4, Skew: 1.07}
	cfg := Config{
		BudgetBytes: 4096 * 256,
		Policy:      PolicyLRU,
		Models:      []ModelProfile{Steady([]FeatureHeat{shape, shape})},
		Tenants:     1,
	}
	tier := mustTier(t, cfg)
	occ0 := tier.Occupied()
	for i := 0; i < 5; i++ {
		tier.Dispatch(0, 0, float64(i)*0.01, 64)
	}
	s := tier.Snapshot()
	if tier.Occupied() != occ0 {
		t.Fatalf("occupancy moved from %d to %d under a same-dispatch working set", occ0, tier.Occupied())
	}
	if s.Evictions != 0 || s.Fills != 0 {
		t.Fatalf("evictions=%d fills=%d, want 0 (all victims protected)", s.Evictions, s.Fills)
	}
}

// runDrift drives the drift scenario: 10 pre-shift and 20 post-shift
// dispatches, returning the snapshot and the final dispatch's penalty.
func runDrift(tier *Tier) (*Snapshot, float64) {
	now := 0.0
	for i := 0; i < 10; i++ {
		tier.Dispatch(0, 0, now, 64)
		now += 0.1
	}
	var last float64
	for i := 0; i < 20; i++ {
		last = tier.Dispatch(0, 0, now, 64)
		now += 0.1
	}
	return tier.Snapshot(), last
}

func TestEvictionAdaptsToDrift(t *testing.T) {
	staticSnap, staticLast := runDrift(mustTier(t, driftConfig(PolicyStatic, 0)))
	if staticLast == 0 {
		t.Fatal("static tier should keep missing after the shift")
	}
	for _, p := range []Policy{PolicyLRU, PolicyClock} {
		snap, last := runDrift(mustTier(t, driftConfig(p, 0)))
		if last != 0 {
			t.Errorf("%v: final dispatch penalty %g, want 0 (working set refilled)", p, last)
		}
		if snap.Hits <= staticSnap.Hits {
			t.Errorf("%v: hits %g not above static %g", p, snap.Hits, staticSnap.Hits)
		}
		if snap.Fills == 0 || snap.Evictions == 0 {
			t.Errorf("%v: fills=%d evictions=%d, want adaptation", p, snap.Fills, snap.Evictions)
		}
		if snap.OccupiedBytes > snap.BudgetBytes {
			t.Errorf("%v: occupancy %d over budget %d", p, snap.OccupiedBytes, snap.BudgetBytes)
		}
	}
}

func TestRetierRecoversStaticAllocation(t *testing.T) {
	snap, last := runDrift(mustTier(t, driftConfig(PolicyStatic, 0.25)))
	staticSnap, staticLast := runDrift(mustTier(t, driftConfig(PolicyStatic, 0)))
	// The density-greedy re-tier keeps a few decayed-but-dense head buckets of
	// the old feature over the new feature's huge tail bucket, so a small
	// residual miss is correct; the recovery claim is an order-of-magnitude
	// penalty drop, not exact zero.
	if last >= staticLast/5 {
		t.Fatalf("re-tiering static: final dispatch penalty %g, want well under frozen static %g", last, staticLast)
	}
	if snap.Retiers == 0 {
		t.Fatal("no retier happened")
	}
	if snap.Hits <= staticSnap.Hits {
		t.Fatalf("re-tiering hits %g not above frozen static %g", snap.Hits, staticSnap.Hits)
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	for _, p := range []Policy{PolicyStatic, PolicyLRU, PolicyClock} {
		tier := mustTier(t, driftConfig(p, 0.25))
		first, penA := runDrift(tier)
		tier.Reset()
		second, penB := runDrift(tier)
		if math.Float64bits(penA) != math.Float64bits(penB) {
			t.Errorf("%v: penalties diverge across Reset: %x vs %x",
				p, math.Float64bits(penA), math.Float64bits(penB))
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%v: snapshots diverge across Reset:\n  %+v\n  %+v", p, first, second)
		}
	}
}

func TestDispatchZeroAllocs(t *testing.T) {
	// Retier 0.05 re-tiers on every 0.1-spaced dispatch.
	for _, retier := range []float64{0, 0.05} {
		tier := mustTier(t, driftConfig(PolicyLRU, retier))
		now := 0.0
		step := func() {
			tier.Dispatch(0, 0, now, 64)
			now += 0.1
		}
		step() // warm
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Fatalf("retier=%g: Dispatch allocates %.1f allocs/op in steady state, want 0", retier, avg)
		}
		if s := tier.Snapshot(); s.Evictions == 0 || (retier > 0 && s.Retiers < 200) {
			t.Fatalf("retier=%g: %d evictions, %d retiers; eviction or re-tiering not exercised", retier, s.Evictions, s.Retiers)
		}
	}
}

func TestDispatchRejectsBadArgs(t *testing.T) {
	tier := mustTier(t, driftConfig(PolicyLRU, 0))
	for _, c := range [][4]int{{-1, 0, 0, 64}, {1, 0, 0, 64}, {0, -1, 0, 64}, {0, 1, 0, 64}, {0, 0, 0, 0}} {
		if pen := tier.Dispatch(c[0], c[1], 0, c[3]); pen != 0 {
			t.Errorf("Dispatch%v = %g, want 0", c, pen)
		}
	}
	if s := tier.Snapshot(); s.RowReads != 0 {
		t.Fatalf("rejected dispatches accounted %g reads", s.RowReads)
	}
}

func BenchmarkTierDispatch(b *testing.B) {
	tier := mustTier(b, driftConfig(PolicyLRU, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier.Dispatch(0, 0, float64(i)*1e-4, 64)
	}
}
