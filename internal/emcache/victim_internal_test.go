package emcache

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// refVictim is the original LRU victim scan, kept as the reference the
// per-dispatch eviction order must agree with: every resident bucket not
// touched by the current dispatch, least recently touched first, ties to the
// lowest bucket index — one full O(buckets) pass per eviction.
func refVictim(t *Tier, now float64) int {
	best, bestLast := -1, math.Inf(1)
	for i := range t.buckets {
		b := &t.buckets[i]
		if !b.resident || b.last >= now {
			continue
		}
		if b.last < bestLast {
			best, bestLast = i, b.last
		}
	}
	return best
}

// pinTable is the replay-elastic benchmark's cached table shape: 15 rank
// buckets of 256-byte rows.
var pinTable = FeatureHeat{Rows: 16384, RowBytes: 256, RowsPerSample: 0.25, Skew: 1.07}

// pinConfig is a two-model tier at half the total table bytes, so most
// dispatches that miss evict several buckets. Model 0 drifts twice: its
// heat moves from the big table to a smaller, flatter one and back with a
// different skew; model 1 is steady.
func pinConfig(policy Policy, retier float64) Config {
	small := FeatureHeat{Rows: 4096, RowBytes: 128, RowsPerSample: 0.5, Skew: 0.8}
	drifted, back := pinTable, pinTable
	drifted.RowsPerSample = 0.05
	back.Skew = 1.3
	flat := small
	flat.RowsPerSample, flat.Skew = 2, 0.4
	return Config{
		BudgetBytes: (3*16384*256 + 4096*128) / 2,
		Policy:      policy,
		RetierEvery: retier,
		Models: []ModelProfile{
			{Phases: []ProfilePhase{
				{Features: []FeatureHeat{pinTable, small}},
				{Start: 0.8, Features: []FeatureHeat{drifted, flat}},
				{Start: 1.6, Features: []FeatureHeat{back, small}},
			}},
			Steady([]FeatureHeat{pinTable, pinTable}),
		},
		Tenants: 2,
	}
}

// pinOps is a seeded dispatch sequence over both models and tenants: batch
// sizes 16 to 2048, exponential gaps with a quarter of dispatches sharing
// the previous one's time (the fleet dispatches several workers at one
// event time), crossing both of model 0's phase boundaries.
func pinOps(seed int64, n int) []fuzzOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]fuzzOp, n)
	now := 0.0
	for i := range ops {
		if rng.Float64() >= 0.25 {
			now += rng.ExpFloat64() * 2.4 / float64(n)
		}
		ops[i] = fuzzOp{model: rng.Intn(2), tenant: rng.Intn(2), size: 16 << rng.Intn(8), now: now}
	}
	return ops
}

// drainMatchesRef drains the LRU eviction order on a copy of tier at now,
// evicting each victim in turn, and checks every pick against a fresh
// refVictim scan of the same state. It returns the number of victims.
func drainMatchesRef(t *testing.T, tier *Tier, now float64) int {
	t.Helper()
	cp := *tier
	cp.buckets = slices.Clone(tier.buckets)
	cp.lru = make([]int, 0, len(tier.buckets))
	cp.lruNext = -1
	for n := 0; ; n++ {
		want := refVictim(&cp, now)
		if got := cp.victim(now); got != want {
			t.Fatalf("now=%x: victim %d is %d, reference scan picks %d", now, n, got, want)
		}
		if want < 0 {
			return n
		}
		cp.buckets[want].resident = false
	}
}

// Every LRU eviction order, drained, must equal repeated reference scans:
// checked before and after each dispatch of seeded sequences in which two
// models share the tier, dispatches pair up at one time, model 0's heat
// drifts across two phase boundaries, with and without re-tiering.
func TestLRUOrderMatchesReferenceScan(t *testing.T) {
	for _, retier := range []float64{0, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			tier := mustTier(t, pinConfig(PolicyLRU, retier))
			drained := 0
			for _, op := range pinOps(seed, 1500) {
				drained += drainMatchesRef(t, tier, op.now)
				tier.Dispatch(op.model, op.tenant, op.now, op.size)
				drained += drainMatchesRef(t, tier, op.now)
			}
			if tier.models[0].phase != 2 || drained < 10000 {
				t.Fatalf("retier=%g seed %d: phase %d, %d victims drained; the sequence lost its teeth",
					retier, seed, tier.models[0].phase, drained)
			}
		}
	}
}

// pinDigest replays ops on a fresh tier and hashes, as exact hex floats,
// every dispatch's penalty and then the final snapshot.
func pinDigest(t *testing.T, cfg Config, ops []fuzzOp) (string, *Tier) {
	t.Helper()
	tier := mustTier(t, cfg)
	h := fnv.New64a()
	hex := func(v float64) { io.WriteString(h, strconv.FormatFloat(v, 'x', -1, 64)+" ") }
	num := func(v int64) { io.WriteString(h, strconv.FormatInt(v, 10)+" ") }
	for _, op := range ops {
		hex(tier.Dispatch(op.model, op.tenant, op.now, op.size))
	}
	s := tier.Snapshot()
	io.WriteString(h, s.Policy+" ")
	num(s.BudgetBytes)
	num(s.OccupiedBytes)
	num(int64(s.Fills))
	num(int64(s.Evictions))
	num(int64(s.Retiers))
	for _, g := range append(append([]GroupStats{{
		RowReads: s.RowReads, Hits: s.Hits, Misses: s.Misses,
		ColdBytes: s.ColdBytes, Penalty: s.Penalty, HitRate: s.HitRate,
	}}, s.Models...), s.Tenants...) {
		for _, v := range []float64{g.RowReads, g.Hits, g.Misses, g.ColdBytes, g.Penalty, g.HitRate} {
			hex(v)
		}
		num(int64(g.Fills))
		num(int64(g.Evictions))
		num(g.OccupiedBytes)
	}
	return strconv.FormatUint(h.Sum64(), 16), tier
}

// pinGolden holds the digests of the pinned sequences, captured with the
// original per-eviction LRU scan, per-call Zipf weights and sort.SliceStable
// re-tiering: the tier must reproduce every penalty and counter bit for bit.
var pinGolden = map[string]string{
	"static/retier=0":    "44eb1c0f8acd6e9",
	"static/retier=0.05": "eb9ba005b40ba515",
	"lru/retier=0":       "c9233798f638b386",
	"lru/retier=0.05":    "ff572cf5e044705f",
	"clock/retier=0":     "7adf851f317e0320",
	"clock/retier=0.05":  "4734cea484bce4e8",
}

func TestTierDigestGolden(t *testing.T) {
	ops := pinOps(1, 3000)
	for _, p := range []Policy{PolicyStatic, PolicyLRU, PolicyClock} {
		for _, retier := range []float64{0, 0.05} {
			name := fmt.Sprintf("%v/retier=%g", p, retier)
			got, tier := pinDigest(t, pinConfig(p, retier), ops)
			if tier.models[0].phase != 2 ||
				(p != PolicyStatic && tier.evicts < 10000) || (retier > 0 && tier.retiers < 20) {
				t.Fatalf("%s: phase %d, %d evictions, %d retiers; the sequence lost its teeth",
					name, tier.models[0].phase, tier.evicts, tier.retiers)
			}
			if want := pinGolden[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}
