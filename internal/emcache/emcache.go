// Package emcache is the serving-side embedding-cache tier: one shared
// GPU-memory budget of hot embedding rows that every request dispatched by the
// fleet pool consults and mutates. internal/uvmcache supplies the static cost
// model (frequency-optimal budget allocation, PCIe fault recosting, Zipf
// hit-rate analysis); this package puts it to work under live traffic, where
// misses inflate service times, fills warm the tier, per-feature heat drifts
// with the workload, and the eviction/budget policy becomes a measurable
// serving-latency lever across the models sharing the tier.
//
// # Determinism contract
//
// The tier is a deterministic state machine driven exclusively by dispatch
// events: Dispatch(model, tenant, now, size) is the only mutation, and
// fleet.Live calls it at exactly one place — when a request (or split chunk)
// resolves its service time. Pool.Serve is implemented on fleet.Live, so the
// batch replay and the gateway's live engine execute identical cache
// transitions in identical order, which is what keeps recorded sessions
// replaying bit-identically with the tier enabled. Reset restores the initial
// residency, so a reused Pool starts every session from the same cache state
// (mirroring how Begin resets a stateful admission policy).
//
// # Model
//
// Row residency is tracked at rank-bucket granularity: each feature's
// frequency-ranked row space (datasynth IDs are Zipf rank-ordered — low ID =
// hot) is split into exponentially growing buckets [0,1), [1,2), [2,4), ...,
// and a bucket is either resident or not. Per dispatch, the expected row
// accesses of the batch (size x rows-per-sample) distribute over buckets by
// the closed-form Zipf mass, hits are the resident share, and the cold
// remainder is charged through uvmcache.PCIePenalty. The analytic expectation
// keeps the per-dispatch cost O(features x log rows) and allocation-free —
// the same style of closed-form accounting the rest of the simulator uses.
// Each phase's bucket weights are computed once, by New; a phase change or a
// Reset copies them.
//
// # Eviction cost
//
// A touch is two stores (recency and reference bit) under every policy. LRU
// eviction sorts a dispatch's candidates once, on its first eviction —
// O(B log B) for B buckets — and every further eviction of that dispatch
// takes the next one in O(1), so a dispatch that evicts nothing pays nothing
// and one that evicts k buckets pays one sort instead of k full scans. CLOCK
// advances its hand; re-tiering stable-sorts every bucket by heat per byte
// without allocating.
package emcache

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/uvmcache"
)

// Policy selects the eviction discipline of the tier.
type Policy int

const (
	// PolicyStatic pins the frequency-optimal allocation computed from the
	// initial access profile (uvmcache.AllocateBudget's greedy
	// accesses-per-byte rule at bucket granularity) and never evicts.
	// Combined with Config.RetierEvery it becomes the re-tiering tier: the
	// allocation is recomputed online from windowed heat.
	PolicyStatic Policy = iota
	// PolicyLRU fills touched non-resident buckets on miss, evicting the
	// least-recently-touched resident bucket.
	PolicyLRU
	// PolicyClock approximates LFU with a CLOCK sweep: a reference bit per
	// bucket, set on touch, cleared as the hand passes; the first unreferenced
	// bucket is the victim.
	PolicyClock
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyLRU:
		return "lru"
	case PolicyClock:
		return "clock"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves the CLI spelling of an eviction policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "static", "":
		return PolicyStatic, nil
	case "lru":
		return PolicyLRU, nil
	case "clock", "lfu":
		return PolicyClock, nil
	}
	return 0, fmt.Errorf("emcache: unknown cache policy %q (want static, lru or clock)", s)
}

// FeatureHeat is one feature's table shape and access statistics: how much of
// each dispatched batch's row traffic it carries and how skewed that traffic
// is over the feature's frequency-ranked rows.
type FeatureHeat struct {
	// Rows is the feature's table size (row count).
	Rows int
	// RowBytes is the embedding row size in bytes (4 x dim for fp32).
	RowBytes int64
	// RowsPerSample is the mean embedding rows one batch sample reads from
	// this feature (coverage x mean pooling factor).
	RowsPerSample float64
	// Skew is the Zipf exponent of the row-rank access distribution
	// (0 = uniform).
	Skew float64
}

// ProfilePhase is one step of a model's time-varying access profile.
type ProfilePhase struct {
	// Start is the simulated time the phase takes effect; phase 0 is active
	// from the beginning regardless of its Start.
	Start float64
	// Features holds one FeatureHeat per feature. Rows and RowBytes must not
	// change across phases (tables don't resize mid-trace); RowsPerSample and
	// Skew may — that is exactly the heat drift the tier re-tiers under.
	Features []FeatureHeat
}

// ModelProfile is one model's access profile: a step function of phases over
// simulated time.
type ModelProfile struct {
	Phases []ProfilePhase
}

// Steady wraps a single never-drifting phase, the common case.
func Steady(features []FeatureHeat) ModelProfile {
	return ModelProfile{Phases: []ProfilePhase{{Features: features}}}
}

// Config shapes the tier.
type Config struct {
	// BudgetBytes is the shared GPU-memory budget for hot rows. Must be
	// positive.
	BudgetBytes int64
	// Policy selects the eviction discipline.
	Policy Policy
	// RetierEvery re-runs the budget allocator from windowed heat at most
	// every this many simulated seconds (paced at dispatch events, like the
	// pool's rebalance hook); 0 disables online re-tiering.
	RetierEvery float64
	// HeatDecay is the fraction of accumulated heat carried across retier
	// windows (EWMA); 0 defaults to 0.5.
	HeatDecay float64
	// FillThreshold is the expected per-batch touch mass below which a bucket
	// neither warms in nor refreshes its recency — it keeps the long Zipf
	// tail's infinitesimal expected touches from pinning every bucket.
	// 0 defaults to 1 (at least one expected row access).
	FillThreshold float64
	// Models holds one access profile per pool model, in pool model order.
	Models []ModelProfile
	// Tenants is the pool's tenant count (for per-tenant accounting).
	Tenants int
}

// bucket is one rank range of one feature.
type bucket struct {
	feature  int     // index into Tier.feats
	bytes    int64   // rows in the range x RowBytes
	invRows  float64 // 1 / rows in the range (fills count distinct rows)
	weight   float64 // current-phase access probability of the range
	resident bool
	initRes  bool // residency of the initial static allocation
	ref      bool // CLOCK reference bit
	last     float64
	window   float64 // access mass since the last retier
	heat     float64 // EWMA access mass across retier windows
	lo, hi   int     // rank range [lo, hi)
}

// featState is one (model, feature) pair.
type featState struct {
	model  int
	heat   FeatureHeat // current phase's entry
	b0, bn int         // bucket index range in Tier.buckets
}

// modelState tracks a model's profile position.
type modelState struct {
	profile ModelProfile
	phase   int
	f0, fn  int // feature index range in Tier.feats
	// weights holds each phase's Zipf access weights of the model's buckets
	// (indexed from the model's first bucket), computed once by New.
	weights [][]float64
}

// GroupStats is the per-model or per-tenant cache accounting of one session.
// Access counts are expected row reads (floats — the accounting is analytic).
type GroupStats struct {
	// Name labels the group; fleet fills it from its model/tenant lists.
	Name string
	// RowReads, Hits and Misses count expected embedding-row accesses.
	RowReads, Hits, Misses float64
	// ColdBytes is the bytes faulted over PCIe for the group's misses.
	ColdBytes float64
	// Penalty is the total service-time inflation charged, in seconds.
	Penalty float64
	// Fills and Evictions count residency changes the group's dispatches
	// caused (evictions may victimize another group's buckets — that
	// cross-model contention is the point of a shared tier).
	Fills, Evictions int
	// OccupiedBytes is the group's resident bytes at snapshot time
	// (models only; a tenant owns no rows).
	OccupiedBytes int64
	// HitRate is Hits / RowReads (0 when nothing was read).
	HitRate float64
}

// Snapshot is the tier's observability view, taken at session close.
type Snapshot struct {
	Policy                     string
	BudgetBytes, OccupiedBytes int64
	RowReads, Hits, Misses     float64
	ColdBytes, Penalty         float64
	Fills, Evictions, Retiers  int
	HitRate                    float64
	Models, Tenants            []GroupStats
}

// String summarizes the tier-wide counters in one line.
func (s *Snapshot) String() string {
	return fmt.Sprintf("policy=%s hit-rate=%.1f%% occupancy=%s/%s cold=%s penalty=%.3fms fills=%d evictions=%d retiers=%d",
		s.Policy, 100*s.HitRate, fmtBytes(s.OccupiedBytes), fmtBytes(s.BudgetBytes),
		fmtBytes(int64(s.ColdBytes)), s.Penalty*1e3, s.Fills, s.Evictions, s.Retiers)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// Tier is the shared embedding-cache state machine. Not safe for concurrent
// use: the fleet engine that owns it serializes all Dispatch calls (live
// admission is already serialized for determinism).
type Tier struct {
	cfg     Config
	models  []modelState
	feats   []featState
	buckets []bucket

	occupied int64
	initOcc  int64
	hand     int
	started  bool
	lastRet  float64

	rowReads, hits, misses float64
	coldBytes, penalty     float64
	fills, evicts, retiers int
	perModel               []GroupStats
	perTenant              []GroupStats

	scratch []int // fill candidates of the current dispatch
	order   []int // retier sort scratch

	// lru is the current dispatch's LRU eviction order, built by its first
	// eviction; lruNext indexes the next victim. Dispatch sets lruNext to
	// -1 (not built) on entry.
	lru     []int
	lruNext int
}

// New validates the configuration, computes the initial frequency-optimal
// static allocation and returns a ready tier.
func New(cfg Config) (*Tier, error) {
	if cfg.BudgetBytes <= 0 {
		return nil, fmt.Errorf("emcache: budget must be positive, got %d", cfg.BudgetBytes)
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("emcache: need at least one model profile")
	}
	if cfg.Tenants <= 0 {
		return nil, fmt.Errorf("emcache: need at least one tenant")
	}
	if cfg.Policy < PolicyStatic || cfg.Policy > PolicyClock {
		return nil, fmt.Errorf("emcache: unknown policy %d", int(cfg.Policy))
	}
	if cfg.RetierEvery < 0 {
		return nil, fmt.Errorf("emcache: RetierEvery must be >= 0, got %g", cfg.RetierEvery)
	}
	if cfg.HeatDecay < 0 || cfg.HeatDecay >= 1 {
		return nil, fmt.Errorf("emcache: HeatDecay %g outside [0,1)", cfg.HeatDecay)
	}
	if cfg.HeatDecay == 0 {
		cfg.HeatDecay = 0.5
	}
	if cfg.FillThreshold < 0 {
		return nil, fmt.Errorf("emcache: FillThreshold must be >= 0, got %g", cfg.FillThreshold)
	}
	if cfg.FillThreshold == 0 {
		cfg.FillThreshold = 1
	}

	t := &Tier{cfg: cfg}
	for m, mp := range cfg.Models {
		if len(mp.Phases) == 0 {
			return nil, fmt.Errorf("emcache: model %d has no profile phases", m)
		}
		base := mp.Phases[0].Features
		if len(base) == 0 {
			return nil, fmt.Errorf("emcache: model %d has no features", m)
		}
		for pi, ph := range mp.Phases {
			if pi > 0 && ph.Start < mp.Phases[pi-1].Start {
				return nil, fmt.Errorf("emcache: model %d phases not sorted (phase %d at t=%g after t=%g)",
					m, pi, ph.Start, mp.Phases[pi-1].Start)
			}
			if len(ph.Features) != len(base) {
				return nil, fmt.Errorf("emcache: model %d phase %d has %d features, phase 0 has %d",
					m, pi, len(ph.Features), len(base))
			}
			for f, fh := range ph.Features {
				if fh.Rows <= 0 || fh.RowBytes <= 0 {
					return nil, fmt.Errorf("emcache: model %d feature %d: need positive Rows and RowBytes", m, f)
				}
				if fh.RowsPerSample < 0 || fh.Skew < 0 {
					return nil, fmt.Errorf("emcache: model %d feature %d: negative RowsPerSample or Skew", m, f)
				}
				if fh.Rows != base[f].Rows || fh.RowBytes != base[f].RowBytes {
					return nil, fmt.Errorf("emcache: model %d feature %d resizes across phases (tables are fixed; only RowsPerSample/Skew may drift)", m, f)
				}
			}
		}
		ms := modelState{profile: mp, f0: len(t.feats)}
		for _, fh := range base {
			fs := featState{model: m, heat: fh, b0: len(t.buckets)}
			for lo, hi := 0, 1; lo < fh.Rows; lo, hi = hi, hi*2 {
				if hi > fh.Rows {
					hi = fh.Rows
				}
				rows := hi - lo
				t.buckets = append(t.buckets, bucket{
					feature: len(t.feats),
					bytes:   int64(rows) * fh.RowBytes,
					invRows: 1 / float64(rows),
					lo:      lo, hi: hi,
				})
			}
			fs.bn = len(t.buckets)
			t.feats = append(t.feats, fs)
		}
		ms.fn = len(t.feats)
		b0 := t.feats[ms.f0].b0
		for _, ph := range mp.Phases {
			w := make([]float64, len(t.buckets)-b0)
			for bi := range w {
				b := &t.buckets[b0+bi]
				fh := ph.Features[b.feature-ms.f0]
				w[bi] = uvmcache.ZipfBucketMass(b.lo, b.hi, fh.Rows, fh.Skew)
			}
			ms.weights = append(ms.weights, w)
		}
		t.models = append(t.models, ms)
	}

	t.perModel = make([]GroupStats, len(cfg.Models))
	t.perTenant = make([]GroupStats, cfg.Tenants)
	t.scratch = make([]int, 0, len(t.buckets))
	t.order = make([]int, len(t.buckets))
	t.lru = make([]int, 0, len(t.buckets))

	for m := range t.models {
		t.applyPhase(m)
	}
	t.allocateInitial()
	t.Reset()
	return t, nil
}

// Models returns the number of model profiles the tier was built for.
func (t *Tier) Models() int { return len(t.models) }

// Tenants returns the tenant count the tier accounts for.
func (t *Tier) Tenants() int { return t.cfg.Tenants }

// Policy returns the tier's eviction policy.
func (t *Tier) Policy() Policy { return t.cfg.Policy }

// Budget returns the shared budget in bytes.
func (t *Tier) Budget() int64 { return t.cfg.BudgetBytes }

// Occupied returns the resident bytes right now.
func (t *Tier) Occupied() int64 { return t.occupied }

// applyPhase installs model m's current-phase heat and bucket weights.
func (t *Tier) applyPhase(m int) {
	ms := &t.models[m]
	ph := ms.profile.Phases[ms.phase]
	b0 := t.feats[ms.f0].b0
	for fi := ms.f0; fi < ms.fn; fi++ {
		t.feats[fi].heat = ph.Features[fi-ms.f0]
	}
	for bi, w := range ms.weights[ms.phase] {
		t.buckets[b0+bi].weight = w
	}
}

// descending is the comparator of a stable sort by decreasing key. Only
// its sign against zero is read, and that matches the predicate x > y
// exactly, NaN keys included.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return 0
}

// allocateInitial computes the static frequency-optimal residency: greedy by
// expected accesses per byte over all buckets (the bucket-granular form of
// uvmcache.AllocateBudget's density rule), assuming phase-0 heat and equal
// per-model traffic. The result is recorded as the Reset state.
func (t *Tier) allocateInitial() {
	for i := range t.order {
		t.order[i] = i
	}
	density := func(bi int) float64 {
		b := &t.buckets[bi]
		return t.feats[b.feature].heat.RowsPerSample * b.weight / float64(b.bytes)
	}
	slices.SortStableFunc(t.order, func(a, b int) int {
		return descending(density(a), density(b))
	})
	var occ int64
	for _, bi := range t.order {
		b := &t.buckets[bi]
		if density(bi) <= 0 || occ+b.bytes > t.cfg.BudgetBytes {
			continue
		}
		b.initRes = true
		occ += b.bytes
	}
	t.initOcc = occ
}

// Reset restores the tier to its initial state: the static allocation
// resident, all heat and counters cleared. fleet.Pool.Begin calls this so
// every session of a reused pool evolves the cache identically — the replay
// invariant depends on it.
func (t *Tier) Reset() {
	for i := range t.buckets {
		b := &t.buckets[i]
		b.resident = b.initRes
		b.ref = false
		b.last = math.Inf(-1)
		b.window = 0
		b.heat = 0
	}
	for m := range t.models {
		t.models[m].phase = 0
		t.applyPhase(m)
	}
	t.occupied = t.initOcc
	t.hand = 0
	t.started = false
	t.lastRet = 0
	t.rowReads, t.hits, t.misses = 0, 0, 0
	t.coldBytes, t.penalty = 0, 0
	t.fills, t.evicts, t.retiers = 0, 0, 0
	for i := range t.perModel {
		t.perModel[i] = GroupStats{}
	}
	for i := range t.perTenant {
		t.perTenant[i] = GroupStats{}
	}
}

// Dispatch is the tier's single mutation point: account one dispatched batch
// of the given model and tenant at simulated time now, warm the tier per the
// eviction policy, possibly re-tier the budget, and return the service-time
// penalty (seconds) of the cold traffic. The fleet engine adds the penalty to
// the request's resolved service time before any deadline decision, so misses
// propagate into queueing exactly like slow kernels do.
//
// Calls must be made with non-decreasing now; fleet dispatch events satisfy
// this by construction.
func (t *Tier) Dispatch(model, tenant int, now float64, size int) float64 {
	if model < 0 || model >= len(t.models) || tenant < 0 || tenant >= len(t.perTenant) || size <= 0 {
		return 0
	}
	t.lruNext = -1
	if !t.started {
		t.started = true
		t.lastRet = now
	}
	t.advancePhase(model, now)
	if t.cfg.RetierEvery > 0 && now >= t.lastRet+t.cfg.RetierEvery {
		t.retier(now)
	}

	ms := &t.models[model]
	var reads, cold, coldBytes float64
	t.scratch = t.scratch[:0]
	for fi := ms.f0; fi < ms.fn; fi++ {
		fs := &t.feats[fi]
		acc := float64(size) * fs.heat.RowsPerSample
		if acc <= 0 {
			continue
		}
		rowBytes := float64(fs.heat.RowBytes)
		for bi := fs.b0; bi < fs.bn; bi++ {
			b := &t.buckets[bi]
			mass := acc * b.weight
			if mass <= 0 {
				continue
			}
			reads += mass
			b.window += mass
			touched := mass >= t.cfg.FillThreshold
			if touched {
				b.last = now
				b.ref = true
			}
			if b.resident {
				continue
			}
			cold += mass
			coldBytes += mass * rowBytes
			if touched && t.cfg.Policy != PolicyStatic {
				t.scratch = append(t.scratch, bi)
			}
		}
	}
	// Fills warm the tier after the cold batch paid for them: the faulted
	// rows are on the GPU now, so subsequent batches hit.
	for _, bi := range t.scratch {
		t.admit(bi, now, model)
	}

	pen := uvmcache.PCIePenalty(cold, coldBytes)
	hits := reads - cold
	t.rowReads += reads
	t.hits += hits
	t.misses += cold
	t.coldBytes += coldBytes
	t.penalty += pen
	pm, pt := &t.perModel[model], &t.perTenant[tenant]
	pm.RowReads += reads
	pm.Hits += hits
	pm.Misses += cold
	pm.ColdBytes += coldBytes
	pm.Penalty += pen
	pt.RowReads += reads
	pt.Hits += hits
	pt.Misses += cold
	pt.ColdBytes += coldBytes
	pt.Penalty += pen
	return pen
}

// advancePhase steps a model's profile to the phase active at now.
func (t *Tier) advancePhase(model int, now float64) {
	ms := &t.models[model]
	moved := false
	for ms.phase+1 < len(ms.profile.Phases) && ms.profile.Phases[ms.phase+1].Start <= now {
		ms.phase++
		moved = true
	}
	if moved {
		t.applyPhase(model)
	}
}

// admit makes a touched non-resident bucket resident, evicting victims per
// the policy until it fits. Buckets touched by the current dispatch (last ==
// now) are protected; if no victim remains the admission is skipped — the
// working set outgrew the budget, and thrashing within one batch helps
// nobody.
func (t *Tier) admit(bi int, now float64, model int) {
	b := &t.buckets[bi]
	if b.resident || b.bytes > t.cfg.BudgetBytes {
		return
	}
	for t.occupied+b.bytes > t.cfg.BudgetBytes {
		v := t.victim(now)
		if v < 0 {
			return
		}
		t.buckets[v].resident = false
		t.occupied -= t.buckets[v].bytes
		t.evicts++
		t.perModel[model].Evictions++
	}
	b.resident = true
	t.occupied += b.bytes
	t.fills++
	t.perModel[model].Fills++
}

// victim picks the next bucket to evict, or -1 when every resident bucket is
// protected by the current dispatch.
func (t *Tier) victim(now float64) int {
	switch t.cfg.Policy {
	case PolicyLRU:
		if t.lruNext < 0 {
			t.buildLRU(now)
		}
		if t.lruNext == len(t.lru) {
			return -1
		}
		v := t.lru[t.lruNext]
		t.lruNext++
		return v
	case PolicyClock:
		n := len(t.buckets)
		for pass := 0; pass < 2*n; pass++ {
			i := t.hand
			t.hand = (t.hand + 1) % n
			b := &t.buckets[i]
			if !b.resident || b.last >= now {
				continue
			}
			if b.ref {
				b.ref = false
				continue
			}
			return i
		}
		return -1
	}
	return -1
}

// buildLRU orders the dispatch's eviction candidates — resident buckets not
// touched at now — least recently touched first, ties to the lower bucket
// index. Popping this order reproduces a fresh minimum scan per eviction
// because nothing else changes the candidate set while the dispatch is
// evicting: phase advance and re-tiering have already run, every fill is a
// bucket the dispatch touched (last == now, protected), and each eviction
// removes exactly the candidate it popped.
func (t *Tier) buildLRU(now float64) {
	t.lru = t.lru[:0]
	for i := range t.buckets {
		if b := &t.buckets[i]; b.resident && b.last < now {
			t.lru = append(t.lru, i)
		}
	}
	slices.SortFunc(t.lru, func(a, b int) int {
		if c := cmp.Compare(t.buckets[a].last, t.buckets[b].last); c != 0 {
			return c
		}
		return a - b
	})
	t.lruNext = 0
}

// retier re-runs the budget allocator from observed heat: the accumulated
// window mass folds into the EWMA heat, and residency is reassigned greedily
// by heat per byte — the online, measurement-driven analogue of the initial
// static allocation (and of the supervisor's schedule re-tune: same drift,
// different resource). Runs for every policy; with PolicyStatic it is the
// only residency change the tier ever makes.
func (t *Tier) retier(now float64) {
	t.lastRet = now
	t.retiers++
	for i := range t.buckets {
		b := &t.buckets[i]
		b.heat = t.cfg.HeatDecay*b.heat + b.window
		b.window = 0
	}
	for i := range t.order {
		t.order[i] = i
	}
	slices.SortStableFunc(t.order, func(a, b int) int {
		x, y := &t.buckets[a], &t.buckets[b]
		return descending(x.heat/float64(x.bytes), y.heat/float64(y.bytes))
	})
	var occ int64
	for _, bi := range t.order {
		b := &t.buckets[bi]
		want := b.heat > 0 && occ+b.bytes <= t.cfg.BudgetBytes
		if want {
			occ += b.bytes
		}
		if want != b.resident {
			if b.resident {
				t.evicts++
			} else {
				t.fills++
			}
			b.resident = want
		}
	}
	t.occupied = occ
}

// Snapshot returns the tier's accounting view. Group names are left empty;
// the pool fills them from its model/tenant lists.
func (t *Tier) Snapshot() *Snapshot {
	s := &Snapshot{
		Policy:        t.cfg.Policy.String(),
		BudgetBytes:   t.cfg.BudgetBytes,
		OccupiedBytes: t.occupied,
		RowReads:      t.rowReads,
		Hits:          t.hits,
		Misses:        t.misses,
		ColdBytes:     t.coldBytes,
		Penalty:       t.penalty,
		Fills:         t.fills,
		Evictions:     t.evicts,
		Retiers:       t.retiers,
		Models:        append([]GroupStats(nil), t.perModel...),
		Tenants:       append([]GroupStats(nil), t.perTenant...),
	}
	if s.RowReads > 0 {
		s.HitRate = s.Hits / s.RowReads
	}
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.resident {
			s.Models[t.feats[b.feature].model].OccupiedBytes += b.bytes
		}
	}
	for i := range s.Models {
		if s.Models[i].RowReads > 0 {
			s.Models[i].HitRate = s.Models[i].Hits / s.Models[i].RowReads
		}
	}
	for i := range s.Tenants {
		if s.Tenants[i].RowReads > 0 {
			s.Tenants[i].HitRate = s.Tenants[i].Hits / s.Tenants[i].RowReads
		}
	}
	return s
}
