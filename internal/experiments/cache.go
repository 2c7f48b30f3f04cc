package experiments

import (
	"fmt"
	"io"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/emcache"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/report"
	"repro/internal/trace"
)

// CacheHeat derives one emcache.FeatureHeat per feature of a synthesized
// model config — the static access profile the serving-side cache tier is
// provisioned from. Rows-per-sample is the feature's coverage times its mean
// pooling factor, and the skew is the synthesizer's Zipf exponent for
// Zipf-ranked ID spaces (uniform features get skew 0), so the analytic
// bucket accounting in emcache matches the batches datasynth would emit.
func CacheHeat(cfg *datasynth.ModelConfig) []emcache.FeatureHeat {
	out := make([]emcache.FeatureHeat, len(cfg.Features))
	for i := range cfg.Features {
		f := &cfg.Features[i]
		skew := 0.0
		if f.IDs == datasynth.IDZipf {
			skew = datasynth.ZipfSkew
		}
		out[i] = emcache.FeatureHeat{
			Rows:          f.Rows,
			RowBytes:      int64(f.Dim) * 4,
			RowsPerSample: f.Coverage * f.PF.Mean(),
			Skew:          skew,
		}
	}
	return out
}

// CachePolicyAct is one tier configuration's outcome in the cache study: the
// same two-model trace served over the same pool, with only the tier's
// eviction/re-tiering discipline varied.
type CachePolicyAct struct {
	// Name labels the variant: "static", "static+retier", "lru" or "clock".
	Name string
	// HitRate is the tier-wide expected-row hit rate over the whole trace.
	HitRate float64
	// Penalty is the total service-time inflation the tier charged (s).
	Penalty float64
	// PreShiftP99 is the interactive tenant's served sojourn p99 before the
	// skew shift. PostShiftP99 is its steady-state p99 after the shift: the
	// window starts one settle margin past the shift (so an adaptive tier
	// has had one warm-up dispatch and one re-tier period) and ends at the
	// flash — a frozen static allocation pays the cold-group penalty on
	// every dispatch in this window, an adaptive one only during warm-up.
	PreShiftP99, PostShiftP99 float64
	// BatchPenalty is the batch tenant's share of the inflation — the flash
	// of cold traffic lands here.
	BatchPenalty float64
	// Fills, Evictions and Retiers count the tier's residency churn.
	Fills, Evictions, Retiers int
}

// CacheStudyResult is the embedding-cache-tier study: two models share one
// GPU-memory tier under the fleet while the interactive model's row heat
// migrates to a previously-cold feature group and the batch tenant fires a
// flash of cold traffic. A static frequency-optimal allocation is provably
// best for the heat it was provisioned from and provably wrong after the
// shift; the study measures what online eviction (LRU/CLOCK) and windowed
// budget re-tiering buy back on the interactive tail.
type CacheStudyResult struct {
	// InteractiveService is the probed per-request service time of the
	// interactive size with a fully warm tier.
	InteractiveService float64
	// BudgetBytes is the shared tier budget (sized to hold exactly one of
	// the interactive model's two feature groups).
	BudgetBytes int64
	// ShiftAt is when the interactive model's hot group swaps; SettleDur is
	// the warm-up margin excluded from the post-shift window; FlashAt and
	// FlashDur bound the batch tenant's cold burst window.
	ShiftAt, SettleDur, FlashAt, FlashDur float64
	// Variants holds one act per tier discipline, static first.
	Variants []CachePolicyAct
	// BestEviction names the non-static variant with the lowest post-shift
	// interactive p99; EvictionGain is static's post-shift p99 over its.
	BestEviction string
	EvictionGain float64
	// EvictionWins reports EvictionGain >= 1.1 — some adaptive discipline
	// beat the static allocation measurably on the interactive tail.
	EvictionWins bool
	// RetierRecovers reports that the re-tiering variant both re-tiered and
	// ended with a higher tier-wide hit rate than frozen static.
	RetierRecovers bool
}

// CacheStudy runs the cache-tier study on the shared suite.
func (s *Suite) CacheStudy() (*CacheStudyResult, error) {
	return memo(s, "cache", s.cacheStudy)
}

// cacheStudy builds the drift-and-flash scenario. All times are multiples of
// the probed interactive service time so the regime is scale-independent:
// interactive requests arrive every 4 service times (25% utilization of the
// two workers), the skew shift lands a third of the way in, and the flash
// burst opens two thirds of the way in. The tier profiles are synthetic and
// exact — two 4096-row Zipf groups for the interactive model with the
// per-sample row mass swapping between them at the shift, and one 16384-row
// uniform table for the batch model whose mass spikes 16x inside the flash
// window — so every variant sees identical heat and identical requests, and
// only the residency discipline differs.
func (s *Suite) cacheStudy() (*CacheStudyResult, error) {
	dev := gpusim.V100()
	cfg := s.ScaledModel(datasynth.ModelA())
	rf, err := s.TunedRecFlex(dev, cfg)
	if err != nil {
		return nil, err
	}
	src := func(_ float64, size int) (*embedding.Batch, error) {
		return datasynth.BatchForSize(cfg, size)
	}
	svc := rf.TimedService(src, 64, nil)
	const iaSize, flashSize = 256, 64
	iaSvc, err := svc(0, iaSize)
	if err != nil {
		return nil, err
	}

	res := &CacheStudyResult{InteractiveService: iaSvc}
	const nInteractive = 160
	res.ShiftAt = 216 * iaSvc
	res.SettleDur = 24 * iaSvc
	res.FlashAt = 428 * iaSvc
	res.FlashDur = 60 * iaSvc

	var reqs []fleet.Request
	for i := 0; i < nInteractive; i++ {
		reqs = append(reqs, fleet.Request{Arrival: float64(i) * 4 * iaSvc, Size: iaSize, Model: 0, Tenant: 0})
	}
	for i := 0; i < 20; i++ {
		reqs = append(reqs, fleet.Request{Arrival: float64(i) * 32 * iaSvc, Size: flashSize, Model: 1, Tenant: 1})
	}
	for i := 0; i < 30; i++ {
		reqs = append(reqs, fleet.Request{Arrival: res.FlashAt + float64(i)*2*iaSvc, Size: flashSize, Model: 1, Tenant: 1})
	}
	reqs = fleet.Merge(fleetToStreams(reqs)...)

	// Interactive model: hot group A carries 4 rows/sample until the shift,
	// then group B does; budget holds exactly one group.
	const groupRows, rowBytes = 4096, 256
	res.BudgetBytes = groupRows * rowBytes
	group := func(aRPS, bRPS float64) []emcache.FeatureHeat {
		return []emcache.FeatureHeat{
			{Rows: groupRows, RowBytes: rowBytes, RowsPerSample: aRPS, Skew: datasynth.ZipfSkew},
			{Rows: groupRows, RowBytes: rowBytes, RowsPerSample: bRPS, Skew: datasynth.ZipfSkew},
		}
	}
	interactiveProfile := emcache.ModelProfile{Phases: []emcache.ProfilePhase{
		{Features: group(4, 0)},
		{Start: res.ShiftAt, Features: group(0, 4)},
	}}
	batch := func(rps float64) []emcache.FeatureHeat {
		return []emcache.FeatureHeat{{Rows: 16384, RowBytes: rowBytes, RowsPerSample: rps}}
	}
	batchProfile := emcache.ModelProfile{Phases: []emcache.ProfilePhase{
		{Features: batch(0.5)},
		{Start: res.FlashAt, Features: batch(8)},
		{Start: res.FlashAt + res.FlashDur, Features: batch(0.5)},
	}}

	tenants := []fleet.TenantSpec{
		{Name: "interactive", Priority: 1},
		{Name: "batch", Priority: 0},
	}
	models := []fleet.Model{
		{Name: "rank", Service: svc},
		{Name: "score", Service: svc},
	}

	variants := []struct {
		name   string
		policy emcache.Policy
		retier float64
	}{
		{"static", emcache.PolicyStatic, 0},
		{"static+retier", emcache.PolicyStatic, 16 * iaSvc},
		{"lru", emcache.PolicyLRU, 0},
		{"clock", emcache.PolicyClock, 0},
	}
	for _, v := range variants {
		tier, err := emcache.New(emcache.Config{
			BudgetBytes: res.BudgetBytes,
			Policy:      v.policy,
			RetierEvery: v.retier,
			Models:      []emcache.ModelProfile{interactiveProfile, batchProfile},
			Tenants:     len(tenants),
		})
		if err != nil {
			return nil, err
		}
		pool, err := fleet.NewPool(fleet.Config{
			Queue: trace.QueuePolicy{Workers: 2, QueueDepth: 32},
			Cache: tier,
		}, models, tenants)
		if err != nil {
			return nil, err
		}
		rep, err := pool.Serve(reqs)
		if err != nil {
			return nil, err
		}
		snap := rep.Metrics.Cache
		if snap == nil {
			return nil, fmt.Errorf("experiments: cache study pool reported no tier snapshot")
		}
		var pre, post []float64
		for i, r := range reqs {
			if r.Model != 0 || rep.Outcomes[i] != fleet.OutcomeServed {
				continue
			}
			switch {
			case r.Arrival < res.ShiftAt:
				pre = append(pre, rep.Sojourn[i])
			case r.Arrival >= res.ShiftAt+res.SettleDur && r.Arrival < res.FlashAt:
				post = append(post, rep.Sojourn[i])
			}
		}
		act := CachePolicyAct{
			Name:         v.name,
			HitRate:      snap.HitRate,
			Penalty:      snap.Penalty,
			BatchPenalty: snap.Tenants[1].Penalty,
			Fills:        snap.Fills,
			Evictions:    snap.Evictions,
			Retiers:      snap.Retiers,
		}
		var q trace.Quantiler
		_, _, act.PreShiftP99 = q.P50P95P99(pre)
		_, _, act.PostShiftP99 = q.P50P95P99(post)
		res.Variants = append(res.Variants, act)
	}

	static := res.Variants[0]
	for _, v := range res.Variants[1:] {
		if res.BestEviction == "" || v.PostShiftP99 < res.bestPostShiftP99() {
			res.BestEviction = v.Name
		}
	}
	res.EvictionGain = static.PostShiftP99 / res.bestPostShiftP99()
	res.EvictionWins = res.EvictionGain >= 1.1
	for _, v := range res.Variants {
		if v.Name == "static+retier" {
			res.RetierRecovers = v.Retiers > 0 && v.HitRate > static.HitRate
		}
	}
	return res, nil
}

// bestPostShiftP99 returns the BestEviction variant's post-shift p99.
func (r *CacheStudyResult) bestPostShiftP99() float64 {
	for _, v := range r.Variants {
		if v.Name == r.BestEviction {
			return v.PostShiftP99
		}
	}
	return 0
}

// PrintCacheStudy renders the cache study.
func (s *Suite) PrintCacheStudy(w io.Writer) error {
	res, err := s.CacheStudy()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\n== Embedding cache tier: hot/cold row tiering under heat drift (budget %d KiB, shift t=%s settle %s, flash t=%s+%s) ==\n",
		res.BudgetBytes>>10, report.FmtUS(res.ShiftAt), report.FmtUS(res.SettleDur), report.FmtUS(res.FlashAt), report.FmtUS(res.FlashDur)); err != nil {
		return err
	}
	for _, v := range res.Variants {
		if _, err := fmt.Fprintf(w, "  %-14s hit %5.1f%%  penalty %s  batch-flash %s  interactive p99 pre %s -> post %s  (fills %d, evictions %d, retiers %d)\n",
			v.Name, 100*v.HitRate, report.FmtUS(v.Penalty), report.FmtUS(v.BatchPenalty),
			report.FmtUS(v.PreShiftP99), report.FmtUS(v.PostShiftP99),
			v.Fills, v.Evictions, v.Retiers); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "  best adaptive discipline: %s, %s better post-shift interactive p99 than frozen static (wins=%v); retier recovers hit rate=%v\n",
		res.BestEviction, report.FmtRatio(res.EvictionGain), res.EvictionWins, res.RetierRecovers)
	return err
}
