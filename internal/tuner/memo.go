package tuner

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/gpusim"
	"repro/internal/sched"
)

// Memo is a concurrency-safe cache of tuning outcomes shared across Tune
// calls. It holds three kinds of entry: per (feature, batch), which
// candidates' plans can run and the bound that feature is predicted to add
// at each occupancy (planInfo); per (occupancy, feature), the local
// stage's decision over every tuning batch (decision); and per (occupancy,
// batch, choice vector), the global stage's fused latency (globalScore). Keys
// fingerprint everything an outcome depends on — device, feature workloads,
// candidate set and occupancy — so a hit returns the exact values a fresh run
// would produce: cached and cold runs are bit-identical. Entries are computed
// once (singleflight): a second goroutine asking for an in-flight key blocks
// until the first finishes and then shares its result, so concurrent
// re-tunes never duplicate work and never observe a torn entry. A re-tune
// whose entries all hit plans and simulates nothing; the plans themselves are
// not kept. A decision covers every tuning batch, so a re-tune over a partly
// changed window runs every feature's local stage again; only the plan
// summaries and global-stage latencies of its unchanged batches hit.
//
// The cache grows without bound; it is meant to be scoped to a serving
// lifetime (one fleet, successive re-tunes) where repeated window batches make
// hits common. Call Reset to drop everything.
//
// A nil *Memo is valid and disables caching.
type Memo struct {
	mu     sync.Mutex
	m      map[string]*memoEntry
	hits   atomic.Int64
	misses atomic.Int64
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewMemo returns an empty cache.
func NewMemo() *Memo {
	return &Memo{m: make(map[string]*memoEntry)}
}

// do returns the memoized value for key, computing it at most once. Results
// (including errors) are cached. Callers must treat returned values as
// immutable — they are shared across all hits.
func (m *Memo) do(key string, compute func() (any, error)) (any, error) {
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		e = &memoEntry{}
		m.m[key] = e
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// Stats reports cache hits and misses since creation (or the last Reset).
func (m *Memo) Stats() (hits, misses int64) {
	if m == nil {
		return 0, 0
	}
	return m.hits.Load(), m.misses.Load()
}

// Len reports the number of cached entries.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Reset drops every cached entry and zeroes the counters.
func (m *Memo) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.m = make(map[string]*memoEntry)
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
}

// decision is the memoized outcome of one feature's local stage at one
// occupancy: the winning candidate and, per tuning batch, the bound on the
// longest block it puts into the fused kernel (fusion.FeatureBound).
type decision struct {
	winner int
	bounds []float64
}

// planInfo is the memoized part of planning one feature's workload in one
// batch: runnable[ci] reports whether candidate ci's plan has a block to run
// and, when planning failed, failed names the candidate that failed.
// predicted[k] is the bound the neutral padding-pool plan predicts at the
// sweep's occupancy k (sweep.predict).
type planInfo struct {
	runnable  []bool
	failed    int
	predicted []float64
}

// globalScore is the memoized outcome of one global-stage (occupancy, batch)
// fused measurement.
type globalScore struct {
	time float64
	// skip marks a fused-compile failure, which rules the occupancy out
	// (matching the serial tuner's behavior).
	skip bool
}

// fingerprints holds the per-Tune key material for Memo lookups. All parts
// are digests of the underlying values (FNV-128a), so keys are stable across
// processes and collide only if the simulated inputs are identical — in which
// case sharing the cached result is exactly what we want (e.g. two features
// with identical candidate sets and workloads dedupe to one simulation).
type fingerprints struct {
	dev      string
	feature  []string   // static per-feature identity: dim, table, candidates
	batch    []string   // per-batch identity: every feature's workload + L2
	workload [][]string // [batch][feature] workload digest
}

type fpHash struct {
	h   hash.Hash
	buf [8]byte
}

func newFP() *fpHash { return &fpHash{h: fnv.New128a()} }

func (p *fpHash) i64(v int64) {
	binary.LittleEndian.PutUint64(p.buf[:], uint64(v))
	p.h.Write(p.buf[:])
}

func (p *fpHash) f64(v float64) {
	binary.LittleEndian.PutUint64(p.buf[:], math.Float64bits(v))
	p.h.Write(p.buf[:])
}

func (p *fpHash) str(s string) {
	p.i64(int64(len(s)))
	p.h.Write([]byte(s))
}

func (p *fpHash) sum() string { return string(p.h.Sum(nil)) }

// newFingerprints digests the tuning inputs once per Tune call.
func newFingerprints(dev *gpusim.Device, model *Model, ws [][]sched.Workload, l2 []sched.L2Context) *fingerprints {
	fp := &fingerprints{}

	d := newFP()
	// The device struct is flat scalars; its printed form identifies it.
	fmt.Fprintf(d.h, "%+v", *dev)
	fp.dev = d.sum()

	fp.feature = make([]string, len(model.Features))
	for f := range model.Features {
		p := newFP()
		p.i64(int64(model.Features[f].Dim))
		p.i64(int64(model.Features[f].TableRows))
		p.i64(int64(model.Features[f].Pool))
		for _, s := range model.Candidates[f] {
			p.str(s.Name())
			r := s.Resources(model.Features[f].Dim)
			p.i64(int64(r.ThreadsPerBlock))
			p.i64(int64(r.RegsPerThread))
			p.i64(int64(r.SharedMemPerBlock))
		}
		fp.feature[f] = p.sum()
	}

	fp.batch = make([]string, len(ws))
	fp.workload = make([][]string, len(ws))
	for bi := range ws {
		fp.workload[bi] = make([]string, len(ws[bi]))
		p := newFP()
		p.f64(l2[bi].CacheBytes)
		p.f64(l2[bi].WorkingSetBytes)
		for f := range ws[bi] {
			// The padding pool and the fused kernel depend on every
			// feature's workload, so the batch digest covers them all;
			// the per-feature digest keys the per-feature local stage.
			q := newFP()
			w := &ws[bi][f]
			q.i64(int64(w.Dim))
			q.i64(int64(w.BatchSize))
			q.i64(int64(w.TotalRows))
			q.i64(int64(w.UniqueRows))
			q.i64(int64(w.TableRows))
			for _, pfv := range w.PF {
				q.i64(int64(pfv))
			}
			fp.workload[bi][f] = q.sum()
			p.str(fp.feature[f])
			p.str(fp.workload[bi][f])
		}
		fp.batch[bi] = p.sum()
	}
	return fp
}

// decisionKey keys feature f's local-stage decision at occupancy occ. The
// decision depends on every tuning batch, so the key carries, for each, the
// digest of the feature's own workload (two replicated features share an
// entry only when their sampled workloads, and therefore their simulations,
// are identical) and the batch digest, which covers the padding pool and
// the block widths the bounds are charged at.
func (fp *fingerprints) decisionKey(occ, warps, f int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "D|%d|%d|%s%s", occ, warps, fp.dev, fp.feature[f])
	for bi := range fp.batch {
		b.WriteString(fp.workload[bi][f])
		b.WriteString(fp.batch[bi])
	}
	return b.String()
}

// planKey keys the planInfo of feature f's workload in batch bi under the
// candidates marked in want, predicted at the given occupancies for fused
// kernels of the given block widths.
func (fp *fingerprints) planKey(f, bi int, want []bool, occupancies, widths []int) string {
	p := newFP()
	for _, w := range want {
		if w {
			p.i64(1)
		} else {
			p.i64(0)
		}
	}
	for _, list := range [][]int{occupancies, widths} {
		p.i64(int64(len(list)))
		for _, v := range list {
			p.i64(int64(v))
		}
	}
	return fmt.Sprintf("P|%s%s%s%s%s", fp.dev, fp.feature[f], fp.workload[bi][f], fp.batch[bi], p.sum())
}

// globalKey keys one global-stage fused measurement of the given choice
// vector at the given occupancy.
func (fp *fingerprints) globalKey(occ, bi int, choice []int) string {
	p := newFP()
	for _, ci := range choice {
		p.i64(int64(ci))
	}
	return fmt.Sprintf("G|%d|%s%s%s", occ, fp.dev, fp.batch[bi], p.sum())
}
