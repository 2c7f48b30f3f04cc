package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpusim"
)

// sizeQuantum is the service memo's size grid, as in recflex-serve.
const sizeQuantum = 32

// tuneServing tunes a fresh RecFlex instance for serving exactly as
// recflex-serve does: default tuner options on two historical batches of 256
// and 384 samples drawn from the model's own seed.
func (e *env) tuneServing(cfg *datasynth.ModelConfig, dev *gpusim.Device, model int) (*core.RecFlex, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var hist []*embedding.Batch
	for _, n := range []int{256, 384} {
		b, err := datasynth.GenerateBatch(cfg, n, rng)
		if err != nil {
			return nil, err
		}
		hist = append(hist, b)
	}
	rf := core.New(dev, experiments.Features(cfg))
	if err := e.tune(rf, hist, -1, model); err != nil {
		return nil, fmt.Errorf("tuning %s on %s: %w", cfg.Name, dev.Name, err)
	}
	return rf, nil
}

// kernelKey is one distinct batch a workload resolved through the kernel
// path: a model index and a batch size.
type kernelKey struct{ model, size int }

// kernelSet holds what re-timing the kernel path needs: each model's data
// config and tuned instance.
type kernelSet struct {
	cfgs []*datasynth.ModelConfig
	recs []*core.RecFlex
}

// retime re-runs the public kernel path — datasynth.BatchForSize, the tuned
// RecFlex.CompileBatch and Fused.Simulate — on up to max of the distinct
// keys, spread evenly over them, and returns the mean microseconds of each
// step. The traced run uses it to split a memo miss into its three layers.
func (k *kernelSet) retime(keys []kernelKey, max int) (batchUS, compileUS, simUS float64, err error) {
	seen := make(map[kernelKey]bool)
	var uniq []kernelKey
	for _, key := range keys {
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, key)
		}
	}
	sort.Slice(uniq, func(a, b int) bool {
		if uniq[a].model != uniq[b].model {
			return uniq[a].model < uniq[b].model
		}
		return uniq[a].size < uniq[b].size
	})
	var pick []kernelKey
	for i := 0; i < max && i < len(uniq); i++ {
		pick = append(pick, uniq[i*len(uniq)/min(max, len(uniq))])
	}
	var tb, tc, ts time.Duration
	for _, key := range pick {
		t0 := time.Now()
		b, err := datasynth.BatchForSize(k.cfgs[key.model], key.size)
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		fu, err := k.recs[key.model].CompileBatch(b)
		if err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		if _, err := fu.Simulate(); err != nil {
			return 0, 0, 0, err
		}
		tb += t1.Sub(t0)
		tc += t2.Sub(t1)
		ts += time.Since(t2)
	}
	n := float64(len(pick))
	return us(tb) / n, us(tc) / n, us(ts) / n, nil
}

// digest fingerprints a fleet report: every per-request outcome with its
// simulated times bit for bit, plus the pool-wide counters and the cache
// tier's accounting. Equal digests mean identical replays.
func digest(rep *fleet.Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for i := range rep.Outcomes {
		put(uint64(rep.Outcomes[i]))
		put(uint64(rep.Generations[i]))
		put(uint64(rep.Worker[i]))
		putF(rep.Sojourn[i])
		putF(rep.Dispatch[i])
		putF(rep.Service[i])
	}
	m := rep.Metrics
	for _, v := range []int{m.Served, m.Timeouts, m.ShedQueue, m.ShedQuota, m.ShedLoad, m.ShedDeadline,
		m.SplitServed, m.MaxQueueDepth, m.Preemptions, len(m.ScaleEvents)} {
		put(uint64(v))
	}
	putF(m.Makespan)
	for _, ev := range m.ScaleEvents {
		putF(ev.Time)
		put(uint64(ev.Worker))
		put(uint64(ev.Delta))
	}
	if c := m.Cache; c != nil {
		for _, v := range []float64{c.RowReads, c.Hits, c.Misses, c.ColdBytes, c.Penalty} {
			putF(v)
		}
		put(uint64(c.Fills))
		put(uint64(c.Evictions))
		put(uint64(c.Retiers))
	}
	return h.Sum64()
}
