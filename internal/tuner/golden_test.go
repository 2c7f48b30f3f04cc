package tuner_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/tuner"
)

// goldenTuneScale keeps the Table-I models at test size: a few features each,
// tuned over two batches at every derived occupancy.
const goldenTuneScale = 200

// tuneDigests pins Tune's results for Suite models A-E, captured before the
// local stage learned to stop simulating once its winner is proven. The
// digest covers ChoiceIdx, Occupancy and the bits of Latency, plus every
// PerOccupancy trial's occupancy, choices, latency bits and abandoned flag.
var tuneDigests = map[string]string{
	"V100/A": "66f724769a76a704",
	"V100/B": "b4f8aa34531f7c4b",
	"V100/C": "917f75839e2d5d4c",
	"V100/D": "c5e3a204cc5bce72",
	"V100/E": "81efbede68479d05",
	"A100/A": "df870207b23c06a0",
	"A100/B": "11397be57e296f60",
	"A100/C": "b8e507f953ead27b",
	"A100/D": "fc406c272c0ef741",
	"A100/E": "3e1982d1f987fe75",
}

func resultDigest(r *tuner.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putInts := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	putInts(r.ChoiceIdx)
	put(uint64(r.Occupancy))
	put(math.Float64bits(r.Latency))
	put(uint64(len(r.PerOccupancy)))
	for _, po := range r.PerOccupancy {
		put(uint64(po.BlocksPerSM))
		putInts(po.ChoiceIdx)
		put(math.Float64bits(po.Latency))
		if po.Abandoned {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTuneMatchesGoldenDigests tunes Suite models A-E cold with the default
// engine (no memo, no pruning, derived occupancies) on both evaluation
// devices and compares each Result's digest with the pinned one.
func TestTuneMatchesGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes ten models")
	}
	suite := experiments.NewSuite(experiments.Config{Scale: goldenTuneScale, TuneBatches: 2, EvalBatches: 1, BatchCap: 512})
	for _, dev := range []*gpusim.Device{gpusim.V100(), gpusim.A100()} {
		for _, m := range datasynth.StandardModels() {
			cfg := suite.ScaledModel(m)
			ds, err := suite.Dataset(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batches, _ := suite.Split(ds)
			model := tuner.DefaultModel(experiments.Features(cfg))
			res, err := tuner.Tune(dev, model, batches, tuner.Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", dev.Name, m.Name, err)
			}
			key := dev.Name + "/" + m.Name
			if got, want := resultDigest(res), tuneDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s (occupancy %d, choices %v, latency %x)",
					key, got, want, res.Occupancy, res.ChoiceIdx, res.Latency)
			}
		}
	}
}
