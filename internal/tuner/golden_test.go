package tuner_test

import (
	"encoding/binary"
	"fmt"
	"hash"
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

// selectionDigests pins Tune's selection for Suite models A-E: ChoiceIdx,
// Occupancy and the bits of Latency. They were captured before the global
// stage learned to abandon occupancies, when every trial was measured, and
// must never change.
var selectionDigests = map[string]string{
	"V100/A": "d3fe20fd9cecaeca",
	"V100/B": "d0b18d5f8906ee57",
	"V100/C": "7729f24a4aade8ed",
	"V100/D": "3979f927ced13a4e",
	"V100/E": "de170ad6e0aabdad",
	"A100/A": "3164c83758f75557",
	"A100/B": "dfcc9b2e95780a4a",
	"A100/C": "e60eb8915f60dceb",
	"A100/D": "3391778a4ce4b47d",
	"A100/E": "144fc987b3d129b9",
}

// trialDigests pins Tune's PerOccupancy for the same runs: every trial's
// occupancy, choices, latency bits and abandoned flag, in order. They were
// captured once the global stage abandoned every occupancy proven to lose.
var trialDigests = map[string]string{
	"V100/A": "b8550b89757eef1b",
	"V100/B": "c8eb673c3645131a",
	"V100/C": "0a045f466f3a477d",
	"V100/D": "29b23ef6ba87dc8c",
	"V100/E": "eeab1149c6676c72",
	"A100/A": "257d22cf56e5f64a",
	"A100/B": "a43c377601ceded7",
	"A100/C": "58e07fcadc14b7a7",
	"A100/D": "b95b84fce3a90f7d",
	"A100/E": "0c56577dfd5809b4",
}

// digester hashes the fields of a tuning result into one 64-bit digest.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) putInts(xs []int) {
	d.put(uint64(len(xs)))
	for _, x := range xs {
		d.put(uint64(x))
	}
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func selectionDigest(r *tuner.Result) string {
	d := newDigester()
	d.putInts(r.ChoiceIdx)
	d.put(uint64(r.Occupancy))
	d.put(math.Float64bits(r.Latency))
	return d.sum()
}

func trialDigest(r *tuner.Result) string {
	d := newDigester()
	d.put(uint64(len(r.PerOccupancy)))
	for _, po := range r.PerOccupancy {
		d.put(uint64(po.BlocksPerSM))
		d.putInts(po.ChoiceIdx)
		d.put(math.Float64bits(po.Latency))
		if po.Abandoned {
			d.put(1)
		} else {
			d.put(0)
		}
	}
	return d.sum()
}

// TestTuneMatchesGoldenDigests tunes Suite models A-E cold with the default
// engine (no memo, derived occupancies) on both evaluation devices, with one,
// two and eight workers, and compares each Result's selection and trial
// digests with the pinned ones: which occupancies a run abandons must not
// depend on how many workers raced through the sweep.
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
			for _, par := range []int{1, 2, 8} {
				res, err := tuner.Tune(dev, model, batches, tuner.Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s %s: %v", dev.Name, m.Name, err)
				}
				key := fmt.Sprintf("%s/%s", dev.Name, m.Name)
				if got, want := selectionDigest(res), selectionDigests[key]; got != want {
					t.Errorf("%s par %d: selection digest %s, want %s (occupancy %d, choices %v, latency %x)",
						key, par, got, want, res.Occupancy, res.ChoiceIdx, res.Latency)
				}
				if got, want := trialDigest(res), trialDigests[key]; got != want {
					t.Errorf("%s par %d: trial digest %s, want %s (trials %+v)", key, par, got, want, res.PerOccupancy)
				}
			}
		}
	}
}
