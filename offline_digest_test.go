package strippack

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"strippack/internal/workload"
)

// offlineHash accumulates float64 bit patterns, so two runs hash equal
// only when every value is bit-identical.
type offlineHash struct{ h hash.Hash }

func (d offlineHash) add(vs ...float64) {
	for _, v := range vs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

func (d offlineHash) packing(p *Packing) {
	for _, pos := range p.Pos {
		d.add(pos.X, pos.Y)
	}
	d.add(p.Height())
}

// offlineDigestCases are reduced-size versions of the offline-pack
// benchmark's five facade calls. Each case packs a few seeded instances
// and hashes every placement, height and reported bound or count.
var offlineDigestCases = []struct {
	name string
	gen  func(*rand.Rand) *Instance
	run  func(*Instance, offlineHash) error
}{
	{"PackDC",
		func(rng *rand.Rand) *Instance { return workload.DAGWorkload(rng, 1000, 32, 0.1) },
		func(in *Instance, d offlineHash) error {
			r, err := PackDC(in)
			if err != nil {
				return err
			}
			d.packing(r.Packing)
			d.add(r.Height, r.LowerBound, r.Guarantee, float64(r.Calls), float64(r.MaxDepth))
			return nil
		}},
	{"PackReleaseAPTAS",
		func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 1500, 8, 375) },
		func(in *Instance, d offlineHash) error {
			r, err := PackReleaseAPTAS(in, 1.5, 8)
			if err != nil {
				return err
			}
			d.packing(r.Packing)
			d.add(r.Height, r.FractionalHeight, r.AdditiveBound, float64(r.R), float64(r.W))
			return nil
		}},
	{"FractionalLowerBound",
		func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 40, 8, 10) },
		func(in *Instance, d offlineHash) error {
			b, err := FractionalLowerBound(in)
			d.add(b)
			return err
		}},
	{"PackKR",
		func(rng *rand.Rand) *Instance { return workload.Uniform(rng, 1500, 0.05, 0.8, 0.05, 1) },
		func(in *Instance, d offlineHash) error {
			r, err := PackKR(in, 0.5)
			if err != nil {
				return err
			}
			d.packing(r.Packing)
			d.add(r.Height, r.FractionalHeight, float64(r.Wide), float64(r.Narrow))
			return nil
		}},
	{"ScheduleOnline",
		func(rng *rand.Rand) *Instance { return workload.FPGA(rng, 10000, 16, 2500) },
		func(in *Instance, d offlineHash) error {
			p, err := ScheduleOnline(in, 16)
			if err != nil {
				return err
			}
			d.packing(p)
			return nil
		}},
}

// TestOfflineDigestsPinned pins the outputs of the paper's algorithms as
// the strippack facade exposes them: for each call, a sha256 over every
// placement, height and reported bound on eight seeded instances. The
// digests were recorded before DC, the APTAS conversion, the stacking
// sort and the online replay were reworked for speed, so they pin that
// none of those changes moved a bit. The FractionalLowerBound digest was
// re-recorded once, when the bound's master began starting from the
// configuration LP's crash basis: that moved 4 of the 8 bounds by 1-2
// ulps (at most 4.3e-16 relative), LP round-off of the same optimum.
// The PackKR digest was re-recorded once, when Kenyon-Rémila moved from the
// dense tableau to release.SolveEnumerated's lp.Revised master: all 8
// heights stayed bit-identical, FractionalHeight moved by 1 ulp on seed 1
// (320.30053134992454 -> ...448) and on seed 4 (324.05976571396081 ->
// ...087), and 277 and 107 placements on those two seeds moved by at most
// 2.9e-14, LP round-off of the same basic optimum. It is the offline
// analogue of internal/service's TestFleetDigestsPinned.
func TestOfflineDigestsPinned(t *testing.T) {
	want := map[string]string{
		"PackDC":               "2b5dddc6cf7c2759f1916e64db5a0d504b2c8f644c22883de00bb391f604d403",
		"PackReleaseAPTAS":     "2275fa2aa81e44ed29f7562cea33c172b222657468d875934a5d4837c6a7761c",
		"FractionalLowerBound": "c76f68d70434c4741ff30ce43a555cde7287f847f6509a64f71c568233fa7ce2",
		"PackKR":               "50c06c99726dcefc9e8eb0e461117d088988d71a585e49410e54854f4f65dd4f",
		"ScheduleOnline":       "8d91e726a5dd47ae9d679377a28dac5aef665c1f923e0aa3bca30b156dda5e1c",
	}
	for k, c := range offlineDigestCases {
		t.Run(c.name, func(t *testing.T) {
			d := offlineHash{sha256.New()}
			for seed := int64(1); seed <= 8; seed++ {
				in := c.gen(rand.New(rand.NewSource(100*int64(k) + seed)))
				if err := c.run(in, d); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if got := fmt.Sprintf("%x", d.h.Sum(nil)); got != want[c.name] {
				t.Errorf("digest %s, want %s", got, want[c.name])
			}
		})
	}
}
