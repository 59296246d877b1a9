package release

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/geom"
	"strippack/internal/workload"
)

// TestFractionalLowerBoundMatchesSolveCG: the bound path, which starts its
// master from the crash basis, reaches SolveCG's optimal height within
// 1e-12 relative on 200 instances of the offline-pack benchmark's shape
// (n=40, K=8, releases over [0,10]) and on continuous widths, a single
// phase and tied releases; on the benchmark's shape it takes at most half
// of SolveCG's pivots.
func TestFractionalLowerBoundMatchesSolveCG(t *testing.T) {
	// check solves in both ways and returns SolveCG's and the bound path's
	// pivots. The bound path is run through solveCG for its stats;
	// FractionalLowerBound itself is compared on the smaller cases below.
	check := func(name string, in *geom.Instance) (cgPivots, boundPivots int) {
		t.Helper()
		want, wantSt, err := SolveCG(in, CGOptions{})
		if err != nil {
			t.Fatalf("%s: SolveCG: %v", name, err)
		}
		got, gotSt, err := solveCG(in, CGOptions{}, nil, true)
		if err != nil {
			t.Fatalf("%s: bound path: %v", name, err)
		}
		if d := math.Abs(got.Height-want.Height) / want.Height; d > 1e-12 {
			t.Fatalf("%s: bound %v vs SolveCG %v (relative Δ=%g)", name, got.Height, want.Height, d)
		}
		return wantSt.Pivots, gotSt.Pivots
	}

	rng := rand.New(rand.NewSource(1))
	var cg, bound int
	for trial := 0; trial < 200; trial++ {
		c, b := check("fpga n=40 K=8", workload.FPGA(rng, 40, 8, 10))
		cg += c
		bound += b
	}
	if 2*bound > cg {
		t.Errorf("bound path took %d pivots over 200 solves, SolveCG %d: want at most half", bound, cg)
	}
	t.Logf("pivots per solve: SolveCG %.1f, bound path %.1f", float64(cg)/200, float64(bound)/200)

	for trial := 0; trial < 40; trial++ {
		tied := fpgaInstance(rng, 5+rng.Intn(30), 2+rng.Intn(7), 0)
		for i := range tied.Rects {
			tied.Rects[i].Release = float64(rng.Intn(3))
		}
		for _, c := range []struct {
			name string
			in   *geom.Instance
		}{
			{"continuous widths", contInstance(rng, 4+rng.Intn(12), 2+rng.Intn(3), 2*rng.Float64())},
			{"single phase", fpgaInstance(rng, 5+rng.Intn(30), 2+rng.Intn(7), 0)},
			{"tied releases", tied},
		} {
			check(c.name, c.in)
			fs, _, err := solveCG(c.in, CGOptions{}, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := FractionalLowerBound(c.in, CGOptions{}); err != nil || b != fs.Height {
				t.Fatalf("%s: FractionalLowerBound %v (%v), bound path %v", c.name, b, err, fs.Height)
			}
		}
	}
}

// TestFractionalLowerBoundOverWide: a rectangle wider than the strip fails
// the bound path and SolveEnumerated with SolveCG's error.
func TestFractionalLowerBoundOverWide(t *testing.T) {
	wide := geom.NewInstance(1, []geom.Rect{{W: 0.5, H: 1}, {W: 2, H: 1, Release: 1}})
	_, _, want := SolveCG(wide, CGOptions{})
	if want == nil {
		t.Fatal("SolveCG accepted an over-wide rectangle")
	}
	if _, got := FractionalLowerBound(wide, CGOptions{}); got == nil || got.Error() != want.Error() {
		t.Fatalf("FractionalLowerBound error %v, want SolveCG's %v", got, want)
	}
	if _, got := SolveEnumerated(wide); got == nil || got.Error() != want.Error() {
		t.Fatalf("SolveEnumerated error %v, want SolveCG's %v", got, want)
	}
}
