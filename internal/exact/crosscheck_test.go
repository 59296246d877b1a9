package exact

import (
	"math"
	"math/rand"
	"testing"

	"strippack/internal/binpack"
	"strippack/internal/core/precedence"
	"strippack/internal/dag"
	"strippack/internal/geom"
)

// TestExactMatchesPrecBinPackingOnUniformHeights is a strong theory-backed
// cross-validation: for uniform height-1 rectangles, §2.2's slide-down
// argument shows shelf solutions are optimal, so the exact strip packing
// OPT must equal the exact precedence bin packing OPT. Two completely
// independent solvers (geometric branch-and-bound vs subset DP) must agree.
func TestExactMatchesPrecBinPackingOnUniformHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		rects := make([]geom.Rect, n)
		sizes := make([]float64, n)
		for i := range rects {
			w := math.Round((0.15+0.8*rng.Float64())*20) / 20
			rects[i] = geom.Rect{W: w, H: 1}
			sizes[i] = w
		}
		in := geom.NewInstance(1, rects)
		g := dag.RandomOrdered(rng, n, 0.3)
		in.Prec = g.Edges()

		res, err := Solve(in, Options{NodeBudget: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Skipf("trial %d: budget exhausted", trial)
		}
		bins, err := binpack.ExactPrec(sizes, g, 12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Height-float64(bins)) > 1e-6 {
			t.Fatalf("trial %d: geometric OPT %g != bin OPT %d (n=%d sizes=%v edges=%v)",
				trial, res.Height, bins, n, sizes, in.Prec)
		}
	}
}

// TestExactSandwichedByDCAndLowerBound: on small precedence instances,
// LB <= OPT <= DC height, with all three computed independently.
func TestExactSandwichedByDCAndLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		rects := make([]geom.Rect, n)
		for i := range rects {
			rects[i] = geom.Rect{
				W: math.Round((0.2+0.6*rng.Float64())*10) / 10,
				H: math.Round((0.2+0.8*rng.Float64())*10) / 10,
			}
		}
		in := geom.NewInstance(1, rects)
		in.Prec = dag.RandomOrdered(rng, n, 0.35).Edges()

		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Skipf("trial %d: budget exhausted", trial)
		}
		lb, err := precedence.LowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		dcp, st, err := precedence.DC(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lb > res.Height+1e-9 {
			t.Fatalf("trial %d: LB %g > OPT %g", trial, lb, res.Height)
		}
		if dcp.Height() < res.Height-1e-9 {
			t.Fatalf("trial %d: DC %g beat OPT %g", trial, dcp.Height(), res.Height)
		}
		// Theorem 2.3: log2(n+1)·F(S) + 2·AREA(S)/width.
		bound := math.Log2(float64(n)+1)*st.F + 2*in.AreaLowerBound()
		if res.Height > bound+1e-9 {
			t.Fatalf("trial %d: OPT above the Theorem 2.3 bound (impossible)", trial)
		}
	}
}

// TestExactReleaseMatchesFractionalWhenIntegral: a release instance with a
// single full-width rectangle per release slot has OPT equal to the
// fractional optimum (no slicing advantage) — cross-check with the LP.
func TestExactTrivialReleaseChain(t *testing.T) {
	in := geom.NewInstance(1, []geom.Rect{
		{W: 1, H: 1, Release: 0},
		{W: 1, H: 1, Release: 1},
		{W: 1, H: 0.5, Release: 3},
	})
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Height-3.5) > 1e-9 {
		t.Fatalf("OPT = %g, want 3.5", res.Height)
	}
}
